/**
 * @file
 * AES-128-CTR probabilistic encryption. Path ORAM requires every
 * bucket write-back to produce a fresh-looking ciphertext (paper §3,
 * footnote 2); CTR mode with a per-write random nonce provides that,
 * and is also what makes the root-bucket probe attack of §3.2 work:
 * the adversary detects an ORAM access by observing the root bucket's
 * ciphertext change.
 *
 * The cipher streams each buffer through the engine's fused CTR kernel
 * (CryptoEngineIf::ctrXor) once: counter blocks are generated,
 * encrypted and XORed into the data in one pass, with no keystream
 * buffer in between. A list of independently-nonced segments — e.g.
 * every bucket on an ORAM path — is one CtrCipher call. The cipher
 * holds no scratch state, so steady-state operation performs no heap
 * allocation and one instance may be shared across threads.
 */

#ifndef TCORAM_CRYPTO_CTR_HH
#define TCORAM_CRYPTO_CTR_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/crypto_engine.hh"

namespace tcoram::crypto {

/**
 * A non-owning view of a ciphertext: its nonce plus a span over the
 * encrypted payload, wherever the payload lives (a Ciphertext, or a
 * bucket inside an ORAM tree image). Equality compares nonce and
 * bytes — exactly what an off-chip observer can test.
 */
struct CiphertextView
{
    std::uint64_t nonce = 0;
    std::span<const std::uint8_t> data;

    friend bool
    operator==(const CiphertextView &a, const CiphertextView &b)
    {
        return a.nonce == b.nonce && std::ranges::equal(a.data, b.data);
    }
};

/**
 * A ciphertext: nonce plus the encrypted payload. The nonce is stored
 * in the clear (as in any real CTR-mode layout), so equality of two
 * Ciphertexts is exactly what an off-chip observer can test.
 */
struct Ciphertext
{
    std::uint64_t nonce = 0;
    std::vector<std::uint8_t> data;

    bool operator==(const Ciphertext &other) const = default;

    operator CiphertextView() const { return {nonce, data}; }

    /** Owning copy of @p view. */
    static Ciphertext
    copyOf(const CiphertextView &view)
    {
        return {view.nonce, {view.data.begin(), view.data.end()}};
    }
};

/**
 * One independently-nonced CTR operation inside a batch: XOR the
 * keystream of (nonce, block 0..) into @p out, reading @p in. The
 * spans must be equal length; @p out may alias @p in.
 */
struct CtrSegment
{
    std::uint64_t nonce = 0;
    std::span<const std::uint8_t> in;
    std::span<std::uint8_t> out;
};

/**
 * CTR-mode cipher bound to one AES key. Encryption consumes a caller-
 * supplied nonce; the ORAM controller draws nonces from its PRF so the
 * whole system stays deterministic under a fixed seed.
 *
 * The keystream layout is unchanged from the original scalar
 * implementation (counter block = 8-byte little-endian nonce || 8-byte
 * little-endian block index), so ciphertexts are bit-identical across
 * every backend — the golden-vector test pins this.
 */
class CtrCipher
{
  public:
    /**
     * @param key AES-128 key
     * @param backend crypto engine selection; Auto resolves the
     *        process default (crypto/crypto_engine.hh) so tests can
     *        pin the portable backend
     */
    explicit CtrCipher(const Key128 &key,
                       CryptoBackend backend = CryptoBackend::Auto)
        : engine_(makeCryptoEngine(key, backend))
    {
    }

    /**
     * XOR the keystream for @p nonce into @p out, reading from @p in.
     * The spans must be the same length; @p out may alias @p in (the
     * in-place form), which is the allocation-free core every other
     * entry point reduces to. CTR is an involution, so the same call
     * both encrypts and decrypts. One pass of the engine's fused
     * ctrXor kernel does the whole buffer.
     */
    void xcrypt(std::uint64_t nonce, std::span<const std::uint8_t> in,
                std::span<std::uint8_t> out) const;

    /**
     * Process every segment in one call, each through one pass of the
     * fused ctrXor kernel under its own nonce. This is the whole-path
     * primitive — an ORAM path read decrypts every bucket (each with
     * its own nonce) in one call.
     */
    void xcryptSegments(std::span<const CtrSegment> segments) const;

    /**
     * Encrypt @p plain into caller-owned @p out. Resizes out.data only
     * when its capacity is insufficient, so steady-state reuse of one
     * Ciphertext performs no heap allocation.
     */
    void encryptInto(std::span<const std::uint8_t> plain,
                     std::uint64_t nonce, Ciphertext &out) const;

    /** Decrypt into a caller-owned buffer of exactly the payload size. */
    void decryptInto(const CiphertextView &cipher,
                     std::span<std::uint8_t> out) const;

    /** Encrypt @p plain under @p nonce (allocating convenience form). */
    Ciphertext encrypt(const std::vector<std::uint8_t> &plain,
                       std::uint64_t nonce) const;

    /** Decrypt; inverse of encrypt for the same key. */
    std::vector<std::uint8_t> decrypt(const CiphertextView &cipher) const;

    /** Name of the engine actually selected ("scalar"/"ttable"/"aesni"). */
    const char *backendName() const { return engine_->name(); }

    /**
     * Number of 16-byte AES chunks needed for @p nbytes of payload;
     * feeds the power model's per-chunk AES energy accounting (§9.1.4).
     */
    static std::uint64_t chunksFor(std::uint64_t nbytes);

  private:
    std::unique_ptr<CryptoEngineIf> engine_;
};

} // namespace tcoram::crypto

#endif // TCORAM_CRYPTO_CTR_HH
