/**
 * @file
 * Batched AES encryption engines. The ORAM controller encrypts and
 * decrypts every bucket on a path for every periodic access, so bucket
 * crypto dominates simulator wall-clock; this layer turns the single
 * scalar AES of crypto/aes128.hh into two throughput-oriented
 * primitives: `encryptBlocks` encrypts a whole span of 16-byte blocks
 * per call, and `ctrXor` streams a buffer through CTR mode in one pass
 * (counter blocks built, encrypted and XORed into the data without a
 * keystream buffer in memory), so an implementation can amortize table
 * lookups or keep the AES-NI pipeline full (8 independent blocks in
 * flight).
 *
 * Three backends exist:
 *  - Scalar:  the from-scratch byte-wise FIPS-197 rounds (the seed
 *             implementation), kept as the portable reference every
 *             other backend is differentially tested against.
 *  - TTable:  precomputed 32-bit T-table rounds; portable, ~an order
 *             of magnitude faster than Scalar.
 *  - AesNi:   hardware AES (x86 AES-NI), pipelined 8 blocks per
 *             iteration; selected only when the CPU supports it.
 *
 * Selection happens once at engine construction: an explicit backend
 * pins the implementation (tests pin Scalar/TTable for portability);
 * Auto resolves to the best available — CPUID-detected AES-NI unless
 * the TCORAM_NO_AESNI environment variable is set, else TTable. The
 * process-wide default is also settable via TCORAM_CRYPTO_BACKEND or
 * setDefaultCryptoBackend() (the CLI --crypto-backend flag).
 */

#ifndef TCORAM_CRYPTO_CRYPTO_ENGINE_HH
#define TCORAM_CRYPTO_CRYPTO_ENGINE_HH

#include <memory>
#include <span>
#include <string_view>

#include "crypto/aes128.hh"

namespace tcoram::crypto {

/** Engine selection knob. */
enum class CryptoBackend
{
    Auto,   ///< best available (AES-NI if supported, else TTable)
    Scalar, ///< byte-wise reference rounds (the seed implementation)
    TTable, ///< precomputed T-table rounds (portable fast path)
    AesNi,  ///< x86 AES-NI, 8-block pipelined
};

/**
 * One expanded key, one implementation. Engines are immutable after
 * construction and safe to share across threads for encryption.
 */
class CryptoEngineIf
{
  public:
    virtual ~CryptoEngineIf() = default;

    /** Human-readable backend name ("scalar", "ttable", "aesni"). */
    virtual const char *name() const = 0;

    /**
     * ECB-encrypt every 16-byte block in @p blocks in place: the raw
     * batched primitive (the portable ctrXor runs on it; benchmarks
     * time it in isolation).
     */
    virtual void encryptBlocks(std::span<Block128> blocks) const = 0;

    /**
     * Fused CTR: out[i] = in[i] ^ keystream(@p nonce)[i] for every
     * byte, where keystream block j is the encryption of the counter
     * block (8-byte little-endian nonce || 8-byte little-endian j).
     * The spans must be the same length. @p out may alias @p in
     * exactly (the in-place form); partially overlapping spans are not
     * allowed. A length that is not a multiple of 16 uses the first
     * bytes of the last keystream block.
     *
     * The base implementation works through a fixed stack chunk of
     * counter blocks (encryptBlocks, then XOR), so every backend
     * inherits it; AES-NI overrides it with counters built in
     * registers and the XOR fused into the store.
     */
    virtual void ctrXor(std::uint64_t nonce,
                        std::span<const std::uint8_t> in,
                        std::span<std::uint8_t> out) const;

    /** Single-block convenience (not the hot path). */
    Block128
    encryptBlock(const Block128 &plain) const
    {
        Block128 b = plain;
        encryptBlocks({&b, 1});
        return b;
    }
};

/**
 * Build an engine for @p key. CryptoBackend::Auto resolves through
 * defaultCryptoBackend(). Requesting AesNi on a machine (or build)
 * without AES-NI support falls back to TTable with a log note, so a
 * pinned configuration still runs everywhere.
 */
std::unique_ptr<CryptoEngineIf> makeCryptoEngine(
    const Key128 &key, CryptoBackend backend = CryptoBackend::Auto);

/**
 * @return true when hardware AES is compiled in (TCORAM_ENABLE_AESNI),
 * the CPU reports it (CPUID), and TCORAM_NO_AESNI is not set.
 */
bool aesniAvailable();

/**
 * Process-wide backend that CryptoBackend::Auto resolves to. Priority:
 * setDefaultCryptoBackend() if called, else the TCORAM_CRYPTO_BACKEND
 * environment variable, else AES-NI when available, else TTable.
 */
CryptoBackend defaultCryptoBackend();

/**
 * Pin the process-wide default — the one in-process selector (cli_sim
 * --crypto-backend calls it). Drivers call it once at startup, before
 * any simulation thread builds engines. Pass CryptoBackend::Auto to
 * restore detection. Thread-safe; takes effect for engines constructed
 * afterwards.
 */
void setDefaultCryptoBackend(CryptoBackend backend);

/** Parse "auto" / "scalar" / "ttable" / "aesni" (fatal otherwise). */
CryptoBackend parseCryptoBackend(std::string_view name);

/** Inverse of parseCryptoBackend. */
const char *backendName(CryptoBackend backend);

} // namespace tcoram::crypto

#endif // TCORAM_CRYPTO_CRYPTO_ENGINE_HH
