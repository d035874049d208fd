/**
 * @file
 * AES-based pseudo-random function / deterministic random bit
 * generator. The ORAM controller uses this for leaf remapping and
 * encryption nonces: cryptographic-quality randomness whose stream is
 * nevertheless reproducible under a fixed key, which the test suite
 * and the replay experiments require.
 *
 * Evaluation is batched: evalMany/nextMany produce a whole span of
 * outputs through one CryptoEngineIf::encryptBlocks call, which is
 * what makes bulk consumers (position-map leaf remapping, per-path
 * write-back nonces) cheap.
 */

#ifndef TCORAM_CRYPTO_PRF_HH
#define TCORAM_CRYPTO_PRF_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/crypto_engine.hh"

namespace tcoram::crypto {

/** Counter-mode PRF: output_i = AES_K(i). */
class Prf
{
  public:
    /**
     * @param key PRF key
     * @param backend crypto engine selection (Auto = process default)
     */
    explicit Prf(const Key128 &key,
                 CryptoBackend backend = CryptoBackend::Auto)
        : engine_(makeCryptoEngine(key, backend))
    {
    }

    /** Next 64 pseudo-random bits. */
    std::uint64_t next64();

    /**
     * Fill @p out with the next out.size() stream values — the same
     * values repeated next64() calls would produce, generated with one
     * batched engine call.
     */
    void nextMany(std::span<std::uint64_t> out);

    /** Uniform value in [0, bound) via rejection sampling. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Deterministic evaluation at an arbitrary point (stateless PRF). */
    std::uint64_t eval(std::uint64_t point) const;

    /**
     * Batched stateless evaluation: out[i] = eval(start + i), one
     * engine call for the whole span.
     */
    void evalMany(std::uint64_t start, std::span<std::uint64_t> out) const;

    /** Stream position — checkpoint/restart support. A PRF restored to
     *  a saved counter continues the exact stream of the saved one. */
    std::uint64_t counter() const { return counter_; }
    void setCounter(std::uint64_t counter) { counter_ = counter; }

  private:
    std::unique_ptr<CryptoEngineIf> engine_;
    std::uint64_t counter_ = 0;
    /** Reusable block scratch for batched evaluation. */
    mutable std::vector<Block128> scratch_;
};

/** Derive a Key128 from a 64-bit seed (for tests and simulations). */
Key128 keyFromSeed(std::uint64_t seed);

} // namespace tcoram::crypto

#endif // TCORAM_CRYPTO_PRF_HH
