/**
 * @file
 * Hardware AES backend (x86 AES-NI). One `aesenc` per round per block
 * with 8 independent blocks in flight per loop iteration, so the
 * 4-cycle instruction latency pipelines away and throughput approaches
 * one block per few cycles — ~2 orders of magnitude over the scalar
 * rounds. Compiled whenever the toolchain targets x86-64 and
 * TCORAM_ENABLE_AESNI is on; selected at runtime only when CPUID
 * reports AES support (crypto_engine.cc additionally honors the
 * TCORAM_NO_AESNI environment override).
 *
 * `ctrXor` is the fused CTR kernel the ORAM path crypto runs on: each
 * counter block is built in a register (the nonce in the low 64-bit
 * lane, i.e. little-endian bytes 0-7, and the block index in the high
 * lane, bytes 8-15 — the portable layout), 8 blocks go through the
 * rounds together, and the input is XORed in on the store. The
 * keystream never touches memory except for a partial last block,
 * which goes through one 16-byte temporary. `encryptBlocks` and
 * `ctrXor` share one round schedule (`aesRounds`).
 *
 * The functions carry `target("aes,sse2")` attributes instead of
 * building the whole file with -maes, so the library never executes an
 * AES instruction on a CPU that lacks it — dispatch is purely runtime.
 */

#include "crypto/crypto_engine.hh"

#if defined(__x86_64__) && defined(TCORAM_ENABLE_AESNI) && \
    (defined(__GNUC__) || defined(__clang__))
#define TCORAM_HAVE_AESNI 1
#include <immintrin.h>
#else
#define TCORAM_HAVE_AESNI 0
#endif

namespace tcoram::crypto {

#if TCORAM_HAVE_AESNI

namespace {

/** The AES-128 rounds on 8 independent blocks, interleaved so each
 *  aesenc's latency hides behind the other seven. */
__attribute__((target("aes,sse2"), always_inline)) inline void
aesRounds(__m128i (&b)[8], const __m128i (&k)[11])
{
    for (int i = 0; i < 8; ++i)
        b[i] = _mm_xor_si128(b[i], k[0]);
    for (int r = 1; r <= 9; ++r)
        for (int i = 0; i < 8; ++i)
            b[i] = _mm_aesenc_si128(b[i], k[r]);
    for (int i = 0; i < 8; ++i)
        b[i] = _mm_aesenclast_si128(b[i], k[10]);
}

/** The same rounds on one block. */
__attribute__((target("aes,sse2"), always_inline)) inline __m128i
aesRounds(__m128i b, const __m128i (&k)[11])
{
    b = _mm_xor_si128(b, k[0]);
    for (int r = 1; r <= 9; ++r)
        b = _mm_aesenc_si128(b, k[r]);
    return _mm_aesenclast_si128(b, k[10]);
}

class AesNiEngine final : public CryptoEngineIf
{
  public:
    explicit AesNiEngine(const Aes128 &aes)
    {
        // Serialize the expanded schedule (big-endian words) into the
        // byte order AES-NI consumes: round key r is words 4r..4r+3 in
        // memory order.
        const auto &words = aes.roundKeys();
        for (std::size_t r = 0; r < Aes128::kNumRoundKeys; ++r) {
            for (int c = 0; c < 4; ++c) {
                const std::uint32_t w = words[4 * r + c];
                rk_[r][4 * c + 0] = static_cast<std::uint8_t>(w >> 24);
                rk_[r][4 * c + 1] = static_cast<std::uint8_t>(w >> 16);
                rk_[r][4 * c + 2] = static_cast<std::uint8_t>(w >> 8);
                rk_[r][4 * c + 3] = static_cast<std::uint8_t>(w);
            }
        }
    }

    const char *name() const override { return "aesni"; }

    __attribute__((target("aes,sse2"))) void
    encryptBlocks(std::span<Block128> blocks) const override
    {
        __m128i k[11];
        loadRoundKeys(k);
        std::uint8_t *p = blocks.empty() ? nullptr : blocks[0].data();
        std::size_t n = blocks.size();

        // 8-block pipelined main loop.
        for (; n >= 8; p += 128, n -= 8) {
            __m128i b[8];
            for (int i = 0; i < 8; ++i)
                b[i] = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(p + 16 * i));
            aesRounds(b, k);
            for (int i = 0; i < 8; ++i)
                _mm_storeu_si128(reinterpret_cast<__m128i *>(p + 16 * i),
                                 b[i]);
        }
        for (; n > 0; p += 16, --n) {
            const __m128i b = aesRounds(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)), k);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(p), b);
        }
    }

    __attribute__((target("aes,sse2"))) void
    ctrXor(std::uint64_t nonce, std::span<const std::uint8_t> in,
           std::span<std::uint8_t> out) const override
    {
        __m128i k[11];
        loadRoundKeys(k);
        const std::uint8_t *src = in.data();
        std::uint8_t *dst = out.data();
        std::size_t n = in.size();
        // Counter block j = (LE nonce || LE j); adding `one` steps the
        // high (index) lane only.
        __m128i ctr = _mm_set_epi64x(0, static_cast<long long>(nonce));
        const __m128i one = _mm_set_epi64x(1, 0);

        // 8 blocks in flight; in may alias out exactly, and each block
        // is loaded before its own store.
        for (; n >= 128; src += 128, dst += 128, n -= 128) {
            __m128i b[8];
            for (int i = 0; i < 8; ++i) {
                b[i] = ctr;
                ctr = _mm_add_epi64(ctr, one);
            }
            aesRounds(b, k);
            for (int i = 0; i < 8; ++i) {
                const __m128i x = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(src + 16 * i));
                _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + 16 * i),
                                 _mm_xor_si128(b[i], x));
            }
        }
        for (; n >= 16; src += 16, dst += 16, n -= 16) {
            const __m128i x =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(src));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst),
                             _mm_xor_si128(aesRounds(ctr, k), x));
            ctr = _mm_add_epi64(ctr, one);
        }
        if (n > 0) {
            alignas(16) std::uint8_t ks[16];
            _mm_store_si128(reinterpret_cast<__m128i *>(ks),
                            aesRounds(ctr, k));
            for (std::size_t i = 0; i < n; ++i)
                dst[i] = static_cast<std::uint8_t>(src[i] ^ ks[i]);
        }
    }

  private:
    __attribute__((target("aes,sse2"), always_inline)) void
    loadRoundKeys(__m128i (&k)[11]) const
    {
        for (int r = 0; r < 11; ++r)
            k[r] = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rk_[r].data()));
    }

    alignas(16) std::array<std::array<std::uint8_t, 16>, 11> rk_;
};

} // namespace

bool
aesniCompiledAndSupported()
{
    return __builtin_cpu_supports("aes") != 0;
}

std::unique_ptr<CryptoEngineIf>
makeAesNiEngine(const Aes128 &aes)
{
    if (!aesniCompiledAndSupported())
        return nullptr;
    return std::make_unique<AesNiEngine>(aes);
}

#else // !TCORAM_HAVE_AESNI

bool
aesniCompiledAndSupported()
{
    return false;
}

std::unique_ptr<CryptoEngineIf>
makeAesNiEngine(const Aes128 &)
{
    return nullptr;
}

#endif // TCORAM_HAVE_AESNI

} // namespace tcoram::crypto
