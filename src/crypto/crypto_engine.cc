#include "crypto/crypto_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram::crypto {

namespace {
/** Counter blocks per encryptBlocks call in the portable ctrXor. */
constexpr std::size_t kCtrChunkBlocks = 32;
} // namespace

void
CryptoEngineIf::ctrXor(std::uint64_t nonce, std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) const
{
    Block128 ks[kCtrChunkBlocks];
    const std::size_t n = in.size();
    std::uint64_t block = 0;
    for (std::size_t off = 0; off < n;) {
        const std::size_t len = std::min(n - off, kCtrChunkBlocks * 16);
        const std::size_t nblocks = (len + 15) / 16;
        for (std::size_t j = 0; j < nblocks; ++j) {
            store64le(ks[j].data(), nonce);
            store64le(ks[j].data() + 8, block + j);
        }
        encryptBlocks({ks, nblocks});
        // XOR in 64-bit lanes with a byte-wise tail; memcpy keeps the
        // lane loads/stores alignment- and aliasing-safe.
        const std::uint8_t *k = ks[0].data();
        const std::uint8_t *src = in.data() + off;
        std::uint8_t *dst = out.data() + off;
        std::size_t i = 0;
        for (; i + 8 <= len; i += 8) {
            std::uint64_t a, b;
            std::memcpy(&a, src + i, 8);
            std::memcpy(&b, k + i, 8);
            a ^= b;
            std::memcpy(dst + i, &a, 8);
        }
        for (; i < len; ++i)
            dst[i] = static_cast<std::uint8_t>(src[i] ^ k[i]);
        off += len;
        block += nblocks;
    }
}

// Provided by crypto_engine_aesni.cc. Returns nullptr when hardware
// AES is compiled out or the CPU lacks it.
std::unique_ptr<CryptoEngineIf> makeAesNiEngine(const Aes128 &aes);
bool aesniCompiledAndSupported();

namespace {

/** Byte-wise reference rounds — the seed implementation, unchanged. */
class ScalarEngine final : public CryptoEngineIf
{
  public:
    explicit ScalarEngine(const Key128 &key) : aes_(key) {}

    const char *name() const override { return "scalar"; }

    void
    encryptBlocks(std::span<Block128> blocks) const override
    {
        for (auto &b : blocks)
            b = aes_.encryptBlockScalar(b);
    }

  private:
    Aes128 aes_;
};

/** Precomputed T-table rounds — the portable fast path. */
class TTableEngine final : public CryptoEngineIf
{
  public:
    explicit TTableEngine(const Key128 &key) : aes_(key) {}

    const char *name() const override { return "ttable"; }

    void
    encryptBlocks(std::span<Block128> blocks) const override
    {
        for (auto &b : blocks)
            b = aes_.encryptBlock(b);
    }

  private:
    Aes128 aes_;
};

/** Process-wide default override (CryptoBackend::Auto = unset). */
std::atomic<CryptoBackend> g_defaultBackend{CryptoBackend::Auto};

bool
envSet(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

} // namespace

bool
aesniAvailable()
{
    if (envSet("TCORAM_NO_AESNI"))
        return false;
    return aesniCompiledAndSupported();
}

CryptoBackend
defaultCryptoBackend()
{
    const CryptoBackend pinned =
        g_defaultBackend.load(std::memory_order_relaxed);
    if (pinned != CryptoBackend::Auto)
        return pinned;
    if (const char *env = std::getenv("TCORAM_CRYPTO_BACKEND");
        env != nullptr && env[0] != '\0') {
        const CryptoBackend b = parseCryptoBackend(env);
        if (b != CryptoBackend::Auto)
            return b;
    }
    return aesniAvailable() ? CryptoBackend::AesNi : CryptoBackend::TTable;
}

void
setDefaultCryptoBackend(CryptoBackend backend)
{
    g_defaultBackend.store(backend, std::memory_order_relaxed);
}

CryptoBackend
parseCryptoBackend(std::string_view name)
{
    if (name == "auto")
        return CryptoBackend::Auto;
    if (name == "scalar")
        return CryptoBackend::Scalar;
    if (name == "ttable")
        return CryptoBackend::TTable;
    if (name == "aesni")
        return CryptoBackend::AesNi;
    tcoram_fatal("unknown crypto backend '", std::string(name),
                 "' (expected auto|scalar|ttable|aesni)");
}

const char *
backendName(CryptoBackend backend)
{
    switch (backend) {
    case CryptoBackend::Auto:
        return "auto";
    case CryptoBackend::Scalar:
        return "scalar";
    case CryptoBackend::TTable:
        return "ttable";
    case CryptoBackend::AesNi:
        return "aesni";
    }
    return "auto";
}

std::unique_ptr<CryptoEngineIf>
makeCryptoEngine(const Key128 &key, CryptoBackend backend)
{
    if (backend == CryptoBackend::Auto)
        backend = defaultCryptoBackend();

    switch (backend) {
    case CryptoBackend::Scalar:
        return std::make_unique<ScalarEngine>(key);
    case CryptoBackend::TTable:
        return std::make_unique<TTableEngine>(key);
    case CryptoBackend::AesNi: {
        if (aesniAvailable()) {
            if (auto e = makeAesNiEngine(Aes128(key)))
                return e;
        }
        informImpl("crypto: AES-NI unavailable, falling back to ttable");
        return std::make_unique<TTableEngine>(key);
    }
    case CryptoBackend::Auto:
        break;
    }
    return std::make_unique<TTableEngine>(key);
}

} // namespace tcoram::crypto
