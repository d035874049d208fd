#include "crypto/ctr.hh"

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram::crypto {

void
CtrCipher::xcrypt(std::uint64_t nonce, std::span<const std::uint8_t> in,
                  std::span<std::uint8_t> out) const
{
    const CtrSegment seg{nonce, in, out};
    xcryptSegments({&seg, 1});
}

void
CtrCipher::xcryptSegments(std::span<const CtrSegment> segments) const
{
    for (const auto &seg : segments) {
        tcoram_assert(seg.in.size() == seg.out.size(),
                      "xcrypt spans must have equal length");
        engine_->ctrXor(seg.nonce, seg.in, seg.out);
    }
}

void
CtrCipher::encryptInto(std::span<const std::uint8_t> plain,
                       std::uint64_t nonce, Ciphertext &out) const
{
    out.nonce = nonce;
    out.data.resize(plain.size());
    xcrypt(nonce, plain, out.data);
}

void
CtrCipher::decryptInto(const CiphertextView &cipher,
                       std::span<std::uint8_t> out) const
{
    // CTR decryption is encryption with the same nonce.
    xcrypt(cipher.nonce, cipher.data, out);
}

Ciphertext
CtrCipher::encrypt(const std::vector<std::uint8_t> &plain,
                   std::uint64_t nonce) const
{
    Ciphertext out;
    encryptInto(plain, nonce, out);
    return out;
}

std::vector<std::uint8_t>
CtrCipher::decrypt(const CiphertextView &cipher) const
{
    std::vector<std::uint8_t> plain(cipher.data.size());
    decryptInto(cipher, plain);
    return plain;
}

std::uint64_t
CtrCipher::chunksFor(std::uint64_t nbytes)
{
    return divCeil(nbytes, 16);
}

} // namespace tcoram::crypto
