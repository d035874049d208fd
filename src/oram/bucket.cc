#include "oram/bucket.hh"

#include "common/log.hh"
#include "oram/bucket_codec.hh"

namespace tcoram::oram {

Bucket::Bucket(unsigned z, std::uint64_t block_bytes)
    : blockBytes_(block_bytes)
{
    tcoram_assert(z > 0, "bucket needs at least one slot");
    slots_.resize(z);
    for (auto &s : slots_)
        s.payload.assign(blockBytes_, 0);
}

unsigned
Bucket::occupancy() const
{
    unsigned n = 0;
    for (const auto &s : slots_)
        if (!s.isDummy())
            ++n;
    return n;
}

bool
Bucket::insert(const BlockSlot &slot)
{
    tcoram_assert(!slot.isDummy(), "inserting a dummy");
    tcoram_assert(slot.payload.size() == blockBytes_, "payload size mismatch");
    for (auto &s : slots_) {
        if (s.isDummy()) {
            s = slot;
            return true;
        }
    }
    return false;
}

void
Bucket::clear()
{
    for (auto &s : slots_) {
        s.id = kInvalidId;
        s.leaf = 0;
        s.payload.assign(blockBytes_, 0);
    }
}

std::uint64_t
Bucket::serializedBytes() const
{
    return slots_.size() * (BucketCodec::kHeaderBytes + blockBytes_);
}

std::vector<std::uint8_t>
Bucket::serialize() const
{
    const BucketCodec codec(static_cast<unsigned>(slots_.size()),
                            blockBytes_);
    std::vector<std::uint8_t> out(codec.serializedBytes());
    codec.encode(*this, out);
    return out;
}

Bucket
Bucket::deserialize(const std::vector<std::uint8_t> &bytes, unsigned z,
                    std::uint64_t block_bytes)
{
    Bucket b(z, block_bytes);
    const BucketCodec codec(z, block_bytes);
    codec.decode(bytes, b);
    return b;
}

crypto::Ciphertext
Bucket::seal(const crypto::CtrCipher &cipher, std::uint64_t nonce) const
{
    return cipher.encrypt(serialize(), nonce);
}

Bucket
Bucket::unseal(const crypto::CiphertextView &ct,
               const crypto::CtrCipher &cipher,
               unsigned z, std::uint64_t block_bytes)
{
    return deserialize(cipher.decrypt(ct), z, block_bytes);
}

} // namespace tcoram::oram
