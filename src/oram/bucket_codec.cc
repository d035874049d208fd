#include "oram/bucket_codec.hh"

#include "common/log.hh"
#include "oram/bucket.hh"

namespace tcoram::oram {

BucketCodec::BucketCodec(unsigned z, std::uint64_t block_bytes)
    : z_(z), blockBytes_(block_bytes)
{
    tcoram_assert(z_ > 0, "bucket codec needs at least one slot");
}

void
BucketCodec::writeDummyHeaders(std::span<std::uint8_t> bucket,
                               unsigned from) const
{
    for (unsigned i = from; i < z_; ++i) {
        std::uint8_t *p = bucket.data() + i * slotBytes();
        store64le(p, kInvalidId);
        store64le(p + 8, 0);
    }
}

void
BucketCodec::encode(const Bucket &bucket, std::span<std::uint8_t> out) const
{
    tcoram_assert(bucket.slots().size() == z_, "bucket Z mismatch");
    tcoram_assert(out.size() == serializedBytes(),
                  "encode buffer size mismatch");
    for (unsigned i = 0; i < z_; ++i) {
        const BlockSlot &s = bucket.slots()[i];
        tcoram_assert(s.payload.size() == blockBytes_,
                      "slot payload size mismatch");
        writeSlot(out, i, s.id, s.leaf, s.payload);
    }
}

void
BucketCodec::decode(std::span<const std::uint8_t> in, Bucket &bucket) const
{
    tcoram_assert(bucket.slots().size() == z_, "bucket Z mismatch");
    tcoram_assert(in.size() == serializedBytes(),
                  "decode buffer size mismatch");
    for (unsigned i = 0; i < z_; ++i) {
        const SlotView v = readSlot(in, i);
        BlockSlot &s = bucket.slots()[i];
        s.id = v.id;
        s.leaf = v.leaf;
        s.payload.assign(v.payload.begin(), v.payload.end());
    }
}

} // namespace tcoram::oram
