/**
 * @file
 * Bucket (de)serialization, split out of the bucket/path-ORAM classes
 * so the wire layout lives in exactly one place and both directions
 * can run over caller-owned buffers. The layout is fixed-size: Z
 * repetitions of [8 B id | 8 B leaf | blockBytes payload], dummies
 * included, so every sealed bucket is indistinguishable by length.
 *
 * The ORAM datapath works slot by slot straight on the serialized
 * path arena (readSlot()/writeSlot()/writeDummyHeaders()), so a block moves
 * between the arena and the stash with one payload copy. The whole-
 * Bucket encode()/decode() pair is the reference form the allocating
 * Bucket helpers and the tests use.
 */

#ifndef TCORAM_ORAM_BUCKET_CODEC_HH
#define TCORAM_ORAM_BUCKET_CODEC_HH

#include <cstdint>
#include <cstring>
#include <span>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace tcoram::oram {

class Bucket;

class BucketCodec
{
  public:
    /** Per-slot header: 8-byte id + 8-byte leaf, little-endian. */
    static constexpr std::uint64_t kHeaderBytes = 16;

    /** One serialized slot, its payload viewed in place. */
    struct SlotView
    {
        BlockId id;
        Leaf leaf;
        std::span<const std::uint8_t> payload;

        bool isDummy() const { return id == kInvalidId; }
    };

    BucketCodec(unsigned z, std::uint64_t block_bytes);

    unsigned z() const { return z_; }
    std::uint64_t blockBytes() const { return blockBytes_; }

    /** Serialized size of one slot (header + payload). */
    std::uint64_t slotBytes() const { return kHeaderBytes + blockBytes_; }

    /** Fixed serialized size of one bucket. */
    std::uint64_t serializedBytes() const { return z_ * slotBytes(); }

    /** Serialized size of a whole path of @p levels buckets, level i
     *  at byte offset i * serializedBytes(). */
    std::uint64_t
    pathBytes(unsigned levels) const
    {
        return levels * serializedBytes();
    }

    /** Decode slot @p i of the serialized bucket @p bucket without
     *  copying its payload. */
    SlotView
    readSlot(std::span<const std::uint8_t> bucket, unsigned i) const
    {
        const std::uint8_t *p = bucket.data() + i * slotBytes();
        return {load64le(p), load64le(p + 8),
                {p + kHeaderBytes, blockBytes_}};
    }

    /** Serialize one block (exactly blockBytes of @p payload) into
     *  slot @p i of the bucket @p bucket. */
    void
    writeSlot(std::span<std::uint8_t> bucket, unsigned i, BlockId id,
              Leaf leaf, std::span<const std::uint8_t> payload) const
    {
        std::uint8_t *p = bucket.data() + i * slotBytes();
        store64le(p, id);
        store64le(p + 8, leaf);
        std::memcpy(p + kHeaderBytes, payload.data(), blockBytes_);
    }

    /** Mark slots [@p from, Z) of @p bucket as dummies: id kInvalidId
     *  and leaf 0. The payload bytes are left alone; a dummy's payload
     *  is all-zero, so the caller zeroes the bucket first. */
    void writeDummyHeaders(std::span<std::uint8_t> bucket,
                           unsigned from) const;

    /**
     * Serialize @p bucket into @p out (exactly serializedBytes()).
     * Performs no heap allocation.
     */
    void encode(const Bucket &bucket, std::span<std::uint8_t> out) const;

    /**
     * Rebuild @p bucket from @p in (exactly serializedBytes()),
     * reusing the bucket's existing slot storage: no heap allocation
     * once the bucket's payload buffers have their steady-state
     * capacity.
     */
    void decode(std::span<const std::uint8_t> in, Bucket &bucket) const;

  private:
    unsigned z_;
    std::uint64_t blockBytes_;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_BUCKET_CODEC_HH
