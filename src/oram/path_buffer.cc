#include "oram/path_buffer.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace tcoram::oram {

PathBuffer::PathBuffer(unsigned z, std::uint64_t block_bytes,
                       unsigned levels, std::size_t stash_capacity)
    : codec(z, block_bytes), pathPlain(codec.pathBytes(levels))
{
    segments.reserve(levels);
    nonces.resize(levels);
    levelCount.resize(levels);
    levelCursor.resize(levels);
    slotLevel.reserve(stash_capacity);
    sortedSlots.reserve(stash_capacity);
    pending.reserve(stash_capacity);
    placed.reserve(stash_capacity);
    trace.reserve(levels);
}

void
PathBuffer::unpackInto(Stash &stash) const
{
    const std::uint64_t sb = codec.serializedBytes();
    const std::span<const std::uint8_t> path(pathPlain);
    for (unsigned l = 0; l < levels(); ++l) {
        const auto bucket = path.subspan(l * sb, sb);
        for (unsigned i = 0; i < codec.z(); ++i) {
            const BucketCodec::SlotView v = codec.readSlot(bucket, i);
            if (!v.isDummy())
                stash.insert(v.id, v.leaf, v.payload);
        }
    }
}

void
PathBuffer::evictFrom(Stash &stash, Leaf leaf)
{
    // Greedy write-back, deepest level first (standard Path ORAM
    // eviction): place each stash block in the deepest bucket on the
    // accessed path that is also on the block's own path.
    //
    // Each resident's deepest legal level — the common prefix of the
    // two leaf labels: depth minus the bit width of their XOR — is
    // computed once, then a stable counting sort buckets the sweep by
    // level: O(stash + levels) instead of a full stash rescan with a
    // per-slot bit walk at every level.
    const unsigned depth = levels() - 1;
    const auto active = stash.activeIndices();
    const std::size_t n = active.size();

    slotLevel.resize(n);
    std::fill(levelCount.begin(), levelCount.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t x = leaf ^ stash.poolSlot(active[i]).leaf;
        const auto width = static_cast<unsigned>(std::bit_width(x));
        tcoram_assert(width <= depth, "deepest legal level out of range");
        slotLevel[i] = depth - width;
        ++levelCount[depth - width];
    }

    // Counting-sort offsets, deepest level first; ties keep the
    // stash's deterministic visit order (stable).
    std::uint32_t acc = 0;
    for (unsigned l = levels(); l-- > 0;) {
        levelCursor[l] = acc;
        acc += levelCount[l];
    }
    sortedSlots.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        sortedSlots[levelCursor[slotLevel[i]]++] = active[i];

    // Deepest-first fill with an overflow carry: a block whose level-L
    // bucket is full stays eligible for every shallower level on the
    // path (its legality constraint is dl >= level). Within a bucket
    // the carried blocks come first, then the level's own residents,
    // then dummies. The arena is zeroed once up front, so a free slot
    // needs only its dummy header.
    std::fill(pathPlain.begin(), pathPlain.end(), std::uint8_t{0});
    pending.clear();
    placed.clear();
    const unsigned z = codec.z();
    std::size_t next = 0; // cursor into sortedSlots
    for (unsigned l = levels(); l-- > 0;) {
        const std::span<std::uint8_t> bucket = levelBytes(l);
        unsigned used = 0;
        auto place = [&](std::uint32_t idx) {
            const BlockSlot &s = stash.poolSlot(idx);
            tcoram_assert(s.payload.size() == codec.blockBytes(),
                          "stash payload size mismatch");
            codec.writeSlot(bucket, used++, s.id, s.leaf, s.payload);
            placed.push_back(idx);
        };
        std::size_t keep = 0;
        for (const std::uint32_t idx : pending) {
            if (used < z)
                place(idx);
            else
                pending[keep++] = idx;
        }
        pending.resize(keep);
        const std::size_t end = next + levelCount[l];
        for (; next < end; ++next) {
            const std::uint32_t idx = sortedSlots[next];
            if (used < z)
                place(idx);
            else
                pending.push_back(idx);
        }
        codec.writeDummyHeaders(bucket, used);
    }
    stash.releaseMany(placed);
}

} // namespace tcoram::oram
