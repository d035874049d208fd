#include "oram/stash.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcoram::oram {

Stash::Stash(std::size_t capacity, std::uint64_t block_bytes_hint)
    : capacity_(capacity)
{
    pool_.resize(capacity_);
    active_.reserve(capacity_);
    free_.reserve(capacity_);
    // Hand out low indices first so residence order is deterministic.
    for (std::size_t i = capacity_; i-- > 0;) {
        free_.push_back(static_cast<std::uint32_t>(i));
        if (block_bytes_hint > 0)
            pool_[i].payload.reserve(block_bytes_hint);
    }
}

std::size_t
Stash::findIndex(BlockId id) const
{
    for (std::size_t i = 0; i < active_.size(); ++i)
        if (pool_[active_[i]].id == id)
            return i;
    return kNone;
}

BlockSlot &
Stash::allocSlot(BlockId id)
{
    if (free_.empty()) {
        tcoram_fatal("stash overflow: ", active_.size() + 1, " > capacity ",
                     capacity_,
                     " (increase stashCapacity or check eviction logic)");
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    active_.push_back(idx);
    highWater_ = std::max(highWater_, active_.size());
    pool_[idx].id = id;
    return pool_[idx];
}

void
Stash::put(BlockId id, Leaf leaf, std::span<const std::uint8_t> payload)
{
    tcoram_assert(id != kInvalidId, "stash holds only real blocks");
    BlockSlot *s = find(id);
    if (s == nullptr)
        s = &allocSlot(id);
    s->leaf = leaf;
    s->payload.assign(payload.begin(), payload.end());
}

void
Stash::insert(BlockId id, Leaf leaf, std::span<const std::uint8_t> payload)
{
    tcoram_assert(id != kInvalidId, "stash holds only real blocks");
    tcoram_dassert(findIndex(id) == kNone, "insert of resident block ", id);
    BlockSlot &s = allocSlot(id);
    s.leaf = leaf;
    s.payload.assign(payload.begin(), payload.end());
}

BlockSlot *
Stash::emplaceFresh(BlockId id, Leaf leaf, std::uint64_t block_bytes)
{
    tcoram_assert(id != kInvalidId, "stash holds only real blocks");
    tcoram_assert(findIndex(id) == kNone, "emplaceFresh of resident block ",
                  id);
    BlockSlot &s = allocSlot(id);
    s.leaf = leaf;
    s.payload.assign(block_bytes, 0);
    return &s;
}

const BlockSlot *
Stash::find(BlockId id) const
{
    const std::size_t i = findIndex(id);
    return i == kNone ? nullptr : &pool_[active_[i]];
}

BlockSlot *
Stash::find(BlockId id)
{
    const std::size_t i = findIndex(id);
    return i == kNone ? nullptr : &pool_[active_[i]];
}

BlockSlot
Stash::take(BlockId id)
{
    const std::size_t i = findIndex(id);
    tcoram_assert(i != kNone, "take() of absent block ", id);
    BlockSlot out = pool_[active_[i]];
    free_.push_back(active_[i]);
    active_[i] = active_.back();
    active_.pop_back();
    return out;
}

void
Stash::releaseMany(std::span<const std::uint32_t> pool_indices)
{
    if (pool_indices.empty())
        return;
    for (const std::uint32_t idx : pool_indices) {
        tcoram_assert(pool_[idx].id != kInvalidId,
                      "releaseMany of non-resident slot");
        pool_[idx].id = kInvalidId; // tombstone for the compaction pass
        free_.push_back(idx);
    }
    std::size_t keep = 0;
    for (std::size_t i = 0; i < active_.size(); ++i)
        if (pool_[active_[i]].id != kInvalidId)
            active_[keep++] = active_[i];
    tcoram_assert(active_.size() - keep == pool_indices.size(),
                  "releaseMany index mismatch");
    active_.resize(keep);
}

void
Stash::saveState(ByteWriter &w) const
{
    w.u64(highWater_);
    w.u64(active_.size());
    for (const std::uint32_t idx : active_) {
        const BlockSlot &s = pool_[idx];
        w.u64(s.id);
        w.u64(s.leaf);
        w.blob(s.payload);
    }
}

void
Stash::restoreState(ByteReader &r)
{
    for (const std::uint32_t idx : active_) {
        pool_[idx].id = kInvalidId;
        free_.push_back(idx);
    }
    active_.clear();
    const std::uint64_t high_water = r.u64();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const BlockId id = r.u64();
        const Leaf leaf = r.u64();
        BlockSlot &s = allocSlot(id);
        s.leaf = leaf;
        s.payload = r.blob();
    }
    highWater_ = high_water;
}

} // namespace tcoram::oram
