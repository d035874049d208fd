/**
 * @file
 * Path ORAM stash: the small on-chip memory that transiently holds
 * blocks between path read and path write-back ([26] sizes it around
 * 128 KB / ~200 blocks). Overflow is a fatal condition that the
 * property tests probe for.
 *
 * Storage is a fixed slot pool allocated once at construction (part of
 * the ORAM's PathBuffer arena discipline): put/find/erase and the
 * eviction sweep perform zero heap allocations in steady state. With a
 * few hundred resident blocks a linear index scan is faster than any
 * node-based map and keeps the structure allocation-free.
 */

#ifndef TCORAM_ORAM_STASH_HH
#define TCORAM_ORAM_STASH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/serial.hh"
#include "common/types.hh"
#include "oram/bucket.hh"

namespace tcoram::oram {

class Stash
{
  public:
    /**
     * @param capacity maximum resident blocks (overflow is fatal)
     * @param block_bytes_hint when nonzero, every pooled slot's payload
     *        buffer is pre-reserved to this size so first-touch puts
     *        don't allocate either
     */
    explicit Stash(std::size_t capacity,
                   std::uint64_t block_bytes_hint = 0);

    /**
     * Add block @p id with @p leaf and a copy of @p payload, replacing
     * any prior copy with the same id. Allocation-free in steady state
     * (pooled payload buffers keep their capacity).
     */
    void put(BlockId id, Leaf leaf, std::span<const std::uint8_t> payload);

    /**
     * put() for a block known to be absent, without the duplicate
     * scan: a path read's blocks, which Path ORAM's invariant keeps
     * out of the stash (a block is in the stash or on its path, never
     * both). Debug builds check the absence.
     */
    void insert(BlockId id, Leaf leaf, std::span<const std::uint8_t> payload);

    /**
     * Insert a zero-filled block for @p id (must be absent) and return
     * the pooled slot for in-place initialization. Allocation-free in
     * steady state.
     */
    BlockSlot *emplaceFresh(BlockId id, Leaf leaf,
                            std::uint64_t block_bytes);

    /** Look up a block; nullptr if absent. */
    const BlockSlot *find(BlockId id) const;
    BlockSlot *find(BlockId id);

    /** Remove and return a block; caller asserts presence. */
    BlockSlot take(BlockId id);

    bool contains(BlockId id) const { return findIndex(id) != kNone; }
    std::size_t size() const { return active_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Largest occupancy ever observed (for the property tests). */
    std::size_t highWater() const { return highWater_; }

    /**
     * Pool indices of every resident block, in the stash's
     * deterministic visit order. Together with poolSlot() and
     * releaseMany() this is the eviction sweep's zero-copy view: the
     * ORAM computes each resident's deepest legal level once, buckets
     * the sweep by level, and releases the placed slots in bulk —
     * instead of rescanning the stash once per tree level.
     */
    std::span<const std::uint32_t>
    activeIndices() const
    {
        return active_;
    }

    /** The pooled slot at @p pool_index (from activeIndices()). */
    const BlockSlot &
    poolSlot(std::uint32_t pool_index) const
    {
        return pool_[pool_index];
    }

    /**
     * Release every slot in @p pool_indices back to the pool (they
     * must be resident and distinct). One stable compaction pass over
     * the active list; allocation-free.
     */
    void releaseMany(std::span<const std::uint32_t> pool_indices);

    /**
     * Checkpoint support: serialize the resident blocks in visit
     * order. restoreState() rebuilds residence in that order, so the
     * eviction sweep's deterministic visit order survives the round
     * trip (pool slot numbers need not — they are invisible handles).
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Index into active_ for @p id, or kNone. */
    std::size_t findIndex(BlockId id) const;

    /** Claim a free pooled slot (fatal on overflow). */
    BlockSlot &allocSlot(BlockId id);

    std::size_t capacity_;
    std::size_t highWater_ = 0;
    std::vector<BlockSlot> pool_;       ///< capacity_ slots, fixed
    std::vector<std::uint32_t> active_; ///< pool indices in residence
    std::vector<std::uint32_t> free_;   ///< pool indices available
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_STASH_HH
