/**
 * @file
 * Position map interfaces. Path ORAM's invariant needs a map from
 * block id to leaf label. A FlatPositionMap models an on-chip map; the
 * ORAM-backed map (in path_oram.hh, since it composes a PathOram)
 * implements the paper's 3-level recursion where the map itself lives
 * in smaller ORAMs of 32 B blocks.
 */

#ifndef TCORAM_ORAM_POSITION_MAP_HH
#define TCORAM_ORAM_POSITION_MAP_HH

#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "common/types.hh"

namespace tcoram::oram {

class PositionMapIf
{
  public:
    virtual ~PositionMapIf() = default;

    /** Current leaf of @p id. */
    virtual Leaf get(BlockId id) = 0;

    /**
     * Fused remap: store @p leaf for @p id and return the label it
     * replaces — the one operation a Path ORAM access actually needs.
     * For an ORAM-backed map this is the whole point: one
     * read-patch-write path access per recursion stage instead of a
     * get's access followed by a set's read and write-back.
     */
    virtual Leaf update(BlockId id, Leaf leaf) = 0;

    /** Number of mapped blocks. */
    virtual std::uint64_t size() const = 0;
};

/** Dense in-memory (on-chip) position map. */
class FlatPositionMap : public PositionMapIf
{
  public:
    /**
     * @param num_blocks number of block ids
     * @param init_leaf  initial leaf for every block (caller usually
     *                   re-randomizes at ORAM initialization)
     */
    explicit FlatPositionMap(std::uint64_t num_blocks, Leaf init_leaf = 0);

    Leaf get(BlockId id) override;
    Leaf update(BlockId id, Leaf leaf) override;
    /** Remap @p id to @p leaf (initialization and tests). */
    void set(BlockId id, Leaf leaf);
    std::uint64_t size() const override { return map_.size(); }

    /** Checkpoint support. */
    void
    saveState(ByteWriter &w) const
    {
        w.u64(map_.size());
        for (const Leaf leaf : map_)
            w.u64(leaf);
    }

    void
    restoreState(ByteReader &r)
    {
        map_.resize(r.u64());
        for (Leaf &leaf : map_)
            leaf = r.u64();
    }

  private:
    std::vector<Leaf> map_;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_POSITION_MAP_HH
