/**
 * @file
 * Two-level inclusive cache hierarchy (Table 1): 32 KB L1I + 32 KB
 * L1D over a unified, inclusive L2 (the LLC, 1 MB default). Produces
 * on-chip latency plus LLC-miss/writeback events that the processor
 * model forwards to main memory or the ORAM controller, and the event
 * counts the power model charges energy for.
 */

#ifndef TCORAM_CACHE_HIERARCHY_HH
#define TCORAM_CACHE_HIERARCHY_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "cache/cache.hh"
#include "cache/write_buffer.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace tcoram::cache {

/** Kind of access entering the hierarchy. */
enum class AccessKind
{
    InstFetch,
    Load,
    Store,
};

/**
 * The dirty LLC victims of one access, held inline: an access writes
 * back at most two lines (the L1 victim's drain and the demand fill
 * can each evict one from the LLC).
 */
class WritebackList
{
  public:
    void push_back(Addr addr)
    {
        tcoram_dassert(size_ < addrs_.size(), "more than two writebacks");
        addrs_[size_++] = addr;
    }
    const Addr *begin() const { return addrs_.data(); }
    const Addr *end() const { return addrs_.data() + size_; }
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    Addr operator[](std::size_t i) const { return addrs_[i]; }

  private:
    std::array<Addr, 2> addrs_{};
    std::size_t size_ = 0;
};

/** Outcome of one access walked through L1 and L2. */
struct HierarchyResult
{
    /** On-chip latency, excluding any main-memory fill. */
    Cycles latency = 0;
    /** The LLC missed: a line must be fetched from main memory. */
    bool llcMiss = false;
    /** Missing line address (valid iff llcMiss). */
    Addr missAddr = 0;
    /** Dirty LLC victims that must be written back to main memory. */
    WritebackList memWritebacks;
};

/** Per-component access counters consumed by the power model. */
struct HierarchyEvents
{
    std::uint64_t l1iHits = 0;
    std::uint64_t l1iRefills = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dRefills = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Refills = 0;

    bool operator==(const HierarchyEvents &) const = default;
};

/**
 * The hierarchy is a value: a copy continues exactly as the original
 * would, which is what lets the experiment engine warm it once and
 * start several cells from that state (sim/experiment_engine.hh).
 */
class Hierarchy
{
  public:
    /**
     * @param llc_bytes LLC capacity (paper sweeps 512 KB - 4 MB,
     *        reports 1 MB)
     */
    explicit Hierarchy(std::uint64_t llc_bytes = 1024 * 1024);

    /** Walk one access through the hierarchy. */
    HierarchyResult access(Addr addr, AccessKind kind);

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    WriteBuffer &writeBuffer() { return wb_; }
    const WriteBuffer &writeBuffer() const { return wb_; }
    const HierarchyEvents &events() const { return events_; }

    /** LLC misses observed so far (equals ORAM request count). */
    std::uint64_t llcMisses() const { return llcMisses_; }

    /** Same cache contents, write buffer and counters. */
    bool operator==(const Hierarchy &) const = default;

  private:
    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    WriteBuffer wb_;
    HierarchyEvents events_;
    std::uint64_t llcMisses_ = 0;
};

} // namespace tcoram::cache

#endif // TCORAM_CACHE_HIERARCHY_HH
