/**
 * @file
 * Trace-driven in-order, single-issue core (paper Table 1). Consumes
 * a workload TraceSource, walks each access through the cache
 * hierarchy, and hands LLC misses to a MemorySystemIf (flat DRAM, raw
 * ORAM, or the rate-enforced ORAM). Loads block the core; stores and
 * dirty writebacks drain through the 8-entry non-blocking write
 * buffer, which is what creates multiple concurrently outstanding
 * ORAM requests (the paper's Req 3 case).
 */

#ifndef TCORAM_CPU_CORE_HH
#define TCORAM_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/types.hh"
#include "workload/generators.hh"

namespace tcoram::cpu {

/** What the core needs from the memory side. */
class MemorySystemIf
{
  public:
    virtual ~MemorySystemIf() = default;

    /**
     * Serve a demand (load/fetch) LLC miss arriving at @p now.
     * @return cycle the line is available.
     */
    virtual Cycles serveMiss(Cycles now, Addr line_addr) = 0;

    /**
     * Serve a non-blocking request (store miss fill or dirty
     * writeback) arriving at @p now. The core does not stall on the
     * returned completion unless the write buffer is full.
     */
    virtual Cycles serveAsync(Cycles now, Addr line_addr) = 0;
};

/** End-of-run statistics. */
struct CoreStats
{
    Cycles cycles = 0;
    InstCount instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t fetches = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t asyncMisses = 0;
    std::uint64_t writeBufferStalls = 0;
    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

class Core
{
  public:
    /**
     * @param hierarchy cache hierarchy (owned by the caller)
     * @param mem memory system handling LLC misses
     * @param source workload trace
     * @param ipc_window instructions per IPC sample (Figure 7 series)
     */
    Core(cache::Hierarchy &hierarchy, MemorySystemIf &mem,
         workload::TraceSource &source, InstCount ipc_window = 1'000'000);

    /**
     * Run for @p max_insts further instructions (relative to the last
     * reset); returns the stats accumulated since then.
     */
    CoreStats run(InstCount max_insts);

    const CoreStats &stats() const { return stats_; }
    /** IPC per closed instruction window (Figure 7 series). */
    const std::vector<double> &ipcSeries() const { return ipcValues_; }
    /** LLC misses per closed instruction window (Figure 2 series). */
    const std::vector<std::uint64_t> &missSeries() const
    {
        return missValues_;
    }
    InstCount ipcWindow() const { return ipcWindow_; }
    Cycles now() const { return cycle_; }

  private:
    /** Retire the outstanding writes whose completions have passed. */
    void drainWriteBuffer(Cycles upto);
    /** Issue an async (store/writeback) line request. */
    void issueAsync(Addr line_addr);
    /** Account retired instructions and close IPC windows. */
    void noteRetired(InstCount insts);

    cache::Hierarchy &hierarchy_;
    MemorySystemIf &mem_;
    workload::TraceSource &source_;
    Cycles cycle_ = 0;
    CoreStats stats_;
    InstCount ipcWindow_;
    std::vector<double> ipcValues_;
    std::vector<std::uint64_t> missValues_;
    InstCount instsInWindow_ = 0;
    Cycles windowStartCycle_ = 0;
    std::uint64_t missesAtWindowStart_ = 0;
    /** Completion cycles of in-flight buffered writes. */
    std::deque<Cycles> pendingWrites_;
};

/**
 * Functional fast-forward (§9.1.1): retire @p insts instructions of
 * @p source through @p hierarchy with main memory answering at once.
 * Leaves the hierarchy and the trace exactly as a Core over a memory
 * whose misses complete at the cycle they arrive would: the same
 * retire rule (an op whose gap reaches the budget is drawn, and the
 * run ends inside its gap), the same accesses, and every store miss
 * and dirty writeback counted in the write buffer's totalPushed()
 * without ever occupying it. Nothing cycle-related is computed.
 */
void fastForward(cache::Hierarchy &hierarchy, workload::SyntheticTrace &source,
                 InstCount insts);

} // namespace tcoram::cpu

#endif // TCORAM_CPU_CORE_HH
