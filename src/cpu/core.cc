#include "cpu/core.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcoram::cpu {

Core::Core(cache::Hierarchy &hierarchy, MemorySystemIf &mem,
           workload::TraceSource &source, InstCount ipc_window)
    : hierarchy_(hierarchy),
      mem_(mem),
      source_(source),
      ipcWindow_(ipc_window)
{
    tcoram_assert(ipc_window > 0, "ipc window must be positive");
}

void
Core::drainWriteBuffer(Cycles upto)
{
    auto &wb = hierarchy_.writeBuffer();
    while (!pendingWrites_.empty() && pendingWrites_.front() <= upto) {
        pendingWrites_.pop_front();
        wb.pop();
    }
}

void
Core::issueAsync(Addr line_addr)
{
    auto &wb = hierarchy_.writeBuffer();
    if (!wb.canAccept()) {
        // Structural stall: wait for the oldest write to complete.
        wb.noteFullStall();
        ++stats_.writeBufferStalls;
        tcoram_assert(!pendingWrites_.empty(), "full buffer with no writes");
        cycle_ = std::max(cycle_, pendingWrites_.front());
        drainWriteBuffer(cycle_);
    }
    const Cycles done = mem_.serveAsync(cycle_, line_addr);
    wb.push(line_addr);
    pendingWrites_.push_back(done);
    ++stats_.asyncMisses;
}

void
Core::noteRetired(InstCount insts)
{
    stats_.instructions += insts;
    instsInWindow_ += insts;
    while (instsInWindow_ >= ipcWindow_) {
        // Close a window at the current cycle; attribute all cycles
        // since the window opened (coarse but faithful at 10^6 grain).
        const Cycles span = cycle_ > windowStartCycle_
                                ? cycle_ - windowStartCycle_
                                : 1;
        ipcValues_.push_back(static_cast<double>(ipcWindow_) /
                             static_cast<double>(span));
        const std::uint64_t misses = stats_.demandMisses + stats_.asyncMisses;
        missValues_.push_back(misses - missesAtWindowStart_);
        missesAtWindowStart_ = misses;
        instsInWindow_ -= ipcWindow_;
        windowStartCycle_ = cycle_;
    }
}

namespace {

cache::AccessKind
accessKind(workload::OpKind kind)
{
    switch (kind) {
      case workload::OpKind::InstFetch:
        return cache::AccessKind::InstFetch;
      case workload::OpKind::Load:
        return cache::AccessKind::Load;
      default:
        return cache::AccessKind::Store;
    }
}

} // namespace

void
fastForward(cache::Hierarchy &hierarchy, workload::SyntheticTrace &source,
            InstCount insts)
{
    InstCount retired = 0;
    std::uint64_t writes = 0;
    while (retired < insts) {
        const workload::TraceOp op = source.next();
        if (op.gapInsts >= insts - retired)
            break;
        retired += op.gapInsts + 1;
        const cache::AccessKind kind = accessKind(op.kind);
        const cache::HierarchyResult res = hierarchy.access(op.addr, kind);
        writes += res.memWritebacks.size();
        if (res.llcMiss && kind == cache::AccessKind::Store)
            ++writes;
    }
    hierarchy.writeBuffer().notePassedThrough(writes);
}

CoreStats
Core::run(InstCount max_insts)
{
    while (stats_.instructions < max_insts) {
        const workload::TraceOp op = source_.next();

        // Retire the gap instructions (1 cycle each + extra stalls),
        // clamped so the run ends at exactly max_insts.
        const InstCount remaining = max_insts - stats_.instructions;
        if (op.gapInsts >= remaining) {
            cycle_ += remaining;
            noteRetired(remaining);
            break;
        }
        cycle_ += op.gapInsts + op.extraGapCycles;
        noteRetired(op.gapInsts);
        drainWriteBuffer(cycle_);

        // The memory operation itself retires one instruction.
        using cache::AccessKind;
        const AccessKind kind = accessKind(op.kind);
        switch (kind) {
          case AccessKind::InstFetch:
            ++stats_.fetches;
            break;
          case AccessKind::Load:
            ++stats_.loads;
            break;
          case AccessKind::Store:
            ++stats_.stores;
            break;
        }

        const cache::HierarchyResult res = hierarchy_.access(op.addr, kind);
        cycle_ += res.latency;

        // Dirty LLC victims drain asynchronously through the buffer.
        for (Addr wb_addr : res.memWritebacks)
            issueAsync(wb_addr);

        if (res.llcMiss) {
            if (kind == AccessKind::Store) {
                // Store miss: write-allocate through the write buffer;
                // the core does not wait for the fill.
                issueAsync(res.missAddr);
            } else {
                // Demand miss: the core blocks until the line returns.
                ++stats_.demandMisses;
                const Cycles done = mem_.serveMiss(cycle_, res.missAddr);
                cycle_ = std::max(cycle_, done);
            }
        }

        noteRetired(1);
        drainWriteBuffer(cycle_);
    }

    // Let outstanding writes land.
    if (!pendingWrites_.empty()) {
        cycle_ = std::max(cycle_, pendingWrites_.back());
        drainWriteBuffer(cycle_);
    }

    stats_.cycles = cycle_;
    return stats_;
}

} // namespace tcoram::cpu
