/**
 * @file
 * Core model tests: instruction/cycle accounting, demand-miss
 * blocking, non-blocking store handling through the write buffer, IPC
 * window series, and the functional fast-forward.
 */

#include <gtest/gtest.h>

#include "../bench/bench_common.hh"
#include "common/rng.hh"
#include "cpu/core.hh"

namespace tcoram::cpu {
namespace {

/** Scripted trace source. */
class ScriptedTrace : public workload::TraceSource
{
  public:
    explicit ScriptedTrace(std::vector<workload::TraceOp> ops)
        : ops_(std::move(ops))
    {
    }

    workload::TraceOp
    next() override
    {
        if (idx_ < ops_.size())
            return ops_[idx_++];
        // Repeat the last op forever.
        return ops_.back();
    }

    const std::string &name() const override { return name_; }

  private:
    std::vector<workload::TraceOp> ops_;
    std::size_t idx_ = 0;
    std::string name_ = "scripted";
};

/** Fixed-latency memory that records arrivals. */
class FixedMem : public MemorySystemIf
{
  public:
    explicit FixedMem(Cycles lat) : lat_(lat) {}

    Cycles
    serveMiss(Cycles now, Addr addr) override
    {
        missArrivals_.push_back({now, addr});
        return now + lat_;
    }

    Cycles
    serveAsync(Cycles now, Addr addr) override
    {
        asyncArrivals_.push_back({now, addr});
        return now + lat_;
    }

    std::vector<std::pair<Cycles, Addr>> missArrivals_;
    std::vector<std::pair<Cycles, Addr>> asyncArrivals_;

  private:
    Cycles lat_;
};

workload::TraceOp
loadOp(Addr addr, std::uint32_t gap = 10)
{
    workload::TraceOp op;
    op.gapInsts = gap;
    op.addr = addr;
    op.kind = workload::OpKind::Load;
    return op;
}

TEST(Core, HitsDontTouchMemory)
{
    cache::Hierarchy h(1 << 20);
    FixedMem mem(1000);
    // Two ops on the same line: one cold miss then a hit.
    ScriptedTrace trace({loadOp(0x1000), loadOp(0x1000)});
    Core core(h, mem, trace);
    core.run(22);
    EXPECT_EQ(mem.missArrivals_.size(), 1u);
}

TEST(Core, DemandMissBlocksCore)
{
    cache::Hierarchy h(1 << 20);
    FixedMem mem(1000);
    ScriptedTrace trace({loadOp(0x1000, 0), loadOp(0x2000, 0)});
    Core core(h, mem, trace);
    const CoreStats s = core.run(2);
    // Two serialized 1000-cycle misses dominate the runtime.
    EXPECT_GE(s.cycles, 2000u);
    EXPECT_EQ(s.demandMisses, 2u);
}

TEST(Core, StoresDontBlock)
{
    cache::Hierarchy h(1 << 20);
    FixedMem mem(10000);
    std::vector<workload::TraceOp> ops;
    for (int i = 0; i < 4; ++i) {
        workload::TraceOp op;
        op.gapInsts = 1;
        op.addr = 0x10000 + 64 * i;
        op.kind = workload::OpKind::Store;
        ops.push_back(op);
    }
    ScriptedTrace trace(ops);
    Core core(h, mem, trace);
    const CoreStats s = core.run(8);
    // 4 store misses of 10,000 cycles each, but the core never blocks
    // (buffer capacity 8): runtime is one overlapping drain (~10k),
    // far below the 40,000 cycles serialized stores would take.
    EXPECT_LT(s.cycles, 15000u);
    EXPECT_EQ(s.asyncMisses, 4u);
    EXPECT_EQ(s.writeBufferStalls, 0u);
}

TEST(Core, FullWriteBufferStalls)
{
    cache::Hierarchy h(1 << 20);
    FixedMem mem(100000);
    std::vector<workload::TraceOp> ops;
    for (int i = 0; i < 12; ++i) {
        workload::TraceOp op;
        op.gapInsts = 1;
        op.addr = 0x10000 + 64 * i;
        op.kind = workload::OpKind::Store;
        ops.push_back(op);
    }
    ScriptedTrace trace(ops);
    Core core(h, mem, trace);
    const CoreStats s = core.run(24);
    // 12 long-latency stores against an 8-entry buffer must stall.
    EXPECT_GT(s.writeBufferStalls, 0u);
}

TEST(Core, InstructionAccounting)
{
    cache::Hierarchy h(1 << 20);
    FixedMem mem(100);
    ScriptedTrace trace({loadOp(0, 9)});
    Core core(h, mem, trace);
    const CoreStats s = core.run(100);
    // Each record retires gap (9) + 1 instructions.
    EXPECT_EQ(s.instructions % 10, 0u);
    EXPECT_GE(s.instructions, 100u);
}

TEST(Core, ExtraGapCyclesLowerIpc)
{
    cache::Hierarchy h1(1 << 20), h2(1 << 20);
    FixedMem mem1(10), mem2(10);
    workload::TraceOp cheap = loadOp(0, 10);
    workload::TraceOp costly = loadOp(0, 10);
    costly.extraGapCycles = 40;
    ScriptedTrace t1({cheap}), t2({costly});
    Core c1(h1, mem1, t1), c2(h2, mem2, t2);
    const CoreStats s1 = c1.run(1000);
    const CoreStats s2 = c2.run(1000);
    EXPECT_GT(s1.ipc(), s2.ipc());
}

TEST(Core, IpcSeriesProduced)
{
    cache::Hierarchy h(1 << 20);
    FixedMem mem(10);
    ScriptedTrace trace({loadOp(0, 9)});
    Core core(h, mem, trace, 100); // 100-instruction windows
    core.run(1000);
    EXPECT_GE(core.ipcSeries().size(), 9u);
    for (double ipc : core.ipcSeries()) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LE(ipc, 1.0); // in-order single-issue bound
    }
}

TEST(Core, IpcBoundedByOne)
{
    cache::Hierarchy h(1 << 20);
    FixedMem mem(10);
    ScriptedTrace trace({loadOp(0, 50)});
    Core core(h, mem, trace);
    const CoreStats s = core.run(5000);
    EXPECT_LE(s.ipc(), 1.0);
    EXPECT_GT(s.ipc(), 0.5); // mostly 1-cycle instructions
}

/**
 * Misses complete the cycle they arrive. A Core over it is the
 * reference cpu::fastForward must reproduce.
 */
class ZeroLatencyMem : public MemorySystemIf
{
  public:
    Cycles serveMiss(Cycles now, Addr) override { return now; }
    Cycles serveAsync(Cycles now, Addr) override { return now; }
};

TEST(FastForward, MatchesTheThrowawayCore)
{
    const auto profiles = bench::suiteProfiles();
    ASSERT_EQ(profiles.size(), 11u);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        const std::uint64_t seed = mixSeed(0xf00d, i);
        for (const InstCount warmup :
             {InstCount{1}, InstCount{7}, InstCount{100'003},
              bench::kWarmup}) {
            const std::string what =
                profiles[i].name + " warm-up " + std::to_string(warmup);
            cache::Hierarchy core_h(1 << 20);
            workload::SyntheticTrace core_t(profiles[i], seed);
            ZeroLatencyMem zero;
            Core(core_h, zero, core_t, bench::kWindow).run(warmup);

            cache::Hierarchy ff_h(1 << 20);
            workload::SyntheticTrace ff_t(profiles[i], seed);
            fastForward(ff_h, ff_t, warmup);

            EXPECT_TRUE(ff_h == core_h) << what;
            EXPECT_TRUE(ff_h.events() == core_h.events()) << what;
            EXPECT_EQ(ff_h.llcMisses(), core_h.llcMisses()) << what;
            EXPECT_EQ(ff_h.writeBuffer().totalPushed(),
                      core_h.writeBuffer().totalPushed())
                << what;
            EXPECT_TRUE(ff_t == core_t) << what;
            std::size_t same = 0;
            while (same < 4096 && ff_t.next() == core_t.next())
                ++same;
            EXPECT_EQ(same, 4096u) << what << ": next ops diverge";
        }
    }
}

} // namespace
} // namespace tcoram::cpu
