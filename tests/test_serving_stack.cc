/**
 * @file
 * ServingStack, the one construction of a single-rate ring-scheduler
 * run: its public slot period is the gap the recorded shard streams
 * actually show, in both path modes and whether the rate or the
 * pipelined write-back tail binds; an eviction-on shard below
 * occupancy shows two phases before it settles on that period; and the
 * exact-periodicity check names the first off-period gap.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/serving_stack.hh"

using namespace tcoram;

TEST(ServingStack, ShardPeriodIsTheRecordedGap)
{
    // Rate 64 sits below every pipelined shard's occupancy (the
    // write-back tail binds the slot); rate 1000 sits above it.
    for (const auto mode : {oram::PathMode::Sync, oram::PathMode::Pipelined})
        for (const Cycles rate : {Cycles{64}, Cycles{1000}}) {
            sim::ServingStack::Config cfg;
            cfg.inner.pathMode = mode;
            cfg.shards = 2;
            cfg.rate = rate;
            cfg.opts.ringCapacity = 256;
            sim::ServingStack stack(cfg);
            sim::RingScheduler &sched = stack.scheduler();
            sched.openSession(0x5eed);
            for (std::uint64_t k = 0; k < 200; ++k)
                ASSERT_TRUE(sched.trySubmit(
                    0, k, timing::OramTransaction::real(k * 7919ull)));
            stack.drainAfter(sched.runUntilIdle());

            for (std::uint32_t i = 0; i < cfg.shards; ++i) {
                const std::vector<Cycles> starts = stack.shardStarts(i);
                ASSERT_GE(starts.size(), 10u);
                for (std::size_t j = 1; j < starts.size(); ++j)
                    ASSERT_EQ(starts[j] - starts[j - 1],
                              stack.shardPeriod(i))
                        << (mode == oram::PathMode::Sync ? "sync"
                                                         : "pipelined")
                        << ", rate " << rate << ", shard " << i << ", gap "
                        << j;
                EXPECT_FALSE(stack.shardOffPeriodGap(i).has_value());
            }
        }
}

TEST(ServingStack, EvictionOnShardBelowOccupancyDefersThenSettles)
{
    // A pipelined shard with the eviction engine on, rate below
    // occupancy, and a backlog far deeper than the budget. While
    // deferral budget remains, each access defers its write-back tail
    // and the next slot opens rate cycles after its data is ready
    // (gap rate + OLAT). An eviction lasts a full occupancy and never
    // fits a rate-cycle idle window, so once `budget` tails are
    // deferred every later access pays full occupancy (gap occupancy)
    // for the rest of the stream. shardPeriod() reports only the
    // second phase.
    constexpr std::uint32_t kBudget = 16;
    sim::ServingStack::Config cfg;
    cfg.inner.pathMode = oram::PathMode::Pipelined;
    cfg.inner.evictionPolicy = oram::EvictionPolicy::Gap;
    cfg.inner.evictionBudget = kBudget;
    cfg.shards = 1;
    cfg.rate = 64;
    cfg.opts.ringCapacity = 256;
    sim::ServingStack stack(cfg);
    sim::RingScheduler &sched = stack.scheduler();
    sched.openSession(0x5eed);
    for (std::uint64_t k = 0; k < 200; ++k)
        ASSERT_TRUE(sched.trySubmit(
            0, k, timing::OramTransaction::real(k * 7919ull)));
    stack.drainAfter(sched.runUntilIdle());

    const timing::OramDeviceIf &dev = stack.device().shard(0);
    const Cycles deferring = cfg.rate + dev.accessLatency();
    const Cycles settled = dev.occupancyPerAccess();
    ASSERT_LT(deferring, settled) << "the rate must sit below occupancy";
    EXPECT_EQ(stack.shardPeriod(0), settled);

    const std::vector<Cycles> starts = stack.shardStarts(0);
    ASSERT_GT(starts.size(), 2u * kBudget);
    for (std::size_t j = 1; j < starts.size(); ++j)
        ASSERT_EQ(starts[j] - starts[j - 1], j <= kBudget ? deferring : settled)
            << "gap " << j;
    const auto off = stack.shardOffPeriodGap(0);
    ASSERT_TRUE(off.has_value());
    EXPECT_EQ(off->index, 1u);
    EXPECT_EQ(off->gap, deferring);
    EXPECT_EQ(stack.device().evictionsIssued(), 0u);
}

TEST(ServingStack, FirstOffPeriodGapNamesTheFirstOffender)
{
    const std::vector<Cycles> periodic = {10, 20, 30, 40};
    EXPECT_FALSE(sim::firstOffPeriodGap(periodic, 10).has_value());
    EXPECT_FALSE(sim::firstOffPeriodGap(std::vector<Cycles>{7}, 10));
    EXPECT_FALSE(sim::firstOffPeriodGap(std::vector<Cycles>{}, 10));

    const std::vector<Cycles> skewed = {10, 20, 31, 40, 55};
    const auto off = sim::firstOffPeriodGap(skewed, 10);
    ASSERT_TRUE(off.has_value());
    EXPECT_EQ(off->index, 2u);
    EXPECT_EQ(off->gap, 11u);
}
