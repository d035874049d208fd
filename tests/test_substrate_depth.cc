/**
 * @file
 * Tests for the substrate-depth extensions: cache replacement
 * policies (LRU/FIFO/Random), DRAM refresh windows, explicit epoch
 * schedules with the §6.2 family constraint, and the key SimResult
 * scalars (leakage, crypto budget, sync-mode evictions).
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "dram/dram_model.hh"
#include "sim/experiment.hh"
#include "timing/epoch_schedule.hh"
#include "workload/spec_suite.hh"

namespace tcoram {
namespace {

// ---------------------------------------------------------------------
// Replacement policies.
// ---------------------------------------------------------------------

cache::CacheConfig
twoWay(cache::Replacement policy)
{
    cache::CacheConfig c;
    c.name = "tiny";
    c.sizeBytes = 1024; // 2-way, 8 sets
    c.ways = 2;
    c.replacement = policy;
    return c;
}

TEST(Replacement, FifoIgnoresHits)
{
    cache::Cache c(twoWay(cache::Replacement::Fifo));
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, false); // inserted first
    c.access(b, false);
    c.access(a, false); // hit: FIFO does NOT refresh a
    c.access(d, false); // evicts a (oldest insertion)
    EXPECT_FALSE(c.contains(a));
    EXPECT_TRUE(c.contains(b));
}

TEST(Replacement, LruRefreshesOnHit)
{
    cache::Cache c(twoWay(cache::Replacement::Lru));
    const Addr a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false); // hit refreshes a
    c.access(d, false); // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
}

TEST(Replacement, RandomIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        auto cfg = twoWay(cache::Replacement::Random);
        cfg.seed = seed;
        cache::Cache c(cfg);
        std::vector<bool> hits;
        Rng rng(7);
        for (int i = 0; i < 500; ++i)
            hits.push_back(
                c.access(rng.nextBounded(32) * 8 * 64, false).hit);
        return hits;
    };
    EXPECT_EQ(run(1), run(1));
    EXPECT_NE(run(1), run(2));
}

TEST(Replacement, RandomStillFillsInvalidFirst)
{
    auto cfg = twoWay(cache::Replacement::Random);
    cache::Cache c(cfg);
    c.access(0, false);
    c.access(8 * 64, false); // second way, no eviction while invalid
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(8 * 64));
}

TEST(Replacement, AllPoliciesFunctionallyCorrect)
{
    // Whatever the victim choice, a line just inserted must hit.
    for (auto policy : {cache::Replacement::Lru, cache::Replacement::Fifo,
                        cache::Replacement::Random}) {
        cache::Cache c(twoWay(policy));
        Rng rng(3);
        for (int i = 0; i < 1000; ++i) {
            const Addr a = rng.nextBounded(64) * 64;
            c.access(a, false);
            EXPECT_TRUE(c.access(a, false).hit);
        }
    }
}

// ---------------------------------------------------------------------
// DRAM refresh.
// ---------------------------------------------------------------------

TEST(DramRefresh, BlocksTransfersInWindow)
{
    dram::DramConfig cfg;
    cfg.refreshEnabled = true;
    cfg.tREFI = 1000;
    cfg.tRFC = 100;
    dram::DramModel m(cfg);
    // An access landing at DRAM-cycle ~0 must be pushed past tRFC.
    const Cycles done = m.access(0, {0, 64, false});
    // Completion (CPU cycles) must reflect at least the tRFC push.
    EXPECT_GE(done, cfg.toCpuCycles(cfg.tRFC));
}

TEST(DramRefresh, ReducesThroughput)
{
    dram::DramConfig base;
    dram::DramConfig refreshing = base;
    refreshing.refreshEnabled = true;
    refreshing.tREFI = 500;
    refreshing.tRFC = 100; // 20% duty refresh, exaggerated for test
    dram::DramModel m_base{base}, m_ref{refreshing};

    auto run = [](dram::DramModel &m) {
        Cycles now = 0;
        for (int i = 0; i < 500; ++i)
            now = m.access(now, {static_cast<Addr>(i) * 64, 64, false});
        return now;
    };
    EXPECT_GT(run(m_ref), run(m_base));
}

TEST(DramRefresh, DisabledByDefault)
{
    dram::DramConfig cfg;
    EXPECT_FALSE(cfg.refreshEnabled);
}

// ---------------------------------------------------------------------
// Explicit epoch schedules.
// ---------------------------------------------------------------------

TEST(ExplicitSchedule, UsesGivenLengthsThenGrows)
{
    timing::EpochSchedule e({1000, 2000, 8000}, 2, Cycles{1} << 40);
    EXPECT_EQ(e.epochLength(0), 1000u);
    EXPECT_EQ(e.epochLength(1), 2000u);
    EXPECT_EQ(e.epochLength(2), 8000u);
    EXPECT_EQ(e.epochLength(3), 16000u); // tail growth resumes
    EXPECT_EQ(e.epochLength(4), 32000u);
}

TEST(ExplicitSchedule, StartsAccumulate)
{
    timing::EpochSchedule e({1000, 2000, 8000}, 2, Cycles{1} << 40);
    EXPECT_EQ(e.epochStart(1), 1000u);
    EXPECT_EQ(e.epochStart(2), 3000u);
    EXPECT_EQ(e.epochStart(3), 11000u);
    EXPECT_EQ(e.epochAt(10999), 2u);
    EXPECT_EQ(e.epochAt(11000), 3u);
}

TEST(ExplicitScheduleDeath, RejectsSubDoublingEpochs)
{
    // §6.2: each epoch must be >= 2x the previous.
    EXPECT_DEATH(
        { timing::EpochSchedule e({1000, 1500}, 2, Cycles{1} << 40); },
        "2x the previous");
}

TEST(ExplicitSchedule, LeakageAccountingStillBounded)
{
    // A front-loaded explicit schedule still satisfies O(lg Tmax).
    timing::EpochSchedule expl({Cycles{1} << 30, Cycles{1} << 31}, 2);
    timing::EpochSchedule geom(Cycles{1} << 30, 2);
    EXPECT_LE(expl.epochsToTmax(), geom.epochsToTmax());
}

// ---------------------------------------------------------------------
// Key result scalars.
// ---------------------------------------------------------------------

TEST(SimResultScalars, LeakageCryptoBudgetAndSyncEvictions)
{
    auto cfg = sim::SystemConfig::dynamicScheme(4, 2);
    cfg.oram.numBlocks = 1 << 12;
    cfg.epoch0 = 1 << 15;
    const auto r =
        sim::runOne(cfg, workload::specProfile("astar"), 200'000);
    EXPECT_DOUBLE_EQ(r.paperLeakageBits, 64.0);
    EXPECT_EQ(r.instructions, 200'000u);
    ASSERT_GT(r.oramReal, 0u);
    // Crypto budget: 2·(H+1) batched calls per access for H recursion
    // stages (two per tree).
    const std::uint64_t trees = 1 + cfg.oram.recursionChain().size();
    EXPECT_EQ(r.cryptoCalls, 2 * trees * (r.oramReal + r.oramDummy));
    // The background-eviction engine is off under the sync default.
    EXPECT_EQ(r.evictionsIssued, 0u);
    EXPECT_EQ(r.blocksEvicted, 0u);
}

} // namespace
} // namespace tcoram
