/**
 * @file
 * Background eviction engine: policy parsing, the reverse-
 * lexicographic leaf schedule, debt/budget mechanics and policy
 * triggers, calibration equality with the pipelined controller,
 * deferred write-back charging at the controller, horizon-bounded gap
 * drains, the functional evictPath invariant, engine snapshot
 * round-trip/rejection, and the two observable regimes end-to-end:
 * wide rates keep streams bit-identical to eviction-off while
 * evictions fire, and burst backlogs drain at the read-phase period.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/bitutils.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "dram/dram_model.hh"
#include "oram/eviction_engine.hh"
#include "oram/oram_device.hh"
#include "oram/path_oram.hh"
#include "oram/position_map.hh"
#include "sim/recovery_run.hh"
#include "sim/system_config.hh"

using namespace tcoram;

namespace {

oram::OramConfig
tinyConfig()
{
    oram::OramConfig c;
    c.numBlocks = 1 << 10;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    return c;
}

/** Calibrate @p e against a fresh DRAM model with a one-bucket read
 *  set — unit tests only exercise the debt/trigger mechanics, so any
 *  nonzero duration will do. */
void
calibrateTiny(oram::EvictionEngine &e)
{
    dram::DramModel mem{dram::DramConfig{}};
    const dram::MemRequest reads[] = {{0, 64, false}};
    e.calibrate(mem, reads);
}

} // namespace

// ---------------------------------------------------------------------
// Policy names and the leaf schedule
// ---------------------------------------------------------------------

TEST(EvictionPolicy, ParsesNamesAndRejectsUnknown)
{
    using oram::EvictionPolicy;
    EXPECT_EQ(oram::parseEvictionPolicy(""), EvictionPolicy::Off);
    EXPECT_EQ(oram::parseEvictionPolicy("off"), EvictionPolicy::Off);
    EXPECT_EQ(oram::parseEvictionPolicy("gap"), EvictionPolicy::Gap);
    EXPECT_EQ(oram::parseEvictionPolicy("highwater"),
              EvictionPolicy::HighWater);
    for (const auto p : {EvictionPolicy::Off, EvictionPolicy::Gap,
                         EvictionPolicy::HighWater})
        EXPECT_EQ(oram::parseEvictionPolicy(oram::evictionPolicyName(p)),
                  p);
    EXPECT_EXIT((void)oram::parseEvictionPolicy("bogus"),
                ::testing::ExitedWithCode(1), "bogus");
}

TEST(PathMode, ParsesNamesAndRejectsUnknown)
{
    using oram::PathMode;
    EXPECT_EQ(oram::parsePathMode(""), PathMode::Sync) << "empty is sync";
    EXPECT_EQ(oram::parsePathMode("sync"), PathMode::Sync);
    EXPECT_EQ(oram::parsePathMode("async"), PathMode::Pipelined);
    EXPECT_EXIT((void)oram::parsePathMode("ddr5"),
                ::testing::ExitedWithCode(1), "unknown DRAM mode \"ddr5\"");
    EXPECT_EXIT((void)oram::parsePathMode("asnyc"),
                ::testing::ExitedWithCode(1), "asnyc");
}

TEST(DeviceSpecCheck, EvictionPolicyAndBudget)
{
    // SystemConfig's default budget, armed under the async mode.
    oram::OramDeviceSpec ok = sim::SystemConfig{}.device;
    EXPECT_EQ(ok.evictionBudget, 64u);
    ok.pathMode = oram::PathMode::Pipelined;
    ok.evictionPolicy = oram::EvictionPolicy::Gap;
    oram::checkDeviceSpec(ok);

    // Off is valid under the sync default, whatever the budget.
    oram::checkDeviceSpec(sim::SystemConfig{}.device);
    oram::checkDeviceSpec(oram::OramDeviceSpec{});

    EXPECT_EXIT((void)oram::parseEvictionPolicy("sideways"),
                ::testing::ExitedWithCode(1), "sideways");
    EXPECT_EXIT(
        {
            oram::OramDeviceSpec bad = sim::SystemConfig{}.device;
            bad.evictionPolicy = oram::EvictionPolicy::Gap; // sync mode
            oram::checkDeviceSpec(bad);
        },
        ::testing::ExitedWithCode(1),
        "evictionPolicy \"gap\" requires the async");
    EXPECT_EXIT(
        {
            oram::OramDeviceSpec bad = ok;
            bad.evictionBudget = 0;
            oram::checkDeviceSpec(bad);
        },
        ::testing::ExitedWithCode(1), "evictionBudget must be nonzero");
    EXPECT_EXIT(
        {
            oram::OramDeviceSpec bad;
            bad.evictionBudget = oram::OramDeviceSpec::kMaxEvictionBudget + 1;
            oram::checkDeviceSpec(bad);
        },
        ::testing::ExitedWithCode(1),
        "evictionBudget must be in .*got 1048577");
}

TEST(DeviceSpecCheck, FactoryRejectsAPolicyUnderSync)
{
    EXPECT_EXIT(
        {
            dram::DramModel mem{dram::DramConfig{}};
            Rng rng(1);
            oram::OramDeviceSpec spec;
            spec.evictionPolicy = oram::EvictionPolicy::HighWater;
            spec.evictionBudget = 8;
            oram::makeOramDevice(spec, oram::OramConfig::benchConfig(), mem,
                                 rng);
        },
        ::testing::ExitedWithCode(1), "highwater");
}

TEST(EvictionEngine, ScheduleLeafIsAPermutationEachPeriod)
{
    // Over one period the bit-reversed counter must hit every leaf
    // exactly once, and consecutive evictions must land in opposite
    // halves of the tree (the reverse-lexicographic spread).
    const unsigned depth = 4;
    const std::uint64_t leaves = 1u << depth;
    std::set<Leaf> seen;
    for (std::uint64_t g = 0; g < leaves; ++g) {
        const Leaf l = oram::EvictionEngine::scheduleLeaf(g, depth, leaves);
        ASSERT_LT(l, leaves);
        seen.insert(l);
    }
    EXPECT_EQ(seen.size(), leaves);
    EXPECT_EQ(oram::EvictionEngine::scheduleLeaf(0, depth, leaves), 0u);
    EXPECT_EQ(oram::EvictionEngine::scheduleLeaf(1, depth, leaves),
              leaves / 2);
    // The schedule is periodic in the counter.
    for (std::uint64_t g = 0; g < 8; ++g)
        EXPECT_EQ(oram::EvictionEngine::scheduleLeaf(g + leaves, depth,
                                                     leaves),
                  oram::EvictionEngine::scheduleLeaf(g, depth, leaves));
}

TEST(BitUtils, BitReverseKnownValues)
{
    EXPECT_EQ(bitReverse(0b001, 3), 0b100u);
    EXPECT_EQ(bitReverse(0b110, 3), 0b011u);
    EXPECT_EQ(bitReverse(0b1011, 4), 0b1101u);
    for (std::uint64_t v = 0; v < 64; ++v)
        EXPECT_EQ(bitReverse(bitReverse(v, 6), 6), v);
}

// ---------------------------------------------------------------------
// Engine mechanics
// ---------------------------------------------------------------------

TEST(EvictionEngine, DebtBudgetAndGapTrigger)
{
    oram::EvictionEngine e({oram::EvictionPolicy::Gap, 3});
    calibrateTiny(e);
    EXPECT_TRUE(e.enabled());
    EXPECT_FALSE(e.wantsEviction()) << "no debt, nothing to drain";
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(e.canDefer());
        e.deferWriteback();
    }
    EXPECT_FALSE(e.canDefer()) << "budget saturated";
    EXPECT_EQ(e.debt(), 3u);
    EXPECT_EQ(e.highWaterDebt(), 3u);
    EXPECT_TRUE(e.wantsEviction());
    EXPECT_EQ(e.issueEviction(), 0u);
    EXPECT_EQ(e.issueEviction(), 1u);
    EXPECT_EQ(e.debt(), 1u);
    EXPECT_EQ(e.evictionsIssued(), 2u);
    EXPECT_TRUE(e.canDefer()) << "issuing evictions frees budget";
    EXPECT_EQ(e.highWaterDebt(), 3u) << "high water never recedes";
}

TEST(EvictionEngine, HighWaterTriggersAtHalfTheBudget)
{
    oram::EvictionEngine e({oram::EvictionPolicy::HighWater, 8});
    for (int i = 0; i < 3; ++i)
        e.deferWriteback();
    EXPECT_FALSE(e.wantsEviction()) << "below budget/2";
    e.deferWriteback();
    EXPECT_TRUE(e.wantsEviction()) << "at budget/2";

    // Budget 1 degenerates to the gap trigger (threshold max(1, 0)).
    oram::EvictionEngine tiny({oram::EvictionPolicy::HighWater, 1});
    EXPECT_FALSE(tiny.wantsEviction());
    tiny.deferWriteback();
    EXPECT_TRUE(tiny.wantsEviction());
}

TEST(EvictionEngine, OffOrZeroBudgetIsDisabled)
{
    EXPECT_FALSE(oram::EvictionEngine{}.enabled());
    EXPECT_FALSE(
        oram::EvictionEngine({oram::EvictionPolicy::Off, 64}).enabled());
    EXPECT_FALSE(
        oram::EvictionEngine({oram::EvictionPolicy::Gap, 0}).enabled());
    oram::EvictionEngine off;
    EXPECT_FALSE(off.canDefer());
    EXPECT_FALSE(off.wantsEviction());
}

TEST(EvictionEngine, SnapshotRoundTripsAndRejectsConfigMismatch)
{
    oram::EvictionEngine e({oram::EvictionPolicy::Gap, 8});
    calibrateTiny(e);
    for (int i = 0; i < 5; ++i)
        e.deferWriteback();
    e.issueEviction();
    e.issueEviction();
    ByteWriter w;
    e.saveState(w);

    oram::EvictionEngine twin({oram::EvictionPolicy::Gap, 8});
    calibrateTiny(twin);
    ByteReader r(w.data());
    twin.restoreState(r);
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(twin.debt(), e.debt());
    EXPECT_EQ(twin.highWaterDebt(), e.highWaterDebt());
    EXPECT_EQ(twin.evictionsIssued(), e.evictionsIssued());

    // A snapshot from one eviction configuration must not restore under
    // another — silently resuming with a different budget would shift
    // the deferral pattern mid-stream.
    EXPECT_DEATH(
        {
            oram::EvictionEngine other({oram::EvictionPolicy::Gap, 4});
            ByteReader rr(w.data());
            other.restoreState(rr);
        },
        "budget");
    EXPECT_DEATH(
        {
            oram::EvictionEngine other(
                {oram::EvictionPolicy::HighWater, 8});
            ByteReader rr(w.data());
            other.restoreState(rr);
        },
        "policy");
}

// ---------------------------------------------------------------------
// Timing device integration
// ---------------------------------------------------------------------

TEST(TimingOramDeviceEviction, CalibrationMatchesThePipelinedOccupancy)
{
    // An eviction replays the same transaction set as an access, so it
    // must occupy the path for exactly occupancyPerAccess() — the
    // indistinguishability anchor.
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(7);
    oram::TimingOramDevice dev(tinyConfig(), mem, rng,
                               oram::PathMode::Pipelined,
                               {oram::EvictionPolicy::Gap, 8});
    EXPECT_GT(dev.occupancyPerAccess(), dev.accessLatency());
    EXPECT_EQ(dev.evictionEngine().evictionDuration(),
              dev.occupancyPerAccess());
}

TEST(TimingOramDeviceEviction, EnablingTheEngineDoesNotShiftCalibration)
{
    // The engine calibrates by replaying the SAME read set against
    // reset bank timing: latency/occupancy and all later RNG draws are
    // identical with and without it.
    dram::DramModel mem_off{dram::DramConfig{}};
    dram::DramModel mem_on{dram::DramConfig{}};
    Rng rng_off(7), rng_on(7);
    oram::TimingOramDevice off(tinyConfig(), mem_off, rng_off,
                               oram::PathMode::Pipelined);
    oram::TimingOramDevice on(tinyConfig(), mem_on, rng_on,
                              oram::PathMode::Pipelined,
                              {oram::EvictionPolicy::Gap, 8});
    EXPECT_EQ(on.accessLatency(), off.accessLatency());
    EXPECT_EQ(on.occupancyPerAccess(), off.occupancyPerAccess());
    EXPECT_EQ(rng_on.next(), rng_off.next())
        << "engine calibration must not consume RNG draws";
}

TEST(TimingOramDeviceEviction, DeferralChargesReadPhaseUntilSaturation)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(7);
    oram::TimingOramDevice dev(tinyConfig(), mem, rng,
                               oram::PathMode::Pipelined,
                               {oram::EvictionPolicy::Gap, 2});
    const Cycles lat = dev.accessLatency();
    const Cycles occ = dev.occupancyPerAccess();

    // Two accesses fit the budget: each occupies only its read phase.
    EXPECT_EQ(dev.submit(0, timing::OramTransaction::real(0)).done, lat);
    EXPECT_EQ(dev.busyUntil(), lat);
    EXPECT_EQ(dev.submit(0, timing::OramTransaction::dummy()).done,
              lat + lat)
        << "dummies defer identically to reals";
    EXPECT_EQ(dev.busyUntil(), 2 * lat);
    EXPECT_EQ(dev.stashOccupancy(), dev.stashHighWater());
    EXPECT_GT(dev.stashOccupancy(), 0u);

    // Budget saturated: the third access pays full occupancy again.
    dev.submit(0, timing::OramTransaction::real(0));
    EXPECT_EQ(dev.busyUntil(), 2 * lat + occ);
}

TEST(TimingOramDeviceEviction, MaybeEvictDrainsOnlyWhatFitsTheHorizon)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(7);
    oram::TimingOramDevice dev(tinyConfig(), mem, rng,
                               oram::PathMode::Pipelined,
                               {oram::EvictionPolicy::Gap, 8});
    const Cycles d = dev.evictionEngine().evictionDuration();
    for (int i = 0; i < 4; ++i)
        dev.submit(0, timing::OramTransaction::real(0));
    ASSERT_EQ(dev.evictionEngine().debt(), 4u);
    const Cycles busy = dev.busyUntil();

    // Room for exactly two evictions; the third would overrun.
    const auto c = dev.maybeEvict(busy + 2 * d + d / 2);
    EXPECT_EQ(c.evictions, 2u);
    EXPECT_EQ(c.firstSchedule, 0u);
    EXPECT_EQ(dev.busyUntil(), busy + 2 * d)
        << "evictions occupy the path like accesses";
    EXPECT_EQ(dev.evictionEngine().debt(), 2u);
    EXPECT_EQ(c.bytesMoved, 2 * dev.bytesPerAccess());
    EXPECT_EQ(c.cryptoBytes, 2 * dev.bytesPerAccess());
    EXPECT_EQ(c.cryptoCalls, 2 * dev.cryptoCallsPerAccess());
    EXPECT_EQ(dev.blocksEvicted(),
              2 * dev.stashOccupancy() / dev.evictionEngine().debt());

    // No room at all: a no-op, not a partial charge.
    const auto none = dev.maybeEvict(dev.busyUntil() + d - 1);
    EXPECT_EQ(none.evictions, 0u);

    // Second drain continues the schedule counter.
    const auto more = dev.maybeEvict(dev.busyUntil() + 4 * d);
    EXPECT_EQ(more.evictions, 2u);
    EXPECT_EQ(more.firstSchedule, 2u);
    EXPECT_EQ(dev.evictionEngine().debt(), 0u);
}

// ---------------------------------------------------------------------
// Functional realization
// ---------------------------------------------------------------------

TEST(PathOramEviction, EvictPathPreservesEveryBlock)
{
    oram::OramConfig c;
    c.numBlocks = 256;
    c.recursionLevels = 0;
    c.stashCapacity = 400;
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram oram(c, map, 5);

    std::vector<std::vector<std::uint8_t>> payloads;
    for (std::uint64_t id = 0; id < 64; ++id) {
        std::vector<std::uint8_t> p(c.blockBytes);
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = static_cast<std::uint8_t>(id * 31 + i);
        oram.access(id, oram::Op::Write, p);
        payloads.push_back(std::move(p));
    }
    // Evict every leaf once on the reverse-lexicographic schedule; the
    // position map is untouched, so every block must still be readable.
    for (std::uint64_t g = 0; g < c.numLeaves(); ++g)
        oram.evictPath(oram::EvictionEngine::scheduleLeaf(
            g, c.treeDepth(), c.numLeaves()));
    EXPECT_EQ(oram.evictionCount(), c.numLeaves());
    for (std::uint64_t id = 0; id < 64; ++id)
        EXPECT_EQ(oram.access(id, oram::Op::Read), payloads[id]) << id;
}

TEST(PathOramEviction, BackgroundEvictDrainsAnOverfullStash)
{
    // Force stash pressure (tiny Z would be ideal; here we just fill),
    // then background-evict and watch the real stash counters move.
    oram::OramConfig c;
    c.numBlocks = 512;
    c.recursionLevels = 1;
    c.stashCapacity = 600;
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(3);
    oram::FunctionalOramDevice dev(c, mem, rng, /*key_seed=*/9,
                                   /*block_cap=*/0,
                                   crypto::CryptoBackend::Auto,
                                   oram::PathMode::Pipelined,
                                   {oram::EvictionPolicy::Gap, 16});
    Cycles t = 0;
    for (std::uint64_t id = 0; id < 32; ++id)
        t = dev.submit(t, timing::OramTransaction::real(id, id % 2)).done;
    ASSERT_GT(dev.stashOccupancy(), 0u) << "deferrals must accumulate";

    // Hand the device an eviction window big enough for the debt.
    const auto e = dev.maybeEvict(t + 40 * dev.occupancyPerAccess());
    EXPECT_GT(e.evictions, 0u);
    EXPECT_EQ(dev.stashOccupancy(), 0u);
    EXPECT_GT(dev.blocksEvicted(), 0u);
    EXPECT_EQ(dev.evictionsIssued(), e.evictions);

    // The datapath survived: blocks still round-trip.
    std::vector<std::uint8_t> out(c.blockBytes, 0);
    for (std::uint64_t id = 0; id < 32; ++id) {
        auto rd = timing::OramTransaction::real(id, false);
        rd.out = out;
        t = dev.submit(t, rd).done;
    }
    EXPECT_EQ(dev.realAccesses(), 64u);
}

// ---------------------------------------------------------------------
// End-to-end regimes (RecoveryRun, pipelined, recorded streams)
// ---------------------------------------------------------------------

namespace {

sim::RecoveryRunConfig
pipelinedConfig(Cycles rate, oram::EvictionPolicy policy,
                std::uint32_t budget)
{
    sim::RecoveryRunConfig cfg;
    cfg.shards = 1;
    cfg.sessions = 2;
    cfg.txnsPerSession = 24;
    cfg.seed = 42;
    cfg.rate = rate;
    cfg.inner.pathMode = oram::PathMode::Pipelined;
    cfg.inner.evictionPolicy = policy;
    cfg.inner.evictionBudget = budget;
    return cfg;
}

} // namespace

TEST(EvictionRegimes, WideRateKeepsTheStreamBitIdenticalWhileEvicting)
{
    // When rate + latency >= occupancy the deferral never moves any
    // slot: the engine-on stream must equal the engine-off stream BIT
    // FOR BIT while evictions fire in the gaps. This is the unchanged-
    // observable-rate half of the tentpole claim.
    Cycles occupancy = 0;
    {
        sim::RecoveryRun probe(
            pipelinedConfig(1000, oram::EvictionPolicy::Off, 0));
        occupancy = probe.device().shard(0).occupancyPerAccess();
        ASSERT_GT(occupancy, 0u);
    }
    const Cycles rate = occupancy; // comfortably in the wide regime

    sim::RecoveryRun off(pipelinedConfig(rate, oram::EvictionPolicy::Off,
                                         0));
    off.start();
    off.finish();

    for (const auto policy :
         {oram::EvictionPolicy::Gap, oram::EvictionPolicy::HighWater}) {
        sim::RecoveryRun on(pipelinedConfig(rate, policy, 16));
        on.start();
        on.finish();
        EXPECT_GT(on.evictionsIssued(), 0u)
            << oram::evictionPolicyName(policy);
        EXPECT_TRUE(on.shardStream(0) == off.shardStream(0))
            << oram::evictionPolicyName(policy)
            << ": eviction shifted the observable stream";
        EXPECT_EQ(on.lastRealCompletion(), off.lastRealCompletion());
    }
}

TEST(EvictionRegimes, BurstBacklogDrainsAtTheReadPhasePeriod)
{
    // Saturating regime: the rate is far below the write-back tail, so
    // the eviction-off run is occupancy-bound while the engine-on run
    // serves every slot after just the read phase — strictly faster,
    // still exactly periodic.
    const Cycles rate = 64;
    sim::RecoveryRun off(pipelinedConfig(rate, oram::EvictionPolicy::Off,
                                         0));
    off.start();
    off.finish();

    sim::RecoveryRun on(
        pipelinedConfig(rate, oram::EvictionPolicy::Gap, 1u << 12));
    on.start();
    on.finish();
    EXPECT_LT(on.lastRealCompletion(), off.lastRealCompletion())
        << "deferred write-back must beat the occupancy-bound run";

    const auto &dev = on.device().shard(0);
    ASSERT_LT(rate + dev.accessLatency(), dev.occupancyPerAccess())
        << "the case must actually sit in the saturating regime";
    EXPECT_GT(dev.stashOccupancy(), 0u)
        << "the backlog's tails are parked in the stash";
    EXPECT_EQ(dev.stashHighWater(), dev.stashOccupancy());

    // Exactly periodic at rate + OLAT: every inter-start gap equal.
    const auto stream = on.shardStream(0);
    ASSERT_GE(stream.size(), 10u);
    const Cycles period = rate + dev.accessLatency();
    for (std::size_t j = 1; j < stream.size(); ++j)
        ASSERT_EQ(stream[j].start - stream[j - 1].start, period)
            << "gap " << j;

    // The occupancy-bound reference is slower per slot.
    const auto slow = off.shardStream(0);
    ASSERT_GE(slow.size(), 2u);
    EXPECT_EQ(slow[1].start - slow[0].start,
              dev.occupancyPerAccess());
}
