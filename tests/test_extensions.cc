/**
 * @file
 * Tests for the extension features: Merkle integrity verification,
 * the §7.3 threshold learner, leakage-budget enforcement inside the
 * rate enforcer and SecureProcessor, the §10 protected-DRAM scheme
 * and CSV reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "crypto/hmac.hh"
#include "oram/integrity.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "timing/threshold_learner.hh"
#include "workload/spec_suite.hh"

namespace tcoram {
namespace {

oram::OramConfig
tinyOram()
{
    oram::OramConfig c;
    c.numBlocks = 128;
    c.recursionLevels = 0;
    c.stashCapacity = 400;
    return c;
}

// ---------------------------------------------------------------------
// Integrity verification.
// ---------------------------------------------------------------------

TEST(Integrity, FreshTreeVerifies)
{
    oram::FlatPositionMap map(128);
    oram::PathOram o(tinyOram(), map, 1);
    oram::IntegrityVerifier iv(o);
    for (Leaf leaf = 0; leaf < o.config().numLeaves(); leaf += 7)
        EXPECT_TRUE(iv.verifyPath(leaf)) << "leaf " << leaf;
}

TEST(Integrity, CommitTracksLegitimateAccesses)
{
    oram::FlatPositionMap map(128);
    oram::PathOram o(tinyOram(), map, 2);
    oram::IntegrityVerifier iv(o);
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const BlockId id = rng.nextBounded(128);
        EXPECT_TRUE(iv.verifyPath(map.get(id)));
        o.access(id, oram::Op::Read);
        // Commit the path the access actually rewrote (first touches
        // substitute a uniform leaf for the unmaterialized label).
        const Leaf accessed = o.lastAccessedLeaf();
        iv.commitPath(accessed);
        EXPECT_TRUE(iv.verifyPath(accessed));
    }
}

TEST(Integrity, DetectsTamperedBucketOnPath)
{
    oram::FlatPositionMap map(128);
    oram::PathOram o(tinyOram(), map, 4);
    oram::IntegrityVerifier iv(o);
    // Tamper with the root: every path must now fail.
    o.tamperCiphertext(0, 5);
    for (Leaf leaf = 0; leaf < o.config().numLeaves(); leaf += 13)
        EXPECT_FALSE(iv.verifyPath(leaf));
}

TEST(Integrity, DetectsTamperedLeafBucket)
{
    oram::FlatPositionMap map(128);
    oram::PathOram o(tinyOram(), map, 5);
    oram::IntegrityVerifier iv(o);
    // Tamper a leaf-level bucket; its own path fails, a path through
    // the opposite subtree still verifies.
    const Leaf victim = 0;
    const std::uint64_t idx =
        o.bucketIndexOnPath(victim, o.config().treeDepth());
    o.tamperCiphertext(idx, 0);
    EXPECT_FALSE(iv.verifyPath(victim));
    EXPECT_TRUE(iv.verifyPath(o.config().numLeaves() - 1));
}

TEST(Integrity, OffPathSiblingTamperSurvivesUntilVisited)
{
    // Tampering is detected exactly when a path covering the node is
    // verified — matching the lazy-verification model of [25].
    oram::FlatPositionMap map(128);
    oram::PathOram o(tinyOram(), map, 6);
    oram::IntegrityVerifier iv(o);
    const Leaf left_most = 0;
    const Leaf right_most = o.config().numLeaves() - 1;
    const std::uint64_t right_child = 2; // root's right child
    o.tamperCiphertext(right_child, 1);
    // Both paths include the root, but only the right path hashes the
    // tampered bucket's ciphertext directly; the left path uses the
    // *stored* digest of node 2 and thus still matches the old root.
    EXPECT_TRUE(iv.verifyPath(left_most));
    EXPECT_FALSE(iv.verifyPath(right_most));
}

TEST(Integrity, RootChangesOnCommit)
{
    oram::FlatPositionMap map(128);
    oram::PathOram o(tinyOram(), map, 7);
    oram::IntegrityVerifier iv(o);
    const auto before = iv.root();
    o.access(3, oram::Op::Read);
    iv.commitPath(map.get(3)); // remapped leaf; commit the read path too
    iv.commitPath(o.lastAccessedLeaf());
    EXPECT_FALSE(crypto::digestEqual(before, iv.root()));
}

// ---------------------------------------------------------------------
// Threshold learner (§7.3).
// ---------------------------------------------------------------------

TEST(ThresholdLearner, IdlePicksSlowest)
{
    timing::RateSet r(4);
    timing::ThresholdLearner learner(r, 1488);
    timing::PerfCounters pc;
    EXPECT_EQ(learner.nextRate(1'000'000, pc), r.slowest());
}

TEST(ThresholdLearner, SaturatedDemandPicksFastest)
{
    timing::RateSet r(4);
    timing::ThresholdLearner learner(r, 1488, 0.05);
    timing::PerfCounters pc;
    // Demand interval ~ 0: every candidate saturates; only the
    // fastest minimizes the period.
    for (int i = 0; i < 600; ++i)
        pc.noteRealAccess(1488);
    EXPECT_EQ(learner.nextRate(1'000'000, pc), r.fastest());
}

TEST(ThresholdLearner, SparseDemandToleratesSlowRates)
{
    timing::RateSet r(4);
    timing::ThresholdLearner learner(r, 1488, 0.5);
    timing::PerfCounters pc;
    // 10 accesses in a million cycles: demand interval ~100k; even
    // 32768 stays unsaturated and within the threshold.
    for (int i = 0; i < 10; ++i)
        pc.noteRealAccess(1488);
    EXPECT_EQ(learner.nextRate(1'000'000, pc), r.slowest());
}

TEST(ThresholdLearner, AgreesWithSimplePredictorOnSmallR)
{
    // The paper's §7.3 claim: with |R| = 4 the simple averaging
    // predictor and the sophisticated one choose similar rates.
    timing::RateSet r(4);
    timing::RateLearner simple(r, timing::RateLearner::Divider::Exact);
    timing::ThresholdLearner fancy(r, 1488, 0.3);
    Rng rng(42);
    int agree = 0, trials = 200;
    for (int t = 0; t < trials; ++t) {
        timing::PerfCounters pc;
        const auto accesses = 1 + rng.nextBounded(400);
        for (std::uint64_t i = 0; i < accesses; ++i)
            pc.noteRealAccess(1488);
        pc.noteWaste(rng.nextBounded(100'000));
        const Cycles a = simple.nextRate(1'000'000, pc);
        const Cycles b = fancy.nextRate(1'000'000, pc);
        // "Similar" = same candidate or an adjacent one.
        const auto ia = static_cast<long>(r.indexOf(a));
        const auto ib = static_cast<long>(r.indexOf(b));
        if (std::labs(ia - ib) <= 1)
            ++agree;
    }
    EXPECT_GT(agree, trials * 8 / 10);
}

TEST(ThresholdLearner, SharpnessTradesPowerForPerf)
{
    // Larger sharpness must never pick a faster rate.
    timing::RateSet r(8);
    timing::PerfCounters pc;
    for (int i = 0; i < 120; ++i)
        pc.noteRealAccess(1488);
    Cycles prev = 0;
    for (double s : {0.0, 0.1, 0.3, 1.0, 3.0}) {
        timing::ThresholdLearner learner(r, 1488, s);
        const Cycles rate = learner.nextRate(1'000'000, pc);
        EXPECT_GE(rate, prev) << "sharpness " << s;
        prev = rate;
    }
}

// ---------------------------------------------------------------------
// Leakage-budget enforcement.
// ---------------------------------------------------------------------

class BudgetDevice : public timing::OramDeviceIf
{
  public:
    timing::OramCompletion
    submit(Cycles now, const timing::OramTransaction &) override
    {
        return {now, now + 100, 0, 0, 0};
    }
    Cycles accessLatency() const override { return 100; }
};

TEST(LeakageBudget, EnforcerPinsRateAtLimit)
{
    BudgetDevice dev;
    timing::RateSet r(4); // 2 bits per decision
    timing::EpochSchedule e(5'000, 2, Cycles{1} << 40);
    timing::RateLearner learner(r);
    timing::RateEnforcer enf(dev, r, e, learner, 256);
    timing::LeakageMonitor mon(4.0, 4); // 2 free decisions
    enf.attachMonitor(&mon);

    // Drive demand through many epochs.
    Cycles t = 0;
    for (int i = 0; i < 600; ++i)
        t = enf.serveReal(t + 200);
    ASSERT_GT(enf.currentEpoch(), 4u);
    EXPECT_GT(enf.pinnedDecisions(), 0u);
    EXPECT_LE(mon.bitsConsumed(), 4.0 + 1e-9);
    // After the budget, the rate never changes again.
    const auto &d = enf.decisions();
    for (std::size_t i = 3; i < d.size(); ++i)
        EXPECT_EQ(d[i].rate, d[2].rate);
}

TEST(LeakageBudget, SecureProcessorHonorsLimit)
{
    // One enforcer over the whole device, and one per shard sharing
    // the session budget: either way the reported leakage counts only
    // the free decisions, so it stays within L once decisions pin.
    for (const std::uint32_t shards : {1u, 4u}) {
        SCOPED_TRACE(shards);
        auto cfg = sim::SystemConfig::dynamicScheme(4, 2);
        cfg.oram.numBlocks = 1 << 12;
        cfg.epoch0 = 1 << 15;
        cfg.device.shards = shards;
        cfg.leakageLimitBits = 4.0; // two free decisions of lg4 = 2 bits
        const auto prof = workload::specProfile("mcf");
        sim::SecureProcessor proc(cfg, prof);
        const auto r = proc.run(400'000);
        ASSERT_GT(r.epochsUsed, 2u);
        ASSERT_EQ(proc.enforcers().size(), shards);
        unsigned pinned = 0;
        for (const auto &enf : proc.enforcers())
            pinned += enf->pinnedDecisions();
        EXPECT_GT(pinned, 0u);
        EXPECT_LE(r.simLeakageBits, cfg.leakageLimitBits);
        if (shards > 1)
            continue;
        // All decisions after the second are pinned to the second's
        // rate.
        const auto &d = r.rateDecisions;
        ASSERT_GE(d.size(), 4u);
        for (std::size_t i = 3; i < d.size(); ++i)
            EXPECT_EQ(d[i].rate, d[2].rate);
    }
}

TEST(LeakageBudget, UnlimitedByDefault)
{
    auto cfg = sim::SystemConfig::dynamicScheme(4, 2);
    cfg.oram.numBlocks = 1 << 12;
    cfg.epoch0 = 1 << 15;
    const auto prof = workload::specProfile("mcf");
    sim::SecureProcessor proc(cfg, prof);
    proc.run(200'000);
    ASSERT_EQ(proc.enforcers().size(), 1u);
    EXPECT_EQ(proc.enforcers().front()->pinnedDecisions(), 0u);
}

// ---------------------------------------------------------------------
// Protected DRAM (§10).
// ---------------------------------------------------------------------

TEST(ProtectedDram, RunsAndMakesDummies)
{
    auto cfg = sim::SystemConfig::protectedDram(4, 2);
    cfg.epoch0 = 1 << 15;
    const auto prof = workload::specProfile("astar");
    const auto r = sim::runOne(cfg, prof, 300'000, 300'000);
    EXPECT_GT(r.oramReal, 0u);
    EXPECT_GT(r.oramDummy, 0u);
    EXPECT_GT(r.oramLatency, 0u);
    EXPECT_LT(r.oramLatency, 200u); // line transfer, not a path
    EXPECT_DOUBLE_EQ(r.paperLeakageBits, 64.0); // same accounting
}

TEST(ProtectedDram, FarCheaperThanOram)
{
    // Timing protection without address protection costs a fraction
    // of the ORAM schemes — the point of the §10 discussion.
    const auto prof = workload::specProfile("mcf");
    auto pd = sim::SystemConfig::protectedDram(4, 2);
    pd.epoch0 = 1 << 15;
    auto dyn = sim::SystemConfig::dynamicScheme(4, 2);
    dyn.epoch0 = 1 << 15;
    dyn.oram.numBlocks = 1 << 12;
    const auto r_pd = sim::runOne(pd, prof, 300'000, 300'000);
    const auto r_dyn = sim::runOne(dyn, prof, 300'000, 300'000);
    EXPECT_LT(2 * r_pd.cycles, r_dyn.cycles);
}

// ---------------------------------------------------------------------
// CSV reporting.
// ---------------------------------------------------------------------

TEST(Report, CsvShapeMatchesGrid)
{
    auto cfg = sim::SystemConfig::baseDram();
    const std::vector<sim::SystemConfig> configs = {cfg};
    const std::vector<workload::Profile> profs = {
        workload::specProfile("hmmer"), workload::specProfile("sjeng")};
    const auto grid = sim::runGrid(configs, profs, 50'000);
    const std::string csv = sim::toCsv(grid);

    // Header + 2 rows.
    std::size_t lines = 0;
    for (char c : csv)
        lines += (c == '\n');
    EXPECT_EQ(lines, 3u);
    EXPECT_NE(csv.find("base_dram,hmmer"), std::string::npos);
    EXPECT_NE(csv.find("base_dram,sjeng"), std::string::npos);

    // Column count is stable between header and rows.
    const auto count_commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    const auto header_end = csv.find('\n');
    const auto row_end = csv.find('\n', header_end + 1);
    EXPECT_EQ(count_commas(csv.substr(0, header_end)),
              count_commas(csv.substr(header_end + 1,
                                      row_end - header_end - 1)));
}

TEST(Report, WriteCsvCreatesFile)
{
    const std::string path = "/tmp/tcoram_report_test.csv";
    const std::vector<sim::SystemConfig> configs = {
        sim::SystemConfig::baseDram()};
    const std::vector<workload::Profile> profs = {
        workload::specProfile("hmmer")};
    const auto grid = sim::runGrid(configs, profs, 20'000);
    sim::writeCsv(grid, path);
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(ReportDeath, WriteCsvDiesWhenTheFinalFlushFails)
{
    // /dev/full accepts the buffered fwrite and fails only at fclose:
    // the row must not be silently lost.
    std::FILE *probe = std::fopen("/dev/full", "w");
    if (probe == nullptr)
        GTEST_SKIP() << "/dev/full not available";
    std::fclose(probe);
    const std::vector<sim::SystemConfig> configs = {
        sim::SystemConfig::baseDram()};
    const std::vector<workload::Profile> profs = {
        workload::specProfile("hmmer")};
    const auto grid = sim::runGrid(configs, profs, 20'000);
    EXPECT_EXIT(sim::writeCsv(grid, "/dev/full"),
                ::testing::ExitedWithCode(1), "write to CSV output failed");
}

} // namespace
} // namespace tcoram
