/**
 * @file
 * System-level tests: config presets, the SecureProcessor wiring for
 * every scheme, and the experiment helpers.
 */

#include <gtest/gtest.h>

#include "../bench/bench_common.hh"
#include "sim/experiment.hh"
#include "sim/experiment_engine.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "workload/spec_suite.hh"

namespace tcoram::sim {
namespace {

constexpr InstCount kShortRun = 300'000;

SystemConfig
fastConfig(SystemConfig c)
{
    // Shrink the tree and epochs so unit tests run in milliseconds.
    c.oram.numBlocks = 1 << 12;
    c.epoch0 = 1 << 16;
    c.ipcWindow = 50'000;
    return c;
}

TEST(SystemConfig, PresetNames)
{
    EXPECT_EQ(SystemConfig::baseDram().name, "base_dram");
    EXPECT_EQ(SystemConfig::baseOram().name, "base_oram");
    EXPECT_EQ(SystemConfig::staticScheme(300).name, "static_300");
    EXPECT_EQ(SystemConfig::dynamicScheme(4, 4).name, "dynamic_R4_E4");
}

TEST(SystemConfig, StaticInitialRateMatches)
{
    const SystemConfig c = SystemConfig::staticScheme(1300);
    EXPECT_EQ(c.staticRate, 1300u);
    EXPECT_EQ(c.initialRate, 1300u);
}

TEST(SecureProcessor, BaseDramRuns)
{
    const SimResult r =
        runOne(fastConfig(SystemConfig::baseDram()),
               workload::specProfile("hmmer"), kShortRun);
    EXPECT_EQ(r.instructions, kShortRun);
    EXPECT_GT(r.cycles, kShortRun); // IPC < 1
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.watts, 0.0);
    EXPECT_EQ(r.oramReal + r.oramDummy, 0u);
}

TEST(SecureProcessor, BaseOramSlowerThanDram)
{
    const auto prof = workload::specProfile("mcf");
    const SimResult dram =
        runOne(fastConfig(SystemConfig::baseDram()), prof, kShortRun);
    const SimResult oram =
        runOne(fastConfig(SystemConfig::baseOram()), prof, kShortRun);
    EXPECT_GT(perfOverheadX(oram, dram), 1.5);
    EXPECT_GT(oram.oramReal, 0u);
    EXPECT_EQ(oram.oramDummy, 0u); // no enforcement, no dummies
}

TEST(SecureProcessor, StaticSchemeMakesDummies)
{
    const SimResult r =
        runOne(fastConfig(SystemConfig::staticScheme(300)),
               workload::specProfile("hmmer"), kShortRun);
    EXPECT_GT(r.oramDummy, 0u);
    EXPECT_DOUBLE_EQ(r.simLeakageBits, 0.0); // |R| = 1
}

TEST(SecureProcessor, DynamicSchemeDecidesRates)
{
    const SimResult r =
        runOne(fastConfig(SystemConfig::dynamicScheme(4, 2)),
               workload::specProfile("mcf"), kShortRun);
    EXPECT_GE(r.rateDecisions.size(), 2u);
    EXPECT_GT(r.epochsUsed, 1u);
    EXPECT_GT(r.simLeakageBits, 0.0);
    EXPECT_DOUBLE_EQ(r.paperLeakageBits, 64.0); // R4, doubling
}

TEST(SecureProcessor, DynamicFasterThanBadStatic)
{
    // A dynamic scheme should beat a grossly overset static rate on a
    // memory-bound workload.
    const auto prof = workload::specProfile("mcf");
    const SimResult dyn = runOne(
        fastConfig(SystemConfig::dynamicScheme(4, 2)), prof, kShortRun);
    const SimResult stat = runOne(
        fastConfig(SystemConfig::staticScheme(32768)), prof, kShortRun);
    EXPECT_LT(dyn.cycles, stat.cycles);
}

TEST(SecureProcessor, SeedReproducibility)
{
    const auto cfg = fastConfig(SystemConfig::dynamicScheme(4, 2));
    const auto prof = workload::specProfile("gobmk");
    const SimResult a = runOne(cfg, prof, kShortRun);
    const SimResult b = runOne(cfg, prof, kShortRun);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.oramReal, b.oramReal);
    EXPECT_EQ(a.oramDummy, b.oramDummy);
}

TEST(SecureProcessor, OramLatencyReported)
{
    const SimResult r =
        runOne(fastConfig(SystemConfig::baseOram()),
               workload::specProfile("mcf"), kShortRun);
    EXPECT_GT(r.oramLatency, 100u);
    EXPECT_GT(r.oramBytesPerAccess, 1000u);
}

TEST(SecureProcessor, CryptoWorkAttributed)
{
    // Crypto budget: every (real or dummy) ORAM access costs one
    // whole-path decrypt and one whole-path write-back encrypt per
    // tree — bytes = accesses x bytes-per-access, calls = accesses x
    // 2 x trees, i.e. 2·(H+1) for H recursion stages. Both
    // the enforcer-counter path (dynamic) and the analytic path
    // (base_oram, no enforcer) must agree with that identity;
    // base_dram does no bucket crypto at all.
    for (auto cfg : {fastConfig(SystemConfig::baseOram()),
                     fastConfig(SystemConfig::dynamicScheme(4, 2))}) {
        const SimResult r =
            runOne(cfg, workload::specProfile("mcf"), kShortRun);
        const std::uint64_t accesses = r.oramReal + r.oramDummy;
        ASSERT_GT(accesses, 0u) << cfg.name;
        EXPECT_EQ(r.cryptoBytes, accesses * r.oramBytesPerAccess)
            << cfg.name;
        const std::uint64_t trees = 1 + cfg.oram.recursionChain().size();
        EXPECT_EQ(r.cryptoCalls, accesses * 2 * trees) << cfg.name;
    }
    const SimResult dram = runOne(fastConfig(SystemConfig::baseDram()),
                                  workload::specProfile("mcf"), kShortRun);
    EXPECT_EQ(dram.cryptoBytes, 0u);
    EXPECT_EQ(dram.cryptoCalls, 0u);
}

TEST(SecureProcessor, AsyncDramModeShrinksOlatAndSpeedsTheRun)
{
    // The async DRAM mode (PathMode::Pipelined) calibrates the
    // split-transaction controller: the requested line returns after
    // the path read, so the reported OLAT drops well below sync and a
    // miss-bound run finishes in fewer cycles. Everything else about
    // the run stays well-formed (dummies fire, leakage accounting
    // unchanged in structure).
    const auto prof = workload::specProfile("mcf");
    auto sync_cfg = fastConfig(SystemConfig::dynamicScheme(4, 2));
    auto async_cfg = sync_cfg;
    async_cfg.device.pathMode = oram::PathMode::Pipelined;

    const SimResult s = runOne(sync_cfg, prof, kShortRun);
    const SimResult a = runOne(async_cfg, prof, kShortRun);
    ASSERT_GT(s.oramLatency, 0u);
    EXPECT_LT(a.oramLatency, s.oramLatency);
    EXPECT_LT(a.oramLatency, (s.oramLatency * 70) / 100)
        << "pipelined OLAT should be roughly the read phase";
    EXPECT_LT(a.cycles, s.cycles);
    EXPECT_GT(a.oramDummy, 0u);
    EXPECT_EQ(a.oramBytesPerAccess, s.oramBytesPerAccess)
        << "the pipeline reschedules transfers, it does not remove them";
}

TEST(SecureProcessor, AsyncModeIsSeedReproducible)
{
    auto cfg = fastConfig(SystemConfig::dynamicScheme(4, 2));
    cfg.device.pathMode = oram::PathMode::Pipelined;
    const auto prof = workload::specProfile("gobmk");
    const SimResult a = runOne(cfg, prof, kShortRun);
    const SimResult b = runOne(cfg, prof, kShortRun);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.oramReal, b.oramReal);
    EXPECT_EQ(a.oramDummy, b.oramDummy);
}

TEST(Experiment, GridShape)
{
    const std::vector<SystemConfig> configs = {
        fastConfig(SystemConfig::baseDram()),
        fastConfig(SystemConfig::baseOram())};
    const std::vector<workload::Profile> profs = {
        workload::specProfile("hmmer"), workload::specProfile("sjeng")};
    const Grid g = runGrid(configs, profs, 100'000);
    ASSERT_EQ(g.results.size(), 2u);
    ASSERT_EQ(g.results[0].size(), 2u);
    EXPECT_EQ(g.at(0, 0).configName, "base_dram");
    EXPECT_EQ(g.at(1, 1).workloadName, "sjeng");
}

TEST(ExperimentEngine, WarmMemoMatchesPerCellRuns)
{
    // The six Figure 6 schemes share one warm-up per column; the two
    // extra base_dram rows differ from the first only in LLC size, so
    // a memo keyed without llcBytes would hand them the 1 MB state.
    std::vector<SystemConfig> configs = bench::paperConfigs();
    for (const std::uint64_t llc : {256u << 10, 512u << 10}) {
        SystemConfig c = configs.front();
        c.llcBytes = llc;
        configs.push_back(c);
    }
    const std::vector<workload::Profile> profs = {
        workload::specProfile("mcf"), workload::specProfile("hmmer"),
        workload::specProfile("libquantum")};
    const InstCount insts = 40'000;

    // With no warm-up every cell still starts from its key's (cold)
    // state, which must measure like a fresh processor.
    for (const InstCount warmup : {InstCount{0}, InstCount{150'000}}) {
        Grid per_cell;
        per_cell.configs = configs;
        per_cell.workloads = profs;
        per_cell.results.assign(configs.size(),
                                std::vector<SimResult>(profs.size()));
        for (std::size_t c = 0; c < configs.size(); ++c)
            for (std::size_t w = 0; w < profs.size(); ++w)
                per_cell.results[c][w] =
                    runOne(configs[c], profs[w], insts, warmup,
                           ExperimentEngine::cellSeed(configs[c], w));
        const std::string want = toCsv(per_cell);
        // The LLC rows must really differ, or the test shows nothing.
        EXPECT_NE(per_cell.at(0, 0).cycles, per_cell.at(6, 0).cycles);
        EXPECT_NE(per_cell.at(6, 0).cycles, per_cell.at(7, 0).cycles);

        for (const unsigned threads : {1u, 4u})
            EXPECT_EQ(toCsv(ExperimentEngine(threads).run(configs, profs,
                                                          insts, warmup)),
                      want)
                << threads << " engine thread(s), warm-up " << warmup;
    }
}

TEST(Experiment, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geoMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Experiment, TableFormatting)
{
    Table t({"a", "b"});
    t.addRow({"x", Table::fmt(3.14159, 2)});
    // Just exercise print (no crash) and fmt.
    EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

} // namespace
} // namespace tcoram::sim
