/**
 * @file
 * Golden-stats regression: pins the summary CSVs of reduced fig5/fig6
 * grids against checked-in fixtures, turning the "verify fig5/fig6 are
 * bit-identical" release ritual into a ctest. The simulator is
 * deterministic by construction (seeded cells, thread-count-
 * independent engine, locale-pinned formatting), so any diff here is a
 * real behaviour change — either a bug, or an intended change that
 * must regenerate the fixtures:
 *
 *   TCORAM_REGEN_GOLDEN=1 ./test_golden_stats
 *
 * The grids are scaled down (2 workloads, 120 K instructions) to keep
 * the test fast; the full benches sweep the same configurations.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/experiment.hh"
#include "sim/report.hh"
#include "workload/spec_suite.hh"

using namespace tcoram;

namespace {

constexpr InstCount kInsts = 120'000;
constexpr InstCount kWarmup = 480'000;

/** The benches' standard scaling (bench_common.hh), replicated. */
sim::SystemConfig
scaled(sim::SystemConfig c)
{
    c.oram = oram::OramConfig::paperConfig();
    c.epoch0 = Cycles{1} << 18;
    c.ipcWindow = 100'000;
    return c;
}

std::vector<workload::Profile>
profiles()
{
    return {workload::specProfile("mcf"), workload::specProfile("h264")};
}

std::string
goldenPath(const std::string &name)
{
    return std::string(TCORAM_SOURCE_DIR) + "/tests/golden/" + name;
}

void
compareOrRegen(const sim::Grid &grid, const std::string &name)
{
    const std::string path = goldenPath(name);
    const std::string csv = sim::toCsv(grid);

    if (std::getenv("TCORAM_REGEN_GOLDEN") != nullptr) {
        std::ofstream f(path);
        ASSERT_TRUE(f.good()) << "cannot write " << path;
        f << csv;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream f(path);
    ASSERT_TRUE(f.good())
        << path << " missing — run with TCORAM_REGEN_GOLDEN=1 once";
    std::stringstream ss;
    ss << f.rdbuf();
    EXPECT_EQ(ss.str(), csv)
        << name << " drifted. If the change is intended, regenerate with "
        << "TCORAM_REGEN_GOLDEN=1";
}

} // namespace

TEST(GoldenStats, Fig5RateSweepSummary)
{
    std::vector<sim::SystemConfig> configs = {
        scaled(sim::SystemConfig::baseDram())};
    for (Cycles rate : {256u, 2048u, 32768u})
        configs.push_back(scaled(sim::SystemConfig::staticScheme(rate)));
    compareOrRegen(sim::runGrid(configs, profiles(), kInsts, kWarmup),
                   "fig5_summary.csv");
}

TEST(GoldenStats, Fig6MainResultSummary)
{
    const std::vector<sim::SystemConfig> configs = {
        scaled(sim::SystemConfig::baseDram()),
        scaled(sim::SystemConfig::baseOram()),
        scaled(sim::SystemConfig::dynamicScheme(4, 4)),
        scaled(sim::SystemConfig::staticScheme(300)),
        scaled(sim::SystemConfig::staticScheme(500)),
        scaled(sim::SystemConfig::staticScheme(1300)),
    };
    compareOrRegen(sim::runGrid(configs, profiles(), kInsts, kWarmup),
                   "fig6_summary.csv");
}

/**
 * The same fig6 grid served by the functional device must reproduce
 * the SAME golden CSV — the device-equality acceptance criterion at
 * bench shape (tree capped via functionalBlockCap, charging from the
 * modeled paper geometry either way).
 */
TEST(GoldenStats, Fig6FunctionalDeviceMatchesTheSameGolden)
{
    std::vector<sim::SystemConfig> configs = {
        scaled(sim::SystemConfig::baseDram()),
        scaled(sim::SystemConfig::baseOram()),
        scaled(sim::SystemConfig::dynamicScheme(4, 4)),
        scaled(sim::SystemConfig::staticScheme(300)),
        scaled(sim::SystemConfig::staticScheme(500)),
        scaled(sim::SystemConfig::staticScheme(1300)),
    };
    for (auto &c : configs) {
        c.device.kind = "functional";
        // Keep the functional trees tiny: this test pins equality of
        // the charged stats, not datapath throughput.
        c.device.functionalBlockCap = 1 << 10;
    }
    compareOrRegen(sim::runGrid(configs, profiles(), kInsts, kWarmup),
                   "fig6_summary.csv");
}

/**
 * The sharded-array transparency criterion: a 1-shard
 * ShardedOramDevice (kind "sharded" engages the wrapper even at
 * M = 1) must reproduce the SAME golden CSV as the bare timing
 * device — routing, per-shard calibration and counter aggregation all
 * collapse to the unsharded behaviour, bit for bit.
 */
TEST(GoldenStats, Fig6OneShardArrayMatchesTheSameGolden)
{
    std::vector<sim::SystemConfig> configs = {
        scaled(sim::SystemConfig::baseDram()),
        scaled(sim::SystemConfig::baseOram()),
        scaled(sim::SystemConfig::dynamicScheme(4, 4)),
        scaled(sim::SystemConfig::staticScheme(300)),
        scaled(sim::SystemConfig::staticScheme(500)),
        scaled(sim::SystemConfig::staticScheme(1300)),
    };
    for (auto &c : configs) {
        c.device.kind = "sharded";
        c.device.shards = 1;
    }
    compareOrRegen(sim::runGrid(configs, profiles(), kInsts, kWarmup),
                   "fig6_summary.csv");
}
