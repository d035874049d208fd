/**
 * @file
 * Columnar stat-plane tests: schema-checked typed appends, the
 * order-key merge that makes serialization independent of chunk
 * (worker) assignment, and the RingScheduler's per-(round, shard)
 * telemetry pinned bit-identical between 1 and N workers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/column_batch.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram {
namespace {

// ---------------------------------------------------------------------
// Core mechanics.
// ---------------------------------------------------------------------

sim::ColumnSchema
toySchema()
{
    using enum sim::ColumnType;
    return {{{"name", Str}, {"count", U64}, {"ratio", F64}}};
}

TEST(ColumnBatch, SchemaHeaderAndTypedRows)
{
    sim::ColumnBatch batch(toySchema(), 1);
    EXPECT_EQ(batch.schema().headerCsv(), "name,count,ratio");

    sim::ColumnChunk &c = batch.chunk(0);
    c.beginRow(0);
    c.str("alpha");
    c.u64(7);
    c.f64(0.5);
    c.endRow();
    c.beginRow(1);
    c.str("beta");
    c.u64(1234567890123ull);
    c.f64(2.25);
    c.endRow();

    EXPECT_EQ(batch.rows(), 2u);
    EXPECT_EQ(batch.csv(), "name,count,ratio\n"
                           "alpha,7,0.5\n"
                           "beta,1234567890123,2.25\n");
}

TEST(ColumnBatch, MergeOrderIsKeyOrderNotChunkOrder)
{
    // Scatter rows 0..11 across 3 chunks in an adversarial pattern;
    // the serialized bytes must equal the single-chunk emission.
    auto append = [](sim::ColumnChunk &c, std::uint64_t key) {
        c.beginRow(key);
        c.str("r" + std::to_string(key));
        c.u64(key * 10);
        c.f64(static_cast<double>(key) / 4.0);
        c.endRow();
    };

    sim::ColumnBatch scattered(toySchema(), 3);
    const std::uint64_t assign[12] = {2, 0, 1, 1, 2, 0, 0, 2, 1, 0, 2, 1};
    // Append in reverse key order for good measure.
    for (std::uint64_t key = 12; key-- > 0;)
        append(scattered.chunk(assign[key]), key);

    sim::ColumnBatch single(toySchema(), 1);
    for (std::uint64_t key = 0; key < 12; ++key)
        append(single.chunk(0), key);

    EXPECT_EQ(scattered.csv(), single.csv());
}

// ---------------------------------------------------------------------
// RingScheduler shard telemetry: raw typed appends on the dispatch
// path, merged to (round, shard) order — bit-identical between 1 and
// N workers like every other scheduler observable.
// ---------------------------------------------------------------------

std::string
runTelemetry(unsigned threads)
{
    oram::OramConfig c;
    c.numBlocks = 1 << 10;
    c.recursionLevels = 2;
    c.stashCapacity = 400;

    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, c, /*shards=*/4, /*route_seed=*/5,
                                mem, rng, /*record=*/false);
    const timing::RateSet rates{std::vector<Cycles>{500}};
    const timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    protocol::LeakageParams params;
    params.rateCount = rates.size();

    sim::RingScheduler::Options o;
    o.lanes = 2;
    o.threads = threads;
    o.recordShardTelemetry = true;
    sim::RingScheduler rs(dev, rates, sched, learner, 500, params, o);

    for (std::uint32_t sid = 0; sid < 6; ++sid)
        rs.openSession(100 + sid, -1.0,
                       static_cast<std::uint16_t>(sid % 2));
    for (std::uint32_t sid = 0; sid < 6; ++sid)
        for (Cycles t = 0; t < 20'000; t += 700 + 100 * sid) {
            auto tok = rs.trySubmit(
                sid, t + 40 * sid,
                timing::OramTransaction::real((sid * 131 + t) % 1024));
            while (!tok) { // backpressure: pump, then resubmit
                rs.runUntilIdle();
                tok = rs.trySubmit(
                    sid, t + 40 * sid,
                    timing::OramTransaction::real((sid * 131 + t) % 1024));
            }
        }
    rs.runUntilIdle();
    return rs.telemetryCsv();
}

TEST(ColumnBatch, ShardTelemetryBitIdenticalAcrossWorkerCounts)
{
    const std::string one = runTelemetry(1);
    EXPECT_EQ(one.substr(0, one.find('\n')),
              sim::RingScheduler::shardTelemetrySchema().headerCsv());
    EXPECT_GT(std::count(one.begin(), one.end(), '\n'), 1)
        << "no telemetry rows recorded";
    EXPECT_EQ(runTelemetry(4), one);
}

} // namespace
} // namespace tcoram
