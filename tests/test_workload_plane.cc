/**
 * @file
 * Workload plane tests: the WorkloadSource registry and spec parser,
 * per-rank generator determinism under interleaving, the versioned
 * binary op-trace format (round-trip + rejection), KV-over-ORAM block
 * packing (inline/spill round trips, probing, updates, misses, failed
 * puts), the KV-serving harness's worker-count bit-identity and
 * pinned run digests, the synthetic-vs-recorded-trace replay identity
 * and backlog cap of RecoveryRun's workload mode, the Daly checkpoint
 * method driving RecoveryRun's snapshot chain, and
 * the kv.* stat dump around all of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "crypto/sha256.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "sim/kv_backend.hh"
#include "sim/kv_serving.hh"
#include "sim/recovery_run.hh"
#include "sim/stat_dump.hh"
#include "workload/op_trace.hh"
#include "workload/workload_source.hh"

using namespace tcoram;
using workload::WorkloadOp;
using workload::WorkloadOpKind;
using workload::WorkloadParams;

namespace {

std::string
tmpPath(const std::string &name)
{
    return "test_workload_plane_" + name;
}

/** Pull rank @p rank of a fresh source to End (capped). */
std::vector<WorkloadOp>
pullRank(workload::WorkloadSource &src, std::uint32_t rank,
         std::size_t cap = 100'000)
{
    std::vector<WorkloadOp> out;
    while (out.size() < cap) {
        const WorkloadOp op = src.getNext(rank);
        out.push_back(op);
        if (op.kind == WorkloadOpKind::End)
            break;
    }
    return out;
}

WorkloadParams
kvParams()
{
    WorkloadParams p;
    p.method = "kv";
    p.ranks = 3;
    p.opsPerRank = 40;
    p.keySpace = 64;
    p.zipfTheta = 0.9;
    p.getFraction = 0.6;
    p.scanFraction = 0.2;
    p.scanLen = 4;
    p.thinkCycles = 50;
    return p;
}

} // namespace

// ---------------------------------------------------------------------
// Registry + spec parsing

TEST(WorkloadRegistry, ListsBuiltinsSorted)
{
    const auto methods = workload::WorkloadRegistry::instance().methods();
    EXPECT_TRUE(std::is_sorted(methods.begin(), methods.end()));
    for (const char *m : {"daly", "kv", "synthetic", "trace"}) {
        EXPECT_TRUE(workload::WorkloadRegistry::instance().contains(m))
            << m;
        EXPECT_NE(std::find(methods.begin(), methods.end(), m),
                  methods.end());
    }
    EXPECT_FALSE(
        workload::WorkloadRegistry::instance().contains("nope"));
}

TEST(WorkloadRegistryDeath, UnknownMethodIsFatal)
{
    WorkloadParams p;
    p.method = "definitely-not-registered";
    EXPECT_DEATH({ auto s = workload::loadWorkload(p); }, "unknown");
}

TEST(WorkloadSpec, ParsesMethodAndKeys)
{
    const WorkloadParams p = workload::parseWorkloadSpec(
        "kv:seed=7,ranks=3,ops=10,keys=100,theta=0.5,get=0.7,scan=0.1,"
        "scanlen=5,value=32,think=100");
    EXPECT_EQ(p.method, "kv");
    EXPECT_EQ(p.seed, 7u);
    EXPECT_EQ(p.ranks, 3u);
    EXPECT_EQ(p.opsPerRank, 10u);
    EXPECT_EQ(p.keySpace, 100u);
    EXPECT_DOUBLE_EQ(p.zipfTheta, 0.5);
    EXPECT_DOUBLE_EQ(p.getFraction, 0.7);
    EXPECT_DOUBLE_EQ(p.scanFraction, 0.1);
    EXPECT_EQ(p.scanLen, 5u);
    EXPECT_EQ(p.valueBytes, 32u);
    EXPECT_EQ(p.thinkCycles, 100u);
}

TEST(WorkloadSpec, BareMethodAndDalyKeys)
{
    EXPECT_EQ(workload::parseWorkloadSpec("synthetic").method,
              "synthetic");
    const WorkloadParams d = workload::parseWorkloadSpec(
        "daly:mtti=1e6,delta=5000,opcycles=100");
    EXPECT_DOUBLE_EQ(d.mttiCycles, 1e6);
    EXPECT_EQ(d.checkpointCycles, 5000u);
    EXPECT_EQ(d.opCycles, 100u);
}

TEST(WorkloadSpecDeath, RejectsBadSpecs)
{
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:bogus=1"); },
        "bogus");
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:seed=abc"); },
        "unsigned integer");
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:ranks=0"); },
        "ranks");
    EXPECT_DEATH({ auto p = workload::parseWorkloadSpec(""); },
                 "method");
    // 32-bit keys reject what they cannot hold instead of truncating
    // (ranks=4294967297 used to run as one rank).
    EXPECT_DEATH(
        {
            auto p = workload::parseWorkloadSpec(
                "synthetic:ranks=4294967297,ops=8");
        },
        "synthetic:ranks=4294967297,ops=8'.*key 'ranks' must be at most "
        "4294967295");
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:scanlen=4294967296"); },
        "key 'scanlen' must be at most 4294967295");
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:value=99999999999"); },
        "key 'value' must be at most 4294967295");
    EXPECT_DEATH(
        {
            auto p = workload::parseWorkloadSpec(
                "kv:ops=99999999999999999999");
        },
        "key 'ops' must be at most");
    EXPECT_DEATH(
        { auto p = workload::parseWorkloadSpec("kv:ranks=-1"); },
        "key 'ranks' wants an unsigned integer");
}

// ---------------------------------------------------------------------
// Generator contracts

TEST(WorkloadDeterminism, RankStreamsSurviveInterleaving)
{
    for (const char *method : {"synthetic", "kv", "daly"}) {
        WorkloadParams p = kvParams();
        p.method = method;
        // Reference: pull each rank to End, one rank at a time.
        auto ref_src = workload::loadWorkload(p);
        std::vector<std::vector<WorkloadOp>> ref;
        for (std::uint32_t r = 0; r < p.ranks; ++r)
            ref.push_back(pullRank(*ref_src, r));
        // Adversarial interleaving: round-robin ranks 2,0,1,2,0,1,...
        auto mixed_src = workload::loadWorkload(p);
        std::vector<std::vector<WorkloadOp>> mixed(p.ranks);
        std::vector<bool> ended(p.ranks, false);
        while (!std::all_of(ended.begin(), ended.end(),
                            [](bool b) { return b; })) {
            for (const std::uint32_t r : {2u, 0u, 1u}) {
                if (ended[r])
                    continue;
                const WorkloadOp op = mixed_src->getNext(r);
                mixed[r].push_back(op);
                if (op.kind == WorkloadOpKind::End)
                    ended[r] = true;
            }
        }
        for (std::uint32_t r = 0; r < p.ranks; ++r)
            EXPECT_EQ(ref[r], mixed[r]) << method << " rank " << r;
    }
}

TEST(WorkloadDeterminism, EndIsTerminalAndIdempotent)
{
    WorkloadParams p = kvParams();
    p.opsPerRank = 3;
    auto src = workload::loadWorkload(p);
    auto ops = pullRank(*src, 0);
    ASSERT_FALSE(ops.empty());
    EXPECT_EQ(ops.back().kind, WorkloadOpKind::End);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(src->getNext(0).kind, WorkloadOpKind::End);
}

TEST(WorkloadDeterminism, SeedsSeparateRanks)
{
    WorkloadParams p = kvParams();
    auto src = workload::loadWorkload(p);
    const auto r0 = pullRank(*src, 0);
    const auto r1 = pullRank(*src, 1);
    EXPECT_NE(r0, r1); // astronomically unlikely to collide
}

TEST(WorkloadBurstDepth, ThinkTimeBoundsTheBurst)
{
    WorkloadParams p = kvParams();
    p.thinkCycles = 50; // think ops interleave: short bursts
    const std::uint32_t with_think =
        workload::observedBurstDepth(p, 1u << 20);
    p.thinkCycles = 0; // open loop: the whole rank is one burst
    const std::uint32_t open = workload::observedBurstDepth(p, 1u << 20);
    EXPECT_GE(with_think, 1u);
    EXPECT_GT(open, with_think);
    // The cap clamps.
    EXPECT_EQ(workload::observedBurstDepth(p, 2), 2u);
}

// ---------------------------------------------------------------------
// Op-trace format

TEST(OpTrace, RoundTripsThroughBytesAndFiles)
{
    WorkloadParams p = kvParams();
    auto src = workload::loadWorkload(p);
    const workload::OpTrace trace = workload::recordOpTrace(*src);
    EXPECT_EQ(trace.rankCount(), p.ranks);

    const auto bytes = workload::encodeOpTrace(trace);
    workload::OpTrace back;
    EXPECT_EQ(workload::decodeOpTrace(bytes, back), "");
    EXPECT_EQ(trace, back);

    const std::string path = tmpPath("roundtrip.trace");
    EXPECT_EQ(workload::writeOpTrace(path, trace), "");
    workload::OpTrace from_file;
    EXPECT_EQ(workload::readOpTrace(path, from_file), "");
    EXPECT_EQ(trace, from_file);
    std::remove(path.c_str());
}

TEST(OpTrace, ReplaysRecordedStream)
{
    WorkloadParams p = kvParams();
    auto src = workload::loadWorkload(p);
    const workload::OpTrace trace = workload::recordOpTrace(*src);
    const std::string path = tmpPath("replay.trace");
    ASSERT_EQ(workload::writeOpTrace(path, trace), "");

    WorkloadParams rp;
    rp.method = "trace";
    rp.path = path;
    auto replay = workload::loadWorkload(rp);
    EXPECT_EQ(replay->ranks(), p.ranks);
    auto fresh = workload::loadWorkload(p);
    for (std::uint32_t r = 0; r < p.ranks; ++r)
        EXPECT_EQ(pullRank(*replay, r), pullRank(*fresh, r))
            << "rank " << r;
    std::remove(path.c_str());
}

TEST(OpTrace, RejectsCorruptInputs)
{
    WorkloadParams p = kvParams();
    p.ranks = 2;
    p.opsPerRank = 5;
    auto src = workload::loadWorkload(p);
    const auto bytes =
        workload::encodeOpTrace(workload::recordOpTrace(*src));
    workload::OpTrace out;

    // Truncation at every interesting boundary fails, never crashes.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{11},
          bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(keep));
        EXPECT_NE(workload::decodeOpTrace(cut, out), "") << keep;
    }

    auto bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    EXPECT_NE(workload::decodeOpTrace(bad_magic, out).find("magic"),
              std::string::npos);

    auto bad_version = bytes;
    bad_version[4] = 99;
    EXPECT_NE(workload::decodeOpTrace(bad_version, out).find("version"),
              std::string::npos);

    auto trailing = bytes;
    trailing.push_back(0);
    EXPECT_NE(workload::decodeOpTrace(trailing, out).find("trailing"),
              std::string::npos);

    auto bad_kind = bytes;
    bad_kind[20] = 0x7f; // first record's kind byte (12-byte header
                         // + 8-byte rank-0 op count before it)
    EXPECT_NE(workload::decodeOpTrace(bad_kind, out).find("kind"),
              std::string::npos);

    EXPECT_NE(workload::readOpTrace(tmpPath("missing.trace"), out), "");
}

// ---------------------------------------------------------------------
// KV block packing

TEST(KvBackend, GeometryAndCodec)
{
    sim::KvConfig cfg;
    cfg.blockBytes = 64;
    cfg.homeSlots = 32;
    cfg.spillPerSlot = 2;
    EXPECT_EQ(cfg.inlineCapacity(), 51u);
    EXPECT_EQ(cfg.maxValueBytes(), 51u + 128u);
    EXPECT_EQ(cfg.totalBlocks(), 32u * 3u);

    sim::KVBackend be(cfg);
    EXPECT_EQ(be.spillBlocksFor(0), 0u);
    EXPECT_EQ(be.spillBlocksFor(51), 0u);
    EXPECT_EQ(be.spillBlocksFor(52), 1u);
    EXPECT_EQ(be.spillBlocksFor(51 + 64), 1u);
    EXPECT_EQ(be.spillBlocksFor(51 + 65), 2u);

    // Home and spill ids never collide across the table.
    std::vector<std::uint64_t> ids;
    for (std::uint64_t s = 0; s < cfg.homeSlots; ++s) {
        ids.push_back(be.homeBlockId(s));
        for (std::uint32_t j = 0; j < cfg.spillPerSlot; ++j)
            ids.push_back(be.spillBlockId(s, j));
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());

    std::vector<std::uint8_t> value(40);
    for (std::size_t i = 0; i < value.size(); ++i)
        value[i] = static_cast<std::uint8_t>(i * 3);
    std::vector<std::uint8_t> block(cfg.blockBytes);
    be.encodeRecord(block, 0xdeadbeefull, value);
    const auto h = be.decodeHeader(block);
    EXPECT_TRUE(h.used);
    EXPECT_EQ(h.key, 0xdeadbeefull);
    EXPECT_EQ(h.len, 40u);
}

TEST(KvBackend, PutGetRoundTripsAcrossSpills)
{
    oram::OramConfig ocfg;
    ocfg.numBlocks = 1 << 10;
    ocfg.recursionLevels = 2;
    ocfg.stashCapacity = 400;
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::FunctionalOramDevice dev(ocfg, mem, rng, /*key_seed=*/3);

    sim::KvConfig kcfg;
    kcfg.homeSlots = 64;
    kcfg.spillPerSlot = 2;
    sim::KVBackend be(kcfg);
    sim::KvOpCursor cur(be);
    Cycles now = 0;

    // Sizes straddling the inline boundary and both spill blocks.
    const std::vector<std::uint32_t> sizes{1,  50, 51, 52,
                                           64, 115, 116, 179};
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const std::uint64_t key = 1000 + i;
        std::vector<std::uint8_t> value(sizes[i]);
        for (std::size_t j = 0; j < value.size(); ++j)
            value[j] = static_cast<std::uint8_t>(
                mixSeed(key, j));
        cur.beginPut(key, value);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_FALSE(cur.failed());

        cur.beginGet(key);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_TRUE(cur.hit()) << sizes[i];
        EXPECT_EQ(cur.value(), value) << sizes[i];
    }

    // Update in place with a different length; the new len wins.
    std::vector<std::uint8_t> shorter(20, 0x5a);
    cur.beginPut(1007, shorter);
    sim::kvRunSync(cur, dev, 0, now);
    cur.beginGet(1007);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_TRUE(cur.hit());
    EXPECT_EQ(cur.value(), shorter);
    EXPECT_GE(cur.stats().updates, 1u);

    // Absent key misses.
    cur.beginGet(99'999);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_FALSE(cur.hit());
    EXPECT_GE(cur.stats().misses, 1u);
}

TEST(KvBackend, ProbesThroughCollisionsAndFailsPastTheLimit)
{
    oram::OramConfig ocfg;
    ocfg.numBlocks = 1 << 10;
    ocfg.recursionLevels = 2;
    ocfg.stashCapacity = 400;
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(13);
    oram::FunctionalOramDevice dev(ocfg, mem, rng, 5);

    sim::KvConfig kcfg;
    kcfg.homeSlots = 8; // tiny: collisions guaranteed
    kcfg.probeLimit = 8;
    sim::KVBackend be(kcfg);
    sim::KvOpCursor cur(be);
    Cycles now = 0;

    const std::vector<std::uint8_t> v(10, 0xab);
    for (std::uint64_t key = 0; key < 8; ++key) {
        cur.beginPut(key, v);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_FALSE(cur.failed()) << key;
    }
    EXPECT_GT(cur.stats().probes, cur.stats().puts); // probing happened
    // Every key still readable through its probe chain.
    for (std::uint64_t key = 0; key < 8; ++key) {
        cur.beginGet(key);
        sim::kvRunSync(cur, dev, 0, now);
        EXPECT_TRUE(cur.hit()) << key;
    }
    // The table is full: a ninth distinct key exhausts the probe limit.
    cur.beginPut(100, v);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_TRUE(cur.failed());
    EXPECT_EQ(cur.stats().failedPuts, 1u);
    cur.beginGet(100);
    sim::kvRunSync(cur, dev, 0, now);
    EXPECT_FALSE(cur.hit());
}

TEST(KvServing, SelfVerifyingValueCodec)
{
    std::vector<std::uint8_t> value;
    sim::KvServingRun::buildValue(value, 0x1234'5678'9abcull, 7, 64);
    EXPECT_EQ(value.size(), 64u);
    EXPECT_TRUE(
        sim::KvServingRun::checkValue(value, 0x1234'5678'9abcull));
    EXPECT_FALSE(sim::KvServingRun::checkValue(value, 0x999ull));
    value[40] ^= 1;
    EXPECT_FALSE(
        sim::KvServingRun::checkValue(value, 0x1234'5678'9abcull));
}

// ---------------------------------------------------------------------
// Serving harness determinism

namespace {

sim::KvServingConfig
smallServing()
{
    sim::KvServingConfig cfg;
    cfg.shards = 2;
    cfg.workload.method = "kv";
    cfg.workload.ranks = 64;
    cfg.workload.opsPerRank = 4;
    cfg.workload.keySpace = 128;
    cfg.workload.scanFraction = 0.1;
    cfg.workload.scanLen = 2;
    cfg.kv.homeSlots = 512;
    return cfg;
}

} // namespace

TEST(KvServing, WorkerCountsAreBitIdentical)
{
    sim::KvServingRun one(smallServing());
    one.run();
    EXPECT_TRUE(one.allTokensRetired());
    EXPECT_EQ(one.payloadMismatches(), 0u);
    EXPECT_GT(one.opsCompleted(), 0u);

    auto cfg4 = smallServing();
    cfg4.threads = 4;
    sim::KvServingRun four(cfg4);
    four.run();
    EXPECT_EQ(four.streamCsv(), one.streamCsv());
    EXPECT_EQ(four.opsCompleted(), one.opsCompleted());
    EXPECT_EQ(four.stats().hits, one.stats().hits);
}

TEST(KvServing, MultiProducerServesEverythingCleanly)
{
    auto cfg = smallServing();
    cfg.lanes = 4;
    cfg.threads = 2;
    sim::KvServingRun mp(cfg);
    mp.runMultiProducer();
    EXPECT_TRUE(mp.allTokensRetired());
    EXPECT_EQ(mp.payloadMismatches(), 0u);
    EXPECT_EQ(mp.stats().failedPuts, 0u);
    // Same op population as the single-producer run (the submission
    // interleaving may differ; the work served must not).
    sim::KvServingRun sp(smallServing());
    sp.run();
    EXPECT_EQ(mp.opsCompleted(), sp.opsCompleted());
}

namespace {

/** SHA-256 over everything a single-producer run makes observable:
 *  every shard stream, the merged KVStats and the get/put p50/p99. */
std::string
kvRunDigest(const sim::KvServingRun &run)
{
    const sim::KVStats st = run.stats();
    std::string blob = run.streamCsv();
    for (const std::uint64_t v :
         {st.gets, st.puts, st.scans, st.hits, st.misses, st.inserts,
          st.updates, st.failedPuts, st.probes, st.spillBlocksRead,
          st.spillBlocksWritten, st.oramReads, st.oramWrites,
          run.getLatencyPercentile(0.50), run.getLatencyPercentile(0.99),
          run.putLatencyPercentile(0.50), run.putLatencyPercentile(0.99)})
        blob += "," + std::to_string(v);
    return crypto::toHex(crypto::Sha256::hash(blob));
}

/** Read-heavy Zipf 0.99 over 48 keys from 320 sessions: most ops
 *  queue on a handful of hot home slots. */
sim::KvServingConfig
contendedReadServing()
{
    sim::KvServingConfig cfg;
    cfg.shards = 2;
    cfg.seed = 7;
    cfg.workload.method = "kv";
    cfg.workload.seed = 7;
    cfg.workload.ranks = 320;
    cfg.workload.opsPerRank = 5;
    cfg.workload.keySpace = 48;
    cfg.workload.zipfTheta = 0.99;
    cfg.workload.getFraction = 0.85;
    cfg.workload.scanFraction = 0.05;
    cfg.workload.scanLen = 3;
    cfg.kv.homeSlots = 128;
    return cfg;
}

/** Put-heavy mix with values large enough to spill. */
sim::KvServingConfig
writeHeavyServing()
{
    sim::KvServingConfig cfg;
    cfg.shards = 2;
    cfg.seed = 11;
    cfg.workload.method = "kv";
    cfg.workload.seed = 11;
    cfg.workload.ranks = 200;
    cfg.workload.opsPerRank = 5;
    cfg.workload.keySpace = 256;
    cfg.workload.zipfTheta = 0.9;
    cfg.workload.getFraction = 0.10;
    cfg.workload.scanFraction = 0.05;
    cfg.workload.scanLen = 2;
    cfg.workload.valueBytes = 80;
    cfg.kv.homeSlots = 512;
    return cfg;
}

/** Two lanes of 96 sessions each behind 16-token rings: trySubmit
 *  refuses part of every full submission pass. */
sim::KvServingConfig
backpressuredServing()
{
    sim::KvServingConfig cfg;
    cfg.shards = 2;
    cfg.lanes = 2;
    cfg.ringCapacity = 16;
    cfg.seed = 5;
    cfg.workload.method = "kv";
    cfg.workload.seed = 5;
    cfg.workload.ranks = 192;
    cfg.workload.opsPerRank = 4;
    cfg.workload.keySpace = 512;
    cfg.workload.zipfTheta = 0.6;
    cfg.workload.getFraction = 0.6;
    cfg.workload.thinkCycles = 200;
    cfg.kv.homeSlots = 256;
    return cfg;
}

} // namespace

TEST(KvServing, PinnedRunDigests)
{
    // Digests of the single-producer drive, recorded before its ready
    // set became wake-on-release: skipping a session stalled on a held
    // slot until that slot is released must replay exactly the same
    // submissions, so every observable byte stays put.
    const struct
    {
        const char *name;
        sim::KvServingConfig cfg;
        const char *digest;
    } cases[] = {
        {"contended_read", contendedReadServing(),
         "e18ce56a963615b2b8c92b2e69773e38cd9607803f503da56ed04b6737928b70"},
        {"write_heavy", writeHeavyServing(),
         "f5808f05e6bb4895b178abd338a77a4c48984152c0e219be9ab7510aba44731c"},
        {"backpressured", backpressuredServing(),
         "a04c61643cef5c31e472a28efde580079331768e347b10d4b0b0cfde555b8e15"},
    };
    for (const auto &c : cases) {
        for (const unsigned threads : {1u, 4u}) {
            sim::KvServingConfig cfg = c.cfg;
            cfg.threads = threads;
            sim::KvServingRun run(cfg);
            run.run();
            EXPECT_TRUE(run.allTokensRetired()) << c.name;
            EXPECT_EQ(run.payloadMismatches(), 0u) << c.name;
            EXPECT_EQ(kvRunDigest(run), c.digest)
                << c.name << " at " << threads << " thread(s)";
        }
    }
}

// ---------------------------------------------------------------------
// Raw-access replay (RecoveryRun's workload mode): one API,
// bit-identical trace replay

namespace {

sim::RecoveryRunConfig
replayConfig(const WorkloadParams &workload)
{
    sim::RecoveryRunConfig cfg;
    cfg.shards = 2;
    cfg.rate = 300;
    cfg.workload = workload;
    return cfg;
}

} // namespace

TEST(WorkloadReplay, RecordedTraceIsBitIdentical)
{
    WorkloadParams wp;
    wp.method = "synthetic";
    wp.ranks = 4;
    wp.opsPerRank = 32;
    sim::RecoveryRun synth(replayConfig(wp));
    synth.start();
    synth.finish();
    EXPECT_TRUE(synth.allTokensRetired());

    const std::string path = tmpPath("replay_identity.trace");
    {
        auto src = workload::loadWorkload(wp);
        ASSERT_EQ(workload::writeOpTrace(path,
                                         workload::recordOpTrace(*src)),
                  "");
    }
    WorkloadParams tp = wp;
    tp.method = "trace";
    tp.path = path;
    sim::RecoveryRun replay(replayConfig(tp));
    replay.start();
    replay.finish();
    EXPECT_EQ(replay.streamCsv(), synth.streamCsv());
    EXPECT_EQ(replay.servedTotal(), synth.servedTotal());
    std::remove(path.c_str());
}

TEST(WorkloadReplay, KvMethodRunsThroughTheSameApi)
{
    sim::RecoveryRun run(replayConfig(kvParams()));
    run.start();
    run.finish();
    EXPECT_TRUE(run.allTokensRetired());
    EXPECT_GT(run.servedTotal(), 0u);
}

TEST(WorkloadReplayDeath, BacklogCapIsCheckedBeforeAllocating)
{
    // One scan of ~4e9 accesses: the cap must fire before the backlog
    // grows, naming the workload and the limit.
    WorkloadParams wp = workload::parseWorkloadSpec(
        "kv:ranks=1,ops=1,theta=0,get=0,scan=1,"
        "keys=1000000000000000,scanlen=4000000000");
    EXPECT_DEATH({ sim::RecoveryRun run(replayConfig(wp)); },
                 "workload 'kv'.*limit of 16777216 accesses");
}

TEST(KvServingDeath, ScanLengthIsCheckedBeforeTheScanStarts)
{
    // The same scan through the KV harness, which reads its op stream
    // lazily: the cap must fire when the op is drawn, not after ~4e9
    // gets. theta = 0 keeps setup instant (a Zipf normalizer would sum
    // over all 1e15 keys).
    sim::KvServingConfig cfg;
    cfg.shards = 2;
    cfg.workload = workload::parseWorkloadSpec(
        "kv:ranks=1,ops=1,theta=0,get=0,scan=1,"
        "keys=1000000000000000,scanlen=4000000000");
    EXPECT_DEATH(
        {
            sim::KvServingRun run(cfg);
            run.run();
        },
        "rank 0's scan of 4000000000 keys exceeds the limit of 16777216 "
        "accesses");
}

// ---------------------------------------------------------------------
// Daly checkpoint chain

TEST(DalyWorkload, ComputesTheOptimumInterval)
{
    WorkloadParams p;
    p.method = "daly";
    p.ranks = 1;
    p.opsPerRank = 100;
    p.mttiCycles = 1e6;
    p.checkpointCycles = 5000;
    p.opCycles = 100;
    auto src = workload::loadWorkload(p);
    // t_opt = sqrt(2*5000*1e6) - 5000 = 95000 cycles -> 950 ops.
    EXPECT_EQ(src->checkpointIntervalOps(), 950u);

    // delta >= M/2 degenerates to t_opt = M.
    p.checkpointCycles = 600'000;
    auto degenerate = workload::loadWorkload(p);
    EXPECT_EQ(degenerate->checkpointIntervalOps(), 10'000u);

    // Markers land exactly every interval.
    p.checkpointCycles = 450; // t_opt = 30000 - 450 -> 295 ops... use small
    p.mttiCycles = 1e5;
    p.opCycles = 1000;
    auto marked = workload::loadWorkload(p);
    const std::uint64_t interval = marked->checkpointIntervalOps();
    ASSERT_GE(interval, 1u);
    std::uint64_t since = 0;
    for (const WorkloadOp &op : pullRank(*marked, 0)) {
        if (op.kind == WorkloadOpKind::End)
            break;
        ++since;
        if (op.checkpointAfter) {
            EXPECT_EQ(since, interval);
            since = 0;
        }
    }
}

TEST(DalyRecovery, SnapshotChainRestoresBitIdentically)
{
    sim::RecoveryRunConfig cfg;
    cfg.shards = 2;
    cfg.rate = 500;
    cfg.workload = workload::parseWorkloadSpec(
        "daly:ranks=2,ops=40,mtti=1e5,delta=4500,opcycles=1000");
    sim::RecoveryRun probe(cfg);
    EXPECT_TRUE(probe.workloadDriven());
    EXPECT_EQ(probe.backlogTotal(), 80u);
    EXPECT_GT(probe.checkpointIntervalOps(), 0u);
    ASSERT_FALSE(probe.checkpointMarks().empty());
    const std::uint64_t mark = probe.checkpointMarks().front();
    ASSERT_GT(mark, 0u);
    ASSERT_LT(mark, probe.backlogTotal());

    // Uninterrupted reference run.
    sim::RecoveryRun ref(cfg);
    ref.start();
    ref.finish();

    // Chained run: serve to the first Daly mark, snapshot, finish in a
    // fresh harness restored from the snapshot.
    const std::string path = tmpPath("daly.ckpt");
    {
        sim::RecoveryRun first(cfg);
        first.start();
        while (first.servedTotal() < mark)
            ASSERT_TRUE(first.serveOne());
        ASSERT_EQ(first.saveTo(path), "");
    }
    sim::RecoveryRun resumed(cfg);
    ASSERT_EQ(resumed.restoreFrom(path), "");
    EXPECT_EQ(resumed.servedTotal(), mark);
    resumed.finish();
    EXPECT_EQ(resumed.servedTotal(), ref.servedTotal());
    for (std::uint32_t i = 0; i < ref.shardCount(); ++i) {
        const auto a = ref.shardStream(i);
        const auto b = resumed.shardStream(i);
        // The resumed run's recorder only saw the post-snapshot tail;
        // it must equal the reference stream's tail exactly.
        ASSERT_LE(b.size(), a.size());
        EXPECT_TRUE(std::equal(b.begin(), b.end(),
                               a.end() - static_cast<long>(b.size())))
            << "shard " << i;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// KV stat dump

TEST(StatDumpKv, ExportsKvKeysThroughTheColumnPlane)
{
    sim::KVStats s;
    s.gets = 10;
    s.hits = 6;
    s.misses = 4;
    s.puts = 3;
    s.probes = 14;
    s.spillBlocksRead = 5;
    const StatDump d = sim::toStatDump(s, 1234, 5678);
    EXPECT_EQ(d.get("kv.gets"), 10.0);
    EXPECT_DOUBLE_EQ(d.get("kv.hit_rate"), 0.6);
    EXPECT_EQ(d.get("kv.get_p99_cycles"), 1234.0);
    EXPECT_EQ(d.get("kv.put_p99_cycles"), 5678.0);
    EXPECT_TRUE(d.has("kv.spill_blocks_read"));

    const std::string csv = sim::kvStatsCsv(s, 1234, 5678);
    EXPECT_EQ(csv.rfind("stat,value\n", 0), 0u);
    EXPECT_NE(csv.find("kv.gets,10"), std::string::npos);
    EXPECT_NE(csv.find("kv.hit_rate,0.6"), std::string::npos);
    // Byte-stable: rendering twice is identical.
    EXPECT_EQ(csv, sim::kvStatsCsv(s, 1234, 5678));
}
