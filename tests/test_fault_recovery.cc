/**
 * @file
 * Fault-tolerant datapath tests: FaultSpec parsing, injector
 * determinism, the FaultyMemory decorator (pass-through at rate 0,
 * exactly-once retirement under delay/refuse), per-bucket HMAC
 * detection and bounded-retry recovery on the PathOram read path,
 * serialization primitives, the crash-consistent checkpoint file
 * format (truncation/corruption rejection), and RecoveryRun
 * checkpoint/restart bit-identity on timing, functional and sharded
 * devices — including the golden-pinned observable stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "dram/backend_registry.hh"
#include "dram/differential.hh"
#include "dram/dram_model.hh"
#include "dram/faulty_memory.hh"
#include "oram/integrity.hh"
#include "oram/oram_device.hh"
#include "oram/path_oram.hh"
#include "oram/position_map.hh"
#include "sim/checkpoint.hh"
#include "sim/recovery_run.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "sim/system_config.hh"
#include "workload/spec_suite.hh"

using namespace tcoram;

namespace {

oram::OramConfig
tinyConfig(std::uint64_t blocks = 256)
{
    oram::OramConfig c;
    c.numBlocks = blocks;
    c.recursionLevels = 0;
    c.stashCapacity = 400;
    return c;
}

std::vector<std::uint8_t>
pattern(std::uint64_t tag, std::size_t n = 64)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(tag * 131 + i);
    return v;
}

/** Temp path helper (tests run from the build dir). */
std::string
tmpPath(const std::string &name)
{
    return "test_fault_recovery_" + name;
}

} // namespace

// ---------------------------------------------------------------------
// FaultSpec
// ---------------------------------------------------------------------

TEST(FaultSpec, ParsesKindsRateAndSeed)
{
    const auto s = dram::FaultSpec::parse("flip+stuck@1e-3#7");
    EXPECT_DOUBLE_EQ(s.rate, 1e-3);
    EXPECT_EQ(s.kinds, dram::kFaultFlip | dram::kFaultStuck);
    EXPECT_EQ(s.seed, 7u);
    EXPECT_TRUE(s.enabled());
    EXPECT_TRUE(s.has(dram::kFaultDataMask));
    EXPECT_FALSE(s.has(dram::kFaultTimingMask));

    const auto all = dram::FaultSpec::parse("all@0.25");
    EXPECT_EQ(all.kinds, dram::kFaultAll);
    EXPECT_DOUBLE_EQ(all.rate, 0.25);

    const auto none = dram::FaultSpec::parse("none");
    EXPECT_FALSE(none.enabled());
    EXPECT_FALSE(dram::FaultSpec{}.enabled());
}

TEST(FaultSpec, ToStringRoundTrips)
{
    for (const char *text :
         {"flip@0.001#7", "delay+refuse@0.05#3", "all@0.25#1",
          "stuck@1e-06#42"}) {
        const auto spec = dram::FaultSpec::parse(text);
        const auto again = dram::FaultSpec::parse(spec.toString());
        EXPECT_DOUBLE_EQ(spec.rate, again.rate) << text;
        EXPECT_EQ(spec.kinds, again.kinds) << text;
        EXPECT_EQ(spec.seed, again.seed) << text;
    }
}

TEST(FaultSpec, DeviceFaultWrapsSystemMemory)
{
    sim::SystemConfig cfg = sim::SystemConfig::dynamicScheme(4, 4);
    EXPECT_FALSE(cfg.device.fault.enabled());
    // Data-only kinds: the memory spec is untouched.
    cfg.device.fault = dram::FaultSpec::parse("flip@1e-4");
    EXPECT_TRUE(cfg.device.fault.enabled());
    EXPECT_EQ(cfg.memorySpec().kind, "banked");
    // Timing kinds wrap the resolved backend in the decorator, with
    // the data kinds masked out of the decorator's share.
    cfg.device.fault = dram::FaultSpec::parse("all@1e-4#3");
    const auto spec = cfg.memorySpec();
    EXPECT_EQ(spec.kind, "faulty");
    EXPECT_EQ(spec.faultInner, "banked");
    EXPECT_EQ(spec.fault.kinds, dram::kFaultTimingMask);
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, DeterministicPerSpecAndStream)
{
    const auto spec = dram::FaultSpec::parse("all@0.2#11");
    dram::FaultInjector a(spec, 0), b(spec, 0), c(spec, 1);
    bool stream_differs = false;
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.drawIssuePenalty(), b.drawIssuePenalty());
        EXPECT_EQ(a.drawRetireDelay(), b.drawRetireDelay());
        if (c.drawIssuePenalty() != 0 || c.drawRetireDelay() != 0)
            stream_differs = true;
    }
    EXPECT_EQ(a.refusals(), b.refusals());
    EXPECT_EQ(a.delays(), b.delays());
    EXPECT_GT(a.refusals() + a.delays(), 0u);
    EXPECT_TRUE(stream_differs); // stream 1 faults independently
}

TEST(FaultInjector, CorruptsAtTheConfiguredRateAndRoundTripsState)
{
    const auto spec = dram::FaultSpec::parse("flip+stuck@0.5#5");
    dram::FaultInjector inj(spec, 2);
    std::vector<std::uint8_t> bytes(64, 0x11);
    std::uint64_t corrupted = 0;
    for (std::uint64_t bucket = 0; bucket < 100; ++bucket) {
        std::fill(bytes.begin(), bytes.end(), 0x11);
        if (inj.maybeCorrupt(bucket, bytes)) {
            ++corrupted;
            EXPECT_NE(bytes, std::vector<std::uint8_t>(64, 0x11));
        }
    }
    EXPECT_EQ(corrupted, inj.faultsInjected());
    EXPECT_GT(corrupted, 20u); // rate 0.5 over 100 draws
    EXPECT_LT(corrupted, 80u);

    // A restored injector continues the exact stream of the saved one.
    ByteWriter w;
    inj.saveState(w);
    dram::FaultInjector twin(spec, 2);
    ByteReader r(w.data());
    twin.restoreState(r);
    EXPECT_TRUE(r.atEnd());
    for (std::uint64_t bucket = 100; bucket < 140; ++bucket) {
        std::vector<std::uint8_t> x(64, 0x22), y(64, 0x22);
        EXPECT_EQ(inj.maybeCorrupt(bucket, x),
                  twin.maybeCorrupt(bucket, y));
        EXPECT_EQ(x, y);
    }
}

// ---------------------------------------------------------------------
// FaultyMemory decorator
// ---------------------------------------------------------------------

TEST(FaultyMemory, RegisteredAndRateZeroIsPassThroughOnEveryBackend)
{
    auto &reg = dram::BackendRegistry::instance();
    const auto kinds = reg.kinds();
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), "faulty"), kinds.end());

    std::vector<dram::MemRequest> reqs;
    for (std::uint64_t i = 0; i < 64; ++i)
        reqs.push_back({i * 4096 + (i % 5) * 64, 64, i % 2 == 0});

    for (const std::string kind : {"flat", "banked"}) {
        dram::BackendSpec spec;
        spec.kind = kind;
        const auto mem = reg.make(spec);
        const auto div =
            dram::compareDecoratedToBare(*mem, 0, reqs, dram::FaultSpec{});
        EXPECT_FALSE(div.diverged) << kind << " at " << div.index;
        // A data-only kind mask must also be a pass-through here.
        const auto div2 = dram::compareDecoratedToBare(
            *mem, 0, reqs, dram::FaultSpec::parse("flip+stuck@0.9#1"));
        EXPECT_FALSE(div2.diverged) << kind << " at " << div2.index;
    }
}

TEST(FaultyMemory, DelayAndRefuseRetireExactlyOnceAndLate)
{
    dram::BackendSpec spec;
    spec.kind = "faulty";
    spec.faultInner = "banked";
    spec.fault = dram::FaultSpec::parse("delay+refuse@0.2#3");
    const auto mem = dram::BackendRegistry::instance().make(spec);

    std::vector<dram::TxnToken> tokens;
    Cycles now = 0;
    for (std::uint64_t i = 0; i < 128; ++i) {
        tokens.push_back(mem->issue(now, {i * 4096, 64, i % 2 == 0}));
        now += 5;
    }
    std::vector<int> seen(tokens.size(), 0);
    Cycles last = 0;
    while (mem->nextEventAt() != dram::kNoPendingEvent) {
        const Cycles at = mem->nextEventAt();
        for (const auto &ret : mem->drainRetired(at)) {
            ASSERT_GE(ret.token, tokens.front());
            const auto idx =
                static_cast<std::size_t>(ret.token - tokens.front());
            ASSERT_LT(idx, seen.size());
            ++seen[idx];
            EXPECT_GE(ret.completed, ret.issued);
            last = std::max(last, ret.completed);
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "transaction " << i;

    const auto &inj =
        dynamic_cast<dram::FaultyMemory &>(*mem).injector();
    EXPECT_GT(inj.delays() + inj.refusals(), 0u);
}

// ---------------------------------------------------------------------
// Detection + bounded-retry recovery
// ---------------------------------------------------------------------

TEST(BucketAuthenticator, DetectsTamperedCiphertext)
{
    oram::OramConfig c = tinyConfig();
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram oram(c, map, 1);
    oram.access(5, oram::Op::Write, pattern(5));

    oram::BucketAuthenticator auth(0x3a9, c.numBuckets());
    const std::uint64_t idx = 0; // root is on every path
    auth.commit(idx, oram.bucketCiphertext(idx));
    EXPECT_TRUE(auth.verify(idx, oram.bucketCiphertext(idx)));

    oram.tamperCiphertext(idx, 3);
    EXPECT_FALSE(auth.verify(idx, oram.bucketCiphertext(idx)));
}

TEST(RecoveryEngine, BackoffSlotsAreExponential)
{
    EXPECT_EQ(oram::RecoveryEngine::backoffSlots(0), 0u);
    EXPECT_EQ(oram::RecoveryEngine::backoffSlots(1), 1u);
    EXPECT_EQ(oram::RecoveryEngine::backoffSlots(2), 3u);
    EXPECT_EQ(oram::RecoveryEngine::backoffSlots(4), 15u);
}

TEST(PathOramRecovery, InjectedFaultsAreDetectedAndRecovered)
{
    oram::OramConfig c = tinyConfig();
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram oram(c, map, 3);
    // Each retry re-reads the whole path, so fresh faults compound at
    // path-length x rate per pass — keep the rate low enough that the
    // (seeded, deterministic) run never exhausts the budget.
    oram.enableIntegrity(0x77, /*retry_budget=*/6);

    const auto spec = dram::FaultSpec::parse("flip+stuck@0.01#5");
    dram::FaultInjector inj(spec, 0);
    oram.attachFaultInjector(&inj);

    for (std::uint64_t id = 0; id < 64; ++id)
        oram.access(id, oram::Op::Write, pattern(id));
    for (std::uint64_t id = 0; id < 64; ++id)
        EXPECT_EQ(oram.access(id, oram::Op::Read), pattern(id)) << id;

    // At 5% per bucket read over 128 path accesses faults certainly
    // fired — and every one of them was recovered (reads were clean).
    EXPECT_GT(inj.faultsInjected(), 0u);
    EXPECT_GT(oram.faultsDetected(), 0u);
    EXPECT_GT(oram.faultsRecovered(), 0u);
    EXPECT_GT(oram.retriesIssued(), 0u);
    EXPECT_LE(oram.faultsRecovered(), oram.faultsDetected());
}

TEST(PathOramRecovery, FaultFreeRunsKeepZeroCounters)
{
    oram::OramConfig c = tinyConfig();
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram oram(c, map, 3);
    oram.enableIntegrity(0x77);
    for (std::uint64_t id = 0; id < 32; ++id)
        oram.access(id, oram::Op::Write, pattern(id));
    EXPECT_EQ(oram.faultsDetected(), 0u);
    EXPECT_EQ(oram.retriesIssued(), 0u);
}

// ---------------------------------------------------------------------
// Serialization + checkpoint files
// ---------------------------------------------------------------------

TEST(Serial, RoundTripsEveryFieldKind)
{
    ByteWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.b(true);
    w.f64(-2.5);
    const std::vector<std::uint8_t> raw = {1, 2, 3};
    w.bytes(raw);
    w.blob(raw);
    w.str("hello");

    ByteReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.b());
    EXPECT_DOUBLE_EQ(r.f64(), -2.5);
    std::vector<std::uint8_t> back(3);
    r.bytes(back);
    EXPECT_EQ(back, raw);
    EXPECT_EQ(r.blob(), raw);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_TRUE(r.atEnd());
}

TEST(Serial, OverrunLatchesNotOk)
{
    ByteWriter w;
    w.u32(7);
    ByteReader r(w.data());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.u64(), 0u); // overrun
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u32(), 0u); // stays latched
    EXPECT_FALSE(r.atEnd());
}

TEST(Checkpoint, SaveLoadRoundTrips)
{
    const std::string path = tmpPath("roundtrip.ckpt");
    std::vector<std::uint8_t> payload(1000);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 31);
    EXPECT_EQ(sim::saveCheckpoint(path, payload), "");
    std::vector<std::uint8_t> back;
    EXPECT_EQ(sim::loadCheckpoint(path, back), "");
    EXPECT_EQ(back, payload);
    std::remove(path.c_str());
}

TEST(Checkpoint, RejectsMissingTruncatedAndCorrupted)
{
    std::vector<std::uint8_t> back;
    EXPECT_NE(sim::loadCheckpoint(tmpPath("nonexistent.ckpt"), back), "");

    const std::string path = tmpPath("broken.ckpt");
    std::vector<std::uint8_t> payload(512, 0x5a);
    ASSERT_EQ(sim::saveCheckpoint(path, payload), "");

    // Read the frame back so we can damage it in controlled ways.
    std::ifstream in(path, std::ios::binary);
    std::vector<char> frame((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();

    const auto write_frame = [&](const std::vector<char> &bytes) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };

    // Truncated payload.
    std::vector<char> cut(frame.begin(), frame.end() - 100);
    write_frame(cut);
    back.assign(1, 0xff);
    EXPECT_NE(sim::loadCheckpoint(path, back), "");
    EXPECT_EQ(back, std::vector<std::uint8_t>{0xff}); // untouched

    // Truncated header.
    write_frame({frame.begin(), frame.begin() + 10});
    EXPECT_NE(sim::loadCheckpoint(path, back), "");

    // Corrupted payload byte (digest mismatch).
    std::vector<char> corrupt = frame;
    corrupt[corrupt.size() - 7] ^= 0x01;
    write_frame(corrupt);
    EXPECT_NE(sim::loadCheckpoint(path, back), "");

    // Bad magic.
    std::vector<char> bad_magic = frame;
    bad_magic[0] ^= 0x01;
    write_frame(bad_magic);
    EXPECT_NE(sim::loadCheckpoint(path, back), "");

    // Version skew.
    std::vector<char> bad_version = frame;
    bad_version[8] = 99;
    write_frame(bad_version);
    const std::string err = sim::loadCheckpoint(path, back);
    EXPECT_NE(err.find("version"), std::string::npos) << err;

    // The pristine frame still loads.
    write_frame(frame);
    EXPECT_EQ(sim::loadCheckpoint(path, back), "");
    EXPECT_EQ(back, payload);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// RecoveryRun checkpoint/restart determinism
// ---------------------------------------------------------------------

namespace {

sim::RecoveryRunConfig
runConfig(const std::string &kind, std::uint32_t shards,
          const std::string &fault = "")
{
    sim::RecoveryRunConfig cfg;
    cfg.inner.kind = kind;
    cfg.shards = shards;
    cfg.sessions = 2;
    cfg.txnsPerSession = 16;
    cfg.seed = 42;
    if (!fault.empty())
        cfg.inner.fault = dram::FaultSpec::parse(fault);
    return cfg;
}

/** Uninterrupted golden: streams per shard + summary row. */
struct GoldenRun
{
    std::vector<std::vector<sim::RecoveryRun::Event>> streams;
    std::string row;
};

GoldenRun
golden(const sim::RecoveryRunConfig &cfg)
{
    sim::RecoveryRun run(cfg);
    run.start();
    run.finish();
    run.verifyPayloads(4);
    GoldenRun g;
    for (std::uint32_t i = 0; i < run.shardCount(); ++i)
        g.streams.push_back(run.shardStream(i));
    g.row = run.csvRow();
    return g;
}

void
expectRestoredMatchesGolden(const sim::RecoveryRunConfig &cfg,
                            std::uint64_t kill_at)
{
    const GoldenRun g = golden(cfg);
    const std::string path = tmpPath("restart.ckpt");
    {
        sim::RecoveryRun victim(cfg);
        victim.start();
        for (std::uint64_t k = 0; k < kill_at; ++k)
            victim.serveOne();
        ASSERT_EQ(victim.saveTo(path), "");
    }
    sim::RecoveryRun resumed(cfg);
    ASSERT_EQ(resumed.restoreFrom(path), "");
    EXPECT_EQ(resumed.servedTotal(), kill_at);
    resumed.finish();
    resumed.verifyPayloads(4);
    EXPECT_EQ(resumed.csvRow(), g.row);
    for (std::uint32_t i = 0; i < resumed.shardCount(); ++i)
        EXPECT_TRUE(resumed.shardStream(i) == g.streams[i])
            << "shard " << i;
    std::remove(path.c_str());
}

} // namespace

TEST(RecoveryRun, RestoredTimingRunReplaysGoldenStream)
{
    expectRestoredMatchesGolden(runConfig("timing", 1), 9);
}

TEST(RecoveryRun, RestoredFunctionalRunReplaysGoldenStream)
{
    expectRestoredMatchesGolden(runConfig("functional", 1), 13);
}

TEST(RecoveryRun, RestoredShardedFaultyRunReplaysGoldenStream)
{
    expectRestoredMatchesGolden(
        runConfig("functional", 4, "flip+stuck@2e-3#9"), 21);
}

TEST(RecoveryRun, RestoredEvictingRunReplaysGoldenStream)
{
    // Wide-rate pipelined run with the background eviction engine on:
    // evictions fire inside every enforced gap, and a mid-run kill/
    // restore must replay the uninterrupted eviction schedule bit for
    // bit (debt and the schedule counter ride the checkpoint).
    auto cfg = runConfig("timing", 1);
    cfg.inner.pathMode = oram::PathMode::Pipelined;
    cfg.inner.evictionPolicy = oram::EvictionPolicy::Gap;
    cfg.inner.evictionBudget = 16;
    cfg.rate = 2500;

    GoldenRun g;
    std::uint64_t golden_evictions = 0;
    {
        sim::RecoveryRun run(cfg);
        run.start();
        run.finish();
        for (std::uint32_t i = 0; i < run.shardCount(); ++i)
            g.streams.push_back(run.shardStream(i));
        g.row = run.csvRow();
        golden_evictions = run.evictionsIssued();
        ASSERT_GT(golden_evictions, 0u)
            << "the case must actually exercise the engine";
    }

    const std::string path = tmpPath("evict_restart.ckpt");
    {
        sim::RecoveryRun victim(cfg);
        victim.start();
        for (std::uint64_t k = 0; k < 11; ++k)
            victim.serveOne();
        ASSERT_EQ(victim.saveTo(path), "");
    }
    sim::RecoveryRun resumed(cfg);
    ASSERT_EQ(resumed.restoreFrom(path), "");
    resumed.finish();
    EXPECT_EQ(resumed.csvRow(), g.row);
    EXPECT_EQ(resumed.evictionsIssued(), golden_evictions);
    for (std::uint32_t i = 0; i < resumed.shardCount(); ++i)
        EXPECT_TRUE(resumed.shardStream(i) == g.streams[i])
            << "shard " << i;
    std::remove(path.c_str());
}

TEST(RecoveryRun, RestoredEvictingBurstReplaysGoldenStream)
{
    // Saturating burst (rate far below occupancy): no eviction fits
    // mid-burst, so the checkpoint carries peak deferral debt — the
    // restored run must still land on the golden stream.
    auto cfg = runConfig("timing", 1);
    cfg.inner.pathMode = oram::PathMode::Pipelined;
    cfg.inner.evictionPolicy = oram::EvictionPolicy::Gap;
    cfg.inner.evictionBudget = 1u << 12;
    cfg.rate = 64;
    expectRestoredMatchesGolden(cfg, 11);
}

TEST(RecoveryRun, RestoreRejectsMismatchedEvictionConfig)
{
    auto cfg = runConfig("timing", 1);
    cfg.inner.pathMode = oram::PathMode::Pipelined;
    cfg.inner.evictionPolicy = oram::EvictionPolicy::Gap;
    cfg.inner.evictionBudget = 16;
    const std::string path = tmpPath("evict_mismatch.ckpt");
    {
        sim::RecoveryRun run(cfg);
        run.start();
        run.serveOne();
        ASSERT_EQ(run.saveTo(path), "");
    }
    // Restoring under a different eviction budget would silently shift
    // the deferral pattern mid-stream: the chain must fail loudly.
    auto other = cfg;
    other.inner.evictionBudget = 8;
    sim::RecoveryRun victim(other);
    EXPECT_DEATH(
        {
            auto r = victim.restoreFrom(path);
            (void)r;
        },
        "budget");
    std::remove(path.c_str());
}

TEST(TimingOramDeviceSnapshot, RejectsPatchedGeometryBytes)
{
    // The timing device's snapshot carries the calibrated per-access
    // geometry (bytes, chunks, crypto calls); a payload whose geometry
    // words were altered must be rejected, not silently adopted.
    const auto cfg = tinyConfig(1 << 10);
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(7);
    oram::TimingOramDevice dev(cfg, mem, rng);
    dev.submit(0, timing::OramTransaction::real(0));
    ByteWriter w;
    dev.saveState(w);

    // The pristine snapshot restores into an identically built twin.
    {
        dram::DramModel m2{dram::DramConfig{}};
        Rng r2(7);
        oram::TimingOramDevice twin(cfg, m2, r2);
        ByteReader r(w.data());
        twin.restoreState(r);
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(twin.realAccesses(), dev.realAccesses());
    }

    // Field order: latency, occupancy, bytes/access, ... as fixed
    // 8-byte words — byte 16 is the low byte of bytesPerAccess.
    std::vector<std::uint8_t> patched = w.data();
    ASSERT_GT(patched.size(), 17u);
    patched[16] ^= 1;
    EXPECT_DEATH(
        {
            dram::DramModel m3{dram::DramConfig{}};
            Rng r3(7);
            oram::TimingOramDevice victim(cfg, m3, r3);
            ByteReader r(patched);
            victim.restoreState(r);
        },
        "bucket geometry");
}

TEST(RecoveryRun, SnapshotBytesAreDeterministic)
{
    const auto cfg = runConfig("functional", 2, "flip@1e-3#9");
    const std::string p1 = tmpPath("det1.ckpt");
    const std::string p2 = tmpPath("det2.ckpt");
    for (const auto &p : {p1, p2}) {
        sim::RecoveryRun run(cfg);
        run.start();
        for (int k = 0; k < 11; ++k)
            run.serveOne();
        ASSERT_EQ(run.saveTo(p), "");
    }
    std::vector<std::uint8_t> a, b;
    ASSERT_EQ(sim::loadCheckpoint(p1, a), "");
    ASSERT_EQ(sim::loadCheckpoint(p2, b), "");
    EXPECT_EQ(a, b);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(RecoveryRun, RestoreRejectsMismatchedConfiguration)
{
    const std::string path = tmpPath("mismatch.ckpt");
    {
        sim::RecoveryRun run(runConfig("timing", 2));
        run.start();
        run.serveOne();
        ASSERT_EQ(run.saveTo(path), "");
    }
    // Same checkpoint, different shard count: the restore chain must
    // fail loudly rather than silently resume a different topology.
    sim::RecoveryRun other(runConfig("timing", 1));
    EXPECT_DEATH(
        {
            auto r = other.restoreFrom(path);
            (void)r;
        },
        "");
    std::remove(path.c_str());
}

TEST(RecoveryRun, GoldenPinnedObservableStream)
{
    // Cross-run, cross-platform pinned stream for the M = 1 timing run
    // at seed 42: AES-keyed calibration and fixed-point timing, so
    // these values never drift. If they change, checkpoint/restart
    // golden comparisons silently lose their meaning — that is a bug,
    // not a fixture to regenerate.
    sim::RecoveryRun run(runConfig("timing", 1));
    run.start();
    run.finish();
    const auto s = run.shardStream(0);
    ASSERT_EQ(s.size(), 40u);
    EXPECT_EQ(s[0].start, 1000u);
    EXPECT_EQ(s[1].start, 2690u);
    EXPECT_EQ(s[2].start, 4380u);
    EXPECT_EQ(s[3].start, 6070u);
    EXPECT_TRUE(s[0].real);
    EXPECT_EQ(run.lastRealCompletion(), 54080u);
    EXPECT_EQ(run.servedTotal(), 32u);
}

TEST(RecoveryRun, FaultChargingKeepsStreamOnFaultFreeGrid)
{
    // The leak-free claim at test scale: the faulty run's access-start
    // sequence equals the fault-free run's over the common prefix.
    const auto clean_cfg = runConfig("functional", 1);
    const auto faulty_cfg = runConfig("functional", 1, "flip@5e-3#9");
    const GoldenRun clean = golden(clean_cfg);

    sim::RecoveryRun faulty(faulty_cfg);
    faulty.start();
    faulty.finish();
    EXPECT_EQ(faulty.verifyPayloads(4), 0u);
    EXPECT_GT(faulty.faultsDetected(), 0u);
    const auto stream = faulty.shardStream(0);
    const std::size_t n = std::min(stream.size(), clean.streams[0].size());
    ASSERT_GT(n, 0u);
    for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(stream[j].start, clean.streams[0][j].start) << j;
}

/**
 * The enforced CPU path under injected data faults: recovered
 * transactions owe backoff slots that fire across epoch boundaries,
 * with the transitions applied in between. Pinned rows (cross-run,
 * cross-platform like the golden stream above) for one enforcer over
 * the whole functional device and one per shard of a 4-way array.
 */
TEST(SecureProcessorFaults, PinnedRowsWithRecoveryAcrossEpochs)
{
    struct Case
    {
        std::uint32_t shards;
        const char *row;
        std::uint64_t recoverySlots;
    };
    const Case cases[] = {
        {1,
         "dynamic_R4_E2,mcf,150000,4638716,0.0323365,0.666234,0.047541,"
         "5274,5275,590,0.100597,530,12672,7,14,64",
         428},
        {4,
         "dynamic_R4_E2,mcf,150000,87678600,0.00171079,0.143011,"
         "0.0375577,5274,5275,18265,0.775913,489,9984,11,88,256",
         323},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.shards);
        auto cfg = sim::SystemConfig::dynamicScheme(4, 2);
        cfg.device.kind = "functional";
        cfg.device.fault = dram::FaultSpec::parse("flip@2e-3#5");
        cfg.epoch0 = Cycles{1} << 15;
        cfg.oram.numBlocks = 1 << 12;
        cfg.device.functionalBlockCap = 1 << 12;
        cfg.device.shards = c.shards;
        sim::SecureProcessor proc(cfg, workload::specProfile("mcf"));
        const sim::SimResult r = proc.run(150'000, 50'000);
        EXPECT_EQ(sim::csvRow(r), c.row);

        std::uint64_t slots = 0;
        for (const auto &enf : proc.enforcers())
            slots += enf->counters().recoverySlots();
        EXPECT_GT(slots, 0u);
        EXPECT_EQ(slots, c.recoverySlots);
        EXPECT_GT(r.epochsUsed, 2u);
    }
}
