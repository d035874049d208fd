/**
 * @file
 * Transactional ORAM device layer: TimingOramDevice/FunctionalOramDevice
 * semantics, the factory's error handling, and the PR's core equality
 * claim — a full-system run charges bit-identical stats whichever
 * device backend serves it, because the functional datapath reuses the
 * timing device's calibration, counters and cost attribution.
 */

#include <gtest/gtest.h>

#include "crypto/sha256.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "workload/spec_suite.hh"

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

} // namespace

TEST(TimingOramDevice, SubmitSerializesAndAttributesCosts)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(1);
    oram::TimingOramDevice dev(tinyConfig(), mem, rng);

    const auto c1 = dev.submit(0, timing::OramTransaction::real(7));
    EXPECT_EQ(c1.start, 0u);
    EXPECT_EQ(c1.done, dev.accessLatency());
    EXPECT_EQ(c1.bytesMoved, dev.bytesPerAccess());
    EXPECT_EQ(c1.cryptoBytes, dev.cryptoBytesPerAccess());
    EXPECT_EQ(c1.cryptoCalls, dev.cryptoCallsPerAccess());

    // A dummy submitted mid-flight serializes behind the real access
    // and costs exactly the same — the indistinguishability invariant.
    const auto c2 = dev.submit(c1.done / 2, timing::OramTransaction::dummy());
    EXPECT_EQ(c2.start, c1.done);
    EXPECT_EQ(c2.done, c1.done + dev.accessLatency());
    EXPECT_EQ(c2.cryptoBytes, c1.cryptoBytes);

    EXPECT_EQ(dev.realAccesses(), 1u);
    EXPECT_EQ(dev.dummyAccesses(), 1u);
    EXPECT_STREQ(dev.kind(), "timing");
}

TEST(TimingOramDevice, PinnedCalibrationAndCheckpointBytes)
{
    // Calibration and run state at bench geometry, recorded before the
    // controller and the device became one class: OLAT, occupancy, the
    // per-access byte and crypto costs, and the saveState bytes after a
    // fixed submit/maybeEvict sequence must never drift.
    const struct
    {
        const char *name;
        oram::PathMode mode;
        oram::EvictionConfig evict;
        Cycles latency;
        Cycles occupancy;
        std::uint64_t bytes;
        std::uint64_t cryptoCalls;
        const char *stateDigest;
    } cases[] = {
        {"sync", oram::PathMode::Sync, {}, 768, 768, 18048, 8,
         "b3cde7ff184cba401dc197d1c0c90e492f9634f34771415c2b83a18f128dca90"},
        {"pipelined_highwater", oram::PathMode::Pipelined,
         {oram::EvictionPolicy::HighWater, 8}, 381, 749, 18048, 8,
         "f44b985d5e4bc1706e094a24d862baac841a0727b46a9d1b929d0d0abce3e193"},
    };
    for (const auto &c : cases) {
        dram::DramModel mem{dram::DramConfig{}};
        Rng rng(7);
        oram::TimingOramDevice dev(oram::OramConfig::benchConfig(), mem, rng,
                                   c.mode, c.evict);
        EXPECT_EQ(dev.accessLatency(), c.latency) << c.name;
        EXPECT_EQ(dev.occupancyPerAccess(), c.occupancy) << c.name;
        EXPECT_EQ(dev.bytesPerAccess(), c.bytes) << c.name;
        EXPECT_EQ(dev.cryptoCallsPerAccess(), c.cryptoCalls) << c.name;

        std::uint32_t evictions = 0;
        for (std::uint64_t i = 0; i < 40; ++i) {
            const auto txn = i % 3 == 0
                                 ? timing::OramTransaction::dummy()
                                 : timing::OramTransaction::real(i, i % 2);
            const auto done = dev.submit(i * 500, txn).done;
            if (i % 5 == 4)
                evictions +=
                    dev.maybeEvict(done + 3 * dev.occupancyPerAccess())
                        .evictions;
        }
        if (c.evict.policy != oram::EvictionPolicy::Off)
            EXPECT_GT(evictions, 0u) << c.name;
        ByteWriter w;
        dev.saveState(w);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(w.data())),
                  c.stateDigest)
            << c.name;
    }
}

TEST(FunctionalOramDevice, MovesRealDataWithTimingCharging)
{
    const auto cfg = tinyConfig();
    dram::DramModel mem_t{dram::DramConfig{}};
    dram::DramModel mem_f{dram::DramConfig{}};
    Rng rng_t(9), rng_f(9);
    oram::TimingOramDevice timing_dev(cfg, mem_t, rng_t);
    oram::FunctionalOramDevice func_dev(cfg, mem_f, rng_f, /*key_seed=*/77);

    EXPECT_STREQ(func_dev.kind(), "functional");
    EXPECT_EQ(func_dev.functionalBlocks(), cfg.numBlocks);

    // Write through the transaction API, read back through it.
    std::vector<std::uint8_t> payload(cfg.blockBytes);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(0xA0 + i);
    std::vector<std::uint8_t> out(cfg.blockBytes, 0);

    auto wr = timing::OramTransaction::real(123, /*is_write=*/true);
    wr.data = payload;
    wr.out = out;
    const std::uint64_t calls0 = func_dev.functionalOram().cryptoCalls();
    const auto cw = func_dev.submit(0, wr);
    // The modeled per-access crypto count is what the datapath really
    // issues (uncapped tree: model and datapath share one geometry).
    EXPECT_EQ(func_dev.functionalOram().cryptoCalls() - calls0,
              cw.cryptoCalls);

    auto rd = timing::OramTransaction::real(123, /*is_write=*/false);
    rd.out = out;
    const auto cr = func_dev.submit(cw.done, rd);
    EXPECT_EQ(out, payload) << "functional datapath must round-trip data";

    // Identical cycle charging to the timing device, access by access.
    const auto t1 = timing_dev.submit(0, timing::OramTransaction::real(123));
    const auto t2 =
        timing_dev.submit(t1.done, timing::OramTransaction::real(123));
    EXPECT_EQ(cw.start, t1.start);
    EXPECT_EQ(cw.done, t1.done);
    EXPECT_EQ(cr.done, t2.done);
    EXPECT_EQ(cw.cryptoBytes, t1.cryptoBytes);
    EXPECT_EQ(cw.cryptoCalls, t1.cryptoCalls);
    EXPECT_EQ(func_dev.accessLatency(), timing_dev.accessLatency());

    // Dummies run the whole datapath too.
    const std::uint64_t calls1 = func_dev.functionalOram().cryptoCalls();
    const auto cd = func_dev.submit(cr.done, timing::OramTransaction::dummy());
    EXPECT_EQ(cd.done - cd.start, func_dev.accessLatency());
    EXPECT_EQ(func_dev.functionalOram().cryptoCalls() - calls1,
              cd.cryptoCalls);
    EXPECT_EQ(func_dev.realAccesses(), 2u);
    EXPECT_EQ(func_dev.dummyAccesses(), 1u);
    EXPECT_GT(func_dev.dataBytesMoved(), 0u);
}

TEST(FunctionalOramDevice, CapFoldsBlockIdsButKeepsModelCosts)
{
    auto cfg = tinyConfig();
    dram::DramModel mem{dram::DramConfig{}};
    dram::DramModel mem_ref{dram::DramConfig{}};
    Rng rng(3), rng_ref(3);
    oram::FunctionalOramDevice capped(cfg, mem, rng, 5, /*cap=*/256);
    oram::TimingOramDevice reference(cfg, mem_ref, rng_ref);

    EXPECT_EQ(capped.functionalBlocks(), 256u);
    // Charging still reflects the modeled (uncapped) geometry.
    EXPECT_EQ(capped.accessLatency(), reference.accessLatency());
    EXPECT_EQ(capped.bytesPerAccess(), reference.bytesPerAccess());

    // An id beyond the cap folds into the functional tree.
    std::vector<std::uint8_t> out(cfg.blockBytes, 0);
    auto txn = timing::OramTransaction::real(cfg.numBlocks - 1);
    txn.out = out;
    const auto c = capped.submit(0, txn);
    EXPECT_EQ(c.done - c.start, capped.accessLatency());
}

TEST(OramDeviceFactory, UnknownKindDiesWithRegisteredList)
{
    const auto cfg = tinyConfig();
    EXPECT_EXIT(
        {
            dram::DramModel mem{dram::DramConfig{}};
            Rng rng(1);
            oram::OramDeviceSpec spec;
            spec.kind = "quantum";
            oram::makeOramDevice(spec, cfg, mem, rng);
        },
        ::testing::ExitedWithCode(1), "unknown ORAM device kind");
}

TEST(DeviceSpecCheck, UnknownKindDies)
{
    oram::OramDeviceSpec spec;
    oram::checkDeviceSpec(spec); // the defaults are consistent
    spec.kind = "bogus";
    EXPECT_EXIT(oram::checkDeviceSpec(spec), ::testing::ExitedWithCode(1),
                "unknown ORAM device kind \"bogus\"");
}

TEST(DeviceSpecCheck, SecureProcessorChecksEveryScheme)
{
    // base_dram builds no ORAM device, yet an ill-formed spec still
    // dies at construction rather than being silently ignored.
    EXPECT_EXIT(
        {
            auto cfg = sim::SystemConfig::baseDram();
            cfg.device.kind = "bogus";
            sim::SecureProcessor proc(cfg, workload::specProfile("mcf"));
        },
        ::testing::ExitedWithCode(1), "unknown ORAM device kind");
    EXPECT_EXIT(
        {
            auto cfg = sim::SystemConfig::baseDram();
            cfg.device.shards = oram::OramDeviceSpec::kMaxShards + 1;
            sim::SecureProcessor proc(cfg, workload::specProfile("mcf"));
        },
        ::testing::ExitedWithCode(1), "shards must be in \\[1, 64\\], got 65");
}

TEST(AsyncDevice, PipelinedSubmitReportsOlatAndOccupancy)
{
    const auto cfg = tinyConfig();
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::TimingOramDevice dev(cfg, mem, rng, oram::PathMode::Pipelined);

    const Cycles lat = dev.accessLatency();
    const Cycles occ = dev.occupancyPerAccess();
    ASSERT_GT(occ, lat);

    // Completion math through the transaction API: done = start + OLAT;
    // the next submission is gated by the write-back tail, and a dummy
    // pays the identical schedule (indistinguishability).
    const auto c1 = dev.submit(0, timing::OramTransaction::real(3));
    EXPECT_EQ(c1.start, 0u);
    EXPECT_EQ(c1.done, lat);
    const auto c2 = dev.submit(c1.done, timing::OramTransaction::dummy());
    EXPECT_EQ(c2.start, occ);
    EXPECT_EQ(c2.done, occ + lat);
    EXPECT_EQ(c2.bytesMoved, c1.bytesMoved);
}

TEST(AsyncDevice, FunctionalPipelinedChargesLikeTimingPipelined)
{
    // The functional datapath is schedule-independent; only the
    // charging changes with the mode — and it must match the timing
    // device under the same seed, exactly as in sync mode.
    const auto cfg = tinyConfig();
    dram::DramModel mem_t{dram::DramConfig{}};
    dram::DramModel mem_f{dram::DramConfig{}};
    Rng rng_t(13), rng_f(13);
    oram::TimingOramDevice timing_dev(cfg, mem_t, rng_t,
                                      oram::PathMode::Pipelined);
    oram::FunctionalOramDevice func_dev(cfg, mem_f, rng_f, /*key_seed=*/5,
                                        /*cap=*/0,
                                        crypto::CryptoBackend::Auto,
                                        oram::PathMode::Pipelined);
    EXPECT_EQ(func_dev.accessLatency(), timing_dev.accessLatency());
    EXPECT_EQ(func_dev.occupancyPerAccess(),
              timing_dev.occupancyPerAccess());

    std::vector<std::uint8_t> payload(cfg.blockBytes, 0x5a);
    std::vector<std::uint8_t> out(cfg.blockBytes, 0);
    auto wr = timing::OramTransaction::real(9, /*is_write=*/true);
    wr.data = payload;
    const auto cw = func_dev.submit(0, wr);
    auto rd = timing::OramTransaction::real(9, /*is_write=*/false);
    rd.out = out;
    func_dev.submit(cw.done, rd);
    EXPECT_EQ(out, payload)
        << "pipelined charging must not disturb the datapath";
}

TEST(RecordingOramDevice, CapturesTheObservableStream)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(4);
    oram::TimingOramDevice inner(tinyConfig(), mem, rng);
    timing::RecordingOramDevice dev(inner);

    const auto c1 = dev.submit(0, timing::OramTransaction::real(1));
    dev.submit(c1.done, timing::OramTransaction::dummy());
    ASSERT_EQ(dev.records().size(), 2u);
    EXPECT_EQ(dev.records()[0].kind, timing::OramTransaction::Kind::Real);
    EXPECT_EQ(dev.records()[1].kind, timing::OramTransaction::Kind::Dummy);
    EXPECT_EQ(dev.startCycles(),
              (std::vector<Cycles>{c1.start, c1.done}));
    EXPECT_EQ(dev.realAccesses(), 1u);
    EXPECT_EQ(dev.dummyAccesses(), 1u);
}

/**
 * The PR's headline equality: a whole SecureProcessor run — cycles,
 * IPC, power, leakage, every CSV column — is bit-identical whether the
 * timing model or the real functional datapath serves the accesses.
 */
TEST(DeviceEquality, FullRunStatsAreBitIdenticalAcrossDevices)
{
    std::vector<sim::SystemConfig> configs = {
        sim::SystemConfig::baseOram(),
        sim::SystemConfig::dynamicScheme(4, 4),
        sim::SystemConfig::staticScheme(600),
    };
    const auto prof = workload::specProfile("mcf");
    for (auto &cfg : configs) {
        cfg.oram = oram::OramConfig::benchConfig();
        cfg.epoch0 = Cycles{1} << 16;
        cfg.ipcWindow = 50'000;

        sim::SystemConfig cfg_t = cfg;
        cfg_t.device.kind = "timing";
        sim::SystemConfig cfg_f = cfg;
        cfg_f.device.kind = "functional";

        const auto rt = sim::runOne(cfg_t, prof, 60'000, 120'000);
        const auto rf = sim::runOne(cfg_f, prof, 60'000, 120'000);
        EXPECT_EQ(sim::csvRow(rt), sim::csvRow(rf))
            << cfg.name << ": functional device drifted from timing";
        EXPECT_EQ(rt.cryptoBytes, rf.cryptoBytes) << cfg.name;
        EXPECT_EQ(rt.cryptoCalls, rf.cryptoCalls) << cfg.name;
        EXPECT_EQ(rt.rateDecisions.size(), rf.rateDecisions.size())
            << cfg.name;
        for (std::size_t i = 0; i < rt.rateDecisions.size(); ++i)
            EXPECT_EQ(rt.rateDecisions[i].rate, rf.rateDecisions[i].rate)
                << cfg.name << " decision " << i;
    }
}
