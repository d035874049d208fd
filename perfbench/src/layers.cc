#include "layers.hh"

#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "crypto/crypto_engine.hh"
#include "dram/backend_registry.hh"
#include "dram/dram_model.hh"
#include "dram/flat_memory.hh"
#include "oram/oram_device.hh"
#include "oram/path_oram.hh"
#include "oram/sharded_device.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_enforcer.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"
#include "workload/workload_source.hh"

namespace tcbench {

using namespace tcoram;

LayerSheet::LayerSheet()
{
    for (const char *cfg : kGridConfigNames)
        metrics_.push_back({std::string("sim.cell_host_s.") + cfg, 0.0, "s"});
    static const std::pair<const char *, const char *> kRest[] = {
        {"sim.ctor_s", "s"},
        {"sim.warmup_host_share", "1"},
        {"sim.slowdown_x", "x"},
        {"sim.power_w", "W"},
        {"cache.llc_mpki", "1/kinst"},
        {"cpu.ipc", "inst/cycle"},
        {"dram.requests_per_kinst", "1/kinst"},
        {"dram.host_ns_per_request", "ns"},
        {"dram.host_share", "1"},
        {"timing.epochs_used", "count"},
        {"timing.rate_changes", "count"},
        {"timing.leak_bits", "bits"},
        {"timing.serve_host_ns", "ns"},
        {"oram.real_submit_host_us", "us"},
        {"oram.dummy_submit_host_us", "us"},
        {"oram.stash_high_water", "blocks"},
        {"oram.bytes_per_txn", "B"},
        {"oram.timing_submit_host_ns", "ns"},
        {"crypto.host_ns_per_block", "ns"},
        {"crypto.calls_per_txn", "1"},
        {"crypto.bytes_per_txn", "B"},
        {"crypto.host_share", "1"},
        {"workload.getnext_host_ns", "ns"},
        {"workload.getnext_host_share", "1"},
        {"kv.txn_per_op", "1"},
        {"kv.probes_per_op", "1"},
        {"kv.spill_blocks_per_put", "1"},
        {"kv.get_hit_frac", "1"},
        {"kv.residual_host_share", "1"},
        {"kv.get_p50_cycles", "cycles"},
        {"kv.get_tail_cycles", "cycles"},
        {"kv.get_tail_pct", "%"},
        {"kv.get_tail_samples", "count"},
        {"kv.put_p50_cycles", "cycles"},
        {"kv.put_tail_cycles", "cycles"},
        {"kv.put_tail_pct", "%"},
        {"kv.put_tail_samples", "count"},
        {"trace.overhead_frac", "1"},
    };
    for (const auto &[name, unit] : kRest)
        metrics_.push_back({name, 0.0, unit});
}

void
LayerSheet::set(const std::string &name, double value)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    tcoram_fatal("tcbench: no per-layer metric named ", name);
}

namespace {

double
nsPer(Clock::time_point t0, std::uint64_t n)
{
    return secondsSince(t0) * 1e9 / static_cast<double>(n);
}

/** RateEnforcer::serve on the dynamic_R4_E4 stack (timing device at
 *  the paper geometry), arrivals at random gaps around the rates. */
double
driveRateEnforcer(std::uint64_t seed)
{
    dram::DramModel mem(dram::DramConfig{});
    Rng rng(seed);
    oram::OramDeviceSpec spec; // timing-only
    auto dev = oram::makeOramDevice(spec, oram::OramConfig::paperConfig(),
                                    mem, rng);
    const timing::RateSet rates(4, 256, 32768, timing::RateSet::Spacing::Log);
    const timing::EpochSchedule schedule(Cycles{1} << 18, 4, Cycles{1} << 40);
    const timing::RateLearner learner(rates);
    timing::RateEnforcer enf(*dev, rates, schedule, learner, 10000);
    constexpr std::uint64_t kServes = 200'000;
    Cycles arrival = 0;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < kServes; ++i) {
        arrival += rng.nextBounded(4000);
        const auto c = enf.serve(
            arrival, timing::OramTransaction::real(rng.nextBounded(1u << 20)));
        arrival = std::max(arrival, c.done);
    }
    return nsPer(t0, kServes);
}

} // namespace

LayerDrives
driveLayers(std::uint64_t seed)
{
    LayerDrives d;
    d.timingServeNs = driveRateEnforcer(seed);

    // Sharded functional device at the KV geometry: the datapath every
    // KV transaction takes (path read/decrypt, stash, encrypt/write).
    {
        dram::DramModel mem(dram::DramConfig{});
        Rng rng(mixSeed(seed, 1));
        oram::OramDeviceSpec spec;
        spec.kind = "sharded";
        spec.innerKind = "functional";
        spec.shards = kKvShards;
        spec.keySeed = mixSeed(seed, 2);
        spec.routeSeed = mixSeed(seed, 3);
        auto dev = oram::makeOramDevice(
            spec, oram::OramConfig::benchConfig(), mem, rng);
        auto &sharded = dynamic_cast<oram::ShardedOramDevice &>(*dev);
        const std::uint64_t kv_blocks =
            kKvHomeSlots * (1 + kKvSpillPerSlot);
        auto datapath_calls = [&sharded] {
            std::uint64_t n = 0;
            for (std::uint32_t i = 0; i < sharded.shardCount(); ++i) {
                const auto *f =
                    dynamic_cast<const oram::FunctionalOramDevice *>(
                        &sharded.shard(i));
                if (f != nullptr)
                    n += f->functionalOram().cryptoCalls();
            }
            return n;
        };
        // Untimed warm-up first: a fresh tree's first accesses pay cold
        // caches and page faults that a serving run has long amortized.
        constexpr std::uint64_t kTxns = 4000;
        Cycles now = 0;
        for (std::uint64_t i = 0; i < kTxns; ++i)
            now = dev->submit(now, timing::OramTransaction::real(
                                       rng.nextBounded(kv_blocks),
                                       /*is_write=*/(i & 1) != 0))
                      .done;
        const std::uint64_t calls0 = datapath_calls();
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kTxns; ++i)
            now = dev->submit(now, timing::OramTransaction::real(
                                       rng.nextBounded(kv_blocks),
                                       /*is_write=*/(i & 1) != 0))
                      .done;
        d.oramRealSubmitUs = nsPer(t0, kTxns) * 1e-3;
        t0 = Clock::now();
        for (std::uint64_t i = 0; i < kTxns; ++i)
            now = sharded.shard(static_cast<std::uint32_t>(i % kKvShards))
                      .submit(now, timing::OramTransaction::dummy())
                      .done;
        d.oramDummySubmitUs = nsPer(t0, kTxns) * 1e-3;
        d.cryptoCallsPerTxn =
            static_cast<double>(datapath_calls() - calls0) / (2.0 * kTxns);
        for (std::uint32_t i = 0; i < sharded.shardCount(); ++i) {
            const auto *f = dynamic_cast<const oram::FunctionalOramDevice *>(
                &sharded.shard(i));
            if (f != nullptr)
                d.oramStashHighWater = std::max(
                    d.oramStashHighWater,
                    static_cast<double>(
                        f->functionalOram().dataOram().stash().highWater()));
        }
        const auto &s0 = sharded.shard(0);
        d.oramBytesPerTxn = static_cast<double>(s0.bytesPerAccess());
        d.cryptoBytesPerTxn = static_cast<double>(s0.cryptoBytesPerAccess());
        if (s0.cryptoCallsPerAccess() > 0)
            d.cryptoBlocksPerCall =
                static_cast<double>(s0.cryptoBytesPerAccess()) /
                static_cast<double>(s0.cryptoCallsPerAccess()) / 16.0;
    }

    // Timing-only device at the paper geometry (the grid's device).
    {
        dram::DramModel mem(dram::DramConfig{});
        Rng rng(mixSeed(seed, 4));
        auto dev = oram::makeOramDevice(oram::OramDeviceSpec{},
                                        oram::OramConfig::paperConfig(), mem,
                                        rng);
        constexpr std::uint64_t kTxns = 1'000'000;
        Cycles now = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kTxns; ++i)
            now = dev->submit(now, timing::OramTransaction::real(i)).done;
        d.oramTimingSubmitNs = nsPer(t0, kTxns);
    }

    // Crypto engine at the functional path's batch size.
    {
        crypto::Key128 key{};
        Rng rng(mixSeed(seed, 5));
        for (auto &b : key)
            b = static_cast<std::uint8_t>(rng.next());
        const auto engine = crypto::makeCryptoEngine(key);
        const std::size_t batch =
            d.cryptoBlocksPerCall >= 1.0
                ? static_cast<std::size_t>(d.cryptoBlocksPerCall)
                : 64;
        std::vector<crypto::Block128> blocks(batch);
        for (auto &b : blocks)
            for (auto &x : b)
                x = static_cast<std::uint8_t>(rng.next());
        const std::uint64_t calls = (8u << 20) / batch;
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < calls; ++i)
            engine->encryptBlocks(blocks);
        d.cryptoNsPerBlock = nsPer(t0, calls * batch);
    }
    return d;
}

LayerDrives
medianOf(const std::vector<LayerDrives> &drives)
{
    LayerDrives m;
    auto field = [&drives](double LayerDrives::*f) {
        std::vector<double> v;
        for (const LayerDrives &d : drives)
            v.push_back(d.*f);
        return median(v);
    };
    for (double LayerDrives::*f :
         {&LayerDrives::timingServeNs, &LayerDrives::oramRealSubmitUs,
          &LayerDrives::oramDummySubmitUs, &LayerDrives::oramStashHighWater,
          &LayerDrives::oramBytesPerTxn, &LayerDrives::cryptoCallsPerTxn,
          &LayerDrives::cryptoBytesPerTxn, &LayerDrives::cryptoBlocksPerCall,
          &LayerDrives::oramTimingSubmitNs, &LayerDrives::cryptoNsPerBlock})
        m.*f = field(f);
    return m;
}

namespace {

/** Forwards every call to @p inner, counting and timing requests. */
class CountingMemory : public dram::MemoryIf
{
  public:
    CountingMemory(std::unique_ptr<dram::MemoryIf> inner,
                   DramCounters &counters)
        : inner_(std::move(inner)), counters_(counters)
    {
    }

    dram::TxnToken
    issue(Cycles now, const dram::MemRequest &req) override
    {
        const std::int64_t t0 = nowNs();
        const dram::TxnToken t = inner_->issue(now, req);
        note(1, t0);
        return t;
    }

    Cycles nextEventAt() const override { return inner_->nextEventAt(); }

    std::span<const dram::Retired>
    drainRetired(Cycles up_to) override
    {
        return inner_->drainRetired(up_to);
    }

    Cycles
    access(Cycles now, const dram::MemRequest &req) override
    {
        const std::int64_t t0 = nowNs();
        const Cycles done = inner_->access(now, req);
        note(1, t0);
        return done;
    }

    Cycles
    accessBatch(Cycles now, std::span<const dram::MemRequest> reqs) override
    {
        const std::int64_t t0 = nowNs();
        const Cycles done = inner_->accessBatch(now, reqs);
        note(reqs.size(), t0);
        return done;
    }

    void resetTiming() override { inner_->resetTiming(); }
    std::uint64_t requestCount() const override
    {
        return inner_->requestCount();
    }
    std::uint64_t bytesMoved() const override { return inner_->bytesMoved(); }

  private:
    void
    note(std::uint64_t requests, std::int64_t t0)
    {
        counters_.requests.fetch_add(requests, std::memory_order_relaxed);
        counters_.hostNs.fetch_add(static_cast<std::uint64_t>(nowNs() - t0),
                                   std::memory_order_relaxed);
    }

    std::unique_ptr<dram::MemoryIf> inner_;
    DramCounters &counters_;
};

/** "kv" source wrapper: one span per getNext(). */
class TimedKvSource : public workload::WorkloadSource
{
  public:
    TimedKvSource(const workload::WorkloadParams &params,
                  std::unique_ptr<workload::WorkloadSource> inner,
                  SpanLog *log)
        : WorkloadSource(params), inner_(std::move(inner)), log_(log)
    {
    }

    const char *method() const override { return kTimedKvMethod; }

    workload::WorkloadOp
    getNext(std::uint32_t rank) override
    {
        SpanLog::Scope span(*log_, "workload.getNext");
        return inner_->getNext(rank);
    }

  private:
    std::unique_ptr<workload::WorkloadSource> inner_;
    SpanLog *log_;
};

} // namespace

DramCounters &
countingDram()
{
    static DramCounters counters;
    return counters;
}

void
installCountingDram()
{
    DramCounters &counters = countingDram();
    // A stack built while counting is off gets the plain backend, so
    // untraced work pays nothing for the decorator.
    auto counted = [&counters](std::unique_ptr<dram::MemoryIf> inner)
        -> std::unique_ptr<dram::MemoryIf> {
        if (!counters.enabled.load())
            return inner;
        return std::make_unique<CountingMemory>(std::move(inner), counters);
    };
    auto &reg = dram::BackendRegistry::instance();
    reg.registerBackend("flat", [counted](const dram::BackendSpec &s) {
        return counted(std::make_unique<dram::FlatMemory>(s.flatLatency));
    });
    reg.registerBackend("banked", [counted](const dram::BackendSpec &s) {
        return counted(std::make_unique<dram::DramModel>(s.dram));
    });
}

namespace {
thread_local SpanLog *tWorkloadLog = nullptr;
} // namespace

void
setWorkloadSpanLog(SpanLog *log)
{
    tWorkloadLog = log;
}

void
installTimedKvWorkload()
{
    workload::WorkloadRegistry::instance().registerMethod(
        kTimedKvMethod, [](const workload::WorkloadParams &p) {
            tcoram_assert(tWorkloadLog != nullptr,
                          "timed workload loaded without a span log");
            workload::WorkloadParams inner = p;
            inner.method = "kv";
            return std::make_unique<TimedKvSource>(
                p, workload::loadWorkload(inner), tWorkloadLog);
        });
}

} // namespace tcbench
