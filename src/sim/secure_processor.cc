#include "sim/secure_processor.hh"

#include <algorithm>
#include <cmath>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "timing/leakage.hh"

namespace tcoram::sim {

namespace {

/** Seed of the processor's synthetic trace. */
std::uint64_t
traceSeed(const SystemConfig &cfg)
{
    return cfg.seed ^ 0xabcd;
}

} // namespace

/** Insecure flat-DRAM backend (base_dram). */
class SecureProcessor::DramBackend : public cpu::MemorySystemIf
{
  public:
    explicit DramBackend(dram::MemoryIf &mem) : mem_(mem) {}

    Cycles
    serveMiss(Cycles now, Addr line_addr) override
    {
        return mem_.access(now, {line_addr, 64, false});
    }

    Cycles
    serveAsync(Cycles now, Addr line_addr) override
    {
        return mem_.access(now, {line_addr, 64, true});
    }

  private:
    dram::MemoryIf &mem_;
};

namespace {

/** Line address -> logical ORAM block id (64 B cache lines). */
std::uint64_t
lineBlockId(Addr line_addr)
{
    return line_addr / 64;
}

} // namespace

/** Unprotected ORAM backend (base_oram): back-to-back accesses. */
class SecureProcessor::OramBackend : public cpu::MemorySystemIf
{
  public:
    explicit OramBackend(timing::OramDeviceIf &dev) : dev_(dev) {}

    Cycles
    serveMiss(Cycles now, Addr line_addr) override
    {
        return dev_
            .submit(now, timing::OramTransaction::real(
                             lineBlockId(line_addr), /*is_write=*/false))
            .done;
    }

    Cycles
    serveAsync(Cycles now, Addr line_addr) override
    {
        return dev_
            .submit(now, timing::OramTransaction::real(
                             lineBlockId(line_addr), /*is_write=*/true))
            .done;
    }

  private:
    timing::OramDeviceIf &dev_;
};

/**
 * Rate-enforced backend (static_*, dynamic_* and protected_dram). With
 * one enforcer every miss goes to it; with one per shard the PRF
 * router assigns each miss to a subtree shard, whose own enforcer
 * times it. Each shard's observable stream stays periodic
 * independently; a miss only ever waits on its own shard's slot.
 */
class SecureProcessor::EnforcedBackend : public cpu::MemorySystemIf
{
  public:
    /** @param router the sharded array that picks a miss's enforcer
     *         (enfs[shard]); null with one enforcer. */
    EnforcedBackend(oram::ShardedOramDevice *router,
                    std::vector<std::unique_ptr<timing::RateEnforcer>> &enfs)
        : router_(router), enfs_(enfs)
    {
    }

    Cycles
    serveMiss(Cycles now, Addr line_addr) override
    {
        return serve(now, line_addr, /*is_write=*/false);
    }

    Cycles
    serveAsync(Cycles now, Addr line_addr) override
    {
        return serve(now, line_addr, /*is_write=*/true);
    }

  private:
    Cycles
    serve(Cycles now, Addr line_addr, bool is_write)
    {
        auto txn =
            timing::OramTransaction::real(lineBlockId(line_addr), is_write);
        const std::uint32_t s = router_ != nullptr ? router_->route(txn) : 0;
        return enfs_[s]->serve(now, txn).done;
    }

    oram::ShardedOramDevice *router_;
    std::vector<std::unique_ptr<timing::RateEnforcer>> &enfs_;
};

/**
 * §10's no-ORAM device: one cache-line transfer per (real or dummy)
 * access against closed-page DRAM. Closed pages put the row buffer in
 * a public state after every access, so a dummy to a fixed address is
 * indistinguishable from a real line fetch by DRAM-state probing.
 */
namespace {
class ProtectedDramDevice : public timing::OramDeviceIf
{
  public:
    explicit ProtectedDramDevice(dram::MemoryIf &mem) : mem_(mem)
    {
        // Calibrate the fixed access latency once (closed page makes
        // every access cost the same).
        const Cycles t0 = 1000;
        latency_ = mem_.access(t0, {0, 64, false}) - t0;
    }

    const char *kind() const override { return "protected_dram"; }

    timing::OramCompletion
    submit(Cycles now, const timing::OramTransaction &txn) override
    {
        if (txn.kind == timing::OramTransaction::Kind::Real)
            ++real_;
        else
            ++dummy_;
        const Cycles start = std::max(now, busyUntil_);
        busyUntil_ = start + latency_;
        timing::OramCompletion c;
        c.start = start;
        c.done = busyUntil_;
        c.bytesMoved = 64;
        return c;
    }

    Cycles accessLatency() const override { return latency_; }
    std::uint64_t bytesPerAccess() const override { return 64; }
    std::uint64_t realAccesses() const override { return real_; }
    std::uint64_t dummyAccesses() const override { return dummy_; }

  private:
    dram::MemoryIf &mem_;
    Cycles latency_ = 0;
    Cycles busyUntil_ = 0;
    std::uint64_t real_ = 0;
    std::uint64_t dummy_ = 0;
};
} // namespace

SecureProcessor::SecureProcessor(const SystemConfig &cfg,
                                 const workload::Profile &profile)
    : cfg_(cfg), rng_(cfg.seed)
{
    // Check the device spec up front so an ill-formed one dies even
    // for the schemes (base_dram / protected_dram) whose backends have
    // no ORAM path and ignore it.
    oram::checkDeviceSpec(cfg_.device);

    hierarchy_ = std::make_unique<cache::Hierarchy>(cfg_.llcBytes);
    trace_ =
        std::make_unique<workload::SyntheticTrace>(profile, traceSeed(cfg_));

    // Main memory comes from the backend registry so configurations
    // (including "trace" wrapping) select it without new wiring here.
    mem_ = dram::makeMemory(cfg_.memorySpec());

    if (cfg_.scheme == Scheme::BaseDram) {
        backend_ = std::make_unique<DramBackend>(*mem_);
    } else if (cfg_.scheme == Scheme::ProtectedDram) {
        device_ = std::make_unique<ProtectedDramDevice>(*mem_);
    } else {
        // ORAM schemes run over the banked DDR3 model, behind the
        // configured transactional device backend (timing model or
        // real functional datapath — identical charging either way).
        oram::OramDeviceSpec dev_spec = cfg_.device;
        dev_spec.keySeed = cfg_.seed ^ 0x0de71ce5ull;
        // Route assignment must be reproducible per seeded run but
        // independent of the datapath key stream.
        dev_spec.routeSeed = cfg_.seed ^ 0x0072a7e5ull;
        device_ = oram::makeOramDevice(dev_spec, cfg_.oram, *mem_, rng_);
        if (cfg_.scheme == Scheme::BaseOram)
            backend_ = std::make_unique<OramBackend>(*device_);
    }

    if (cfg_.scheme != Scheme::BaseDram && cfg_.scheme != Scheme::BaseOram) {
        // Rate-enforced schemes: static_* (one candidate rate), and
        // dynamic_* / protected_dram (the configured candidate set).
        if (cfg_.scheme == Scheme::Static) {
            rates_ = std::make_unique<timing::RateSet>(
                std::vector<Cycles>{cfg_.staticRate});
        } else {
            rates_ = std::make_unique<timing::RateSet>(
                cfg_.rateCount, cfg_.rateLo, cfg_.rateHi,
                cfg_.linearSpacing ? timing::RateSet::Spacing::Linear
                                   : timing::RateSet::Spacing::Log);
        }
        schedule_ = std::make_unique<timing::EpochSchedule>(
            cfg_.epoch0, cfg_.epochGrowth, cfg_.tmax);
        if (cfg_.learnerKind == SystemConfig::Learner::Threshold) {
            learner_ = std::make_unique<timing::ThresholdLearner>(
                *rates_, device_->accessLatency(), cfg_.thresholdSharpness);
        } else {
            learner_ =
                std::make_unique<timing::RateLearner>(*rates_, cfg_.divider);
        }
        const Cycles initial_rate = cfg_.scheme == Scheme::Static
                                        ? cfg_.staticRate
                                        : cfg_.initialRate;

        // Rate enforcement is per shard: each subtree's stream is timed
        // by its own enforcer over its own device. An unsharded device
        // — including a one-shard array, which then never routes — has
        // one enforcer over the whole device.
        auto *sharded =
            dynamic_cast<oram::ShardedOramDevice *>(device_.get());
        if (sharded != nullptr && sharded->shardCount() == 1)
            sharded = nullptr;
        if (sharded != nullptr) {
            for (std::uint32_t i = 0; i < sharded->shardCount(); ++i)
                enforcers_.push_back(std::make_unique<timing::RateEnforcer>(
                    sharded->shard(i), *rates_, *schedule_, *learner_,
                    initial_rate));
        } else {
            enforcers_.push_back(std::make_unique<timing::RateEnforcer>(
                *device_, *rates_, *schedule_, *learner_, initial_rate));
        }
        backend_ = std::make_unique<EnforcedBackend>(sharded, enforcers_);

        // Optional session leakage budget (§2.1). A sharded run
        // attaches ONE monitor to every shard's enforcer: free
        // decisions on any shard draw from the composed budget, so the
        // sum over the M streams never exceeds L.
        if (cfg_.leakageLimitBits >= 0.0) {
            monitor_ = std::make_unique<timing::LeakageMonitor>(
                cfg_.leakageLimitBits, rates_->size());
            for (auto &enf : enforcers_)
                enf->attachMonitor(monitor_.get());
        }
    }

    core_ = std::make_unique<cpu::Core>(*hierarchy_, *backend_, *trace_,
                                        cfg_.ipcWindow);
}

SecureProcessor::~SecureProcessor() = default;

SecureProcessor::WarmState
SecureProcessor::warmUp(const SystemConfig &cfg,
                        const workload::Profile &profile, InstCount warmup)
{
    WarmState warm{cache::Hierarchy(cfg.llcBytes),
                   workload::SyntheticTrace(profile, traceSeed(cfg))};
    cpu::fastForward(warm.hierarchy, warm.trace, warmup);
    return warm;
}

SimResult
SecureProcessor::run(InstCount insts, InstCount warmup)
{
    // Warm-up phase: functional fast-forward (§9.1.1) of the caches
    // and the trace with zero-latency misses; the timed system
    // (including the epoch timer and rate learner) starts fresh
    // afterwards.
    if (warmup > 0)
        cpu::fastForward(*hierarchy_, *trace_, warmup);
    return measure(insts);
}

SimResult
SecureProcessor::run(InstCount insts, WarmState warm)
{
    *hierarchy_ = std::move(warm.hierarchy);
    *trace_ = std::move(warm.trace);
    return measure(insts);
}

SimResult
SecureProcessor::measure(InstCount insts)
{
    // Event counters are snapshotted so the measurement interval
    // reports deltas only (of the warm-up, if there was one).
    const cache::HierarchyEvents ev0 = hierarchy_->events();
    const std::uint64_t llc0 = hierarchy_->llcMisses();
    const std::uint64_t mem_req0 = mem_->requestCount();

    const cpu::CoreStats cs = core_->run(insts);

    // Fire the dummies the enforced schedule owes up to the final cycle
    // (they are observable and consume energy) — on every shard.
    for (auto &enf : enforcers_)
        enf->drainUntil(core_->now());

    SimResult r;
    r.configName = cfg_.name;
    r.workloadName = trace_->name();
    r.cycles = cs.cycles;
    r.instructions = cs.instructions;
    r.ipc = cs.ipc();
    r.llcMisses = hierarchy_->llcMisses() - llc0;
    r.ipcSeries = core_->ipcSeries();
    r.missSeries = core_->missSeries();
    r.ipcWindow = cfg_.ipcWindow;

    // Energy accounting (Table 2), deltas over the measured interval.
    const auto &hev = hierarchy_->events();
    power::EnergyEvents ev;
    ev.instructions = cs.instructions;
    ev.fpInstructions = 0; // SPEC-int suite
    ev.fetchBufferAccesses = cs.instructions;
    ev.l1iHits = hev.l1iHits - ev0.l1iHits;
    ev.l1iRefills = hev.l1iRefills - ev0.l1iRefills;
    ev.l1dHits = hev.l1dHits - ev0.l1dHits;
    ev.l1dRefills = hev.l1dRefills - ev0.l1dRefills;
    ev.l2HitsRefills = (hev.l2Hits + hev.l2Refills) -
                       (ev0.l2Hits + ev0.l2Refills);
    ev.cycles = cs.cycles;

    std::uint64_t oram_chunks = 0;
    Cycles oram_latency = 0;
    if (cfg_.scheme == Scheme::BaseDram) {
        ev.dramLineTransfers = mem_->requestCount() - mem_req0;
    } else if (cfg_.scheme == Scheme::ProtectedDram) {
        // Every (real or dummy) access is one line transfer through
        // the DRAM controller; no ORAM controller energy applies.
        r.oramReal = device_->realAccesses();
        r.oramDummy = device_->dummyAccesses();
        ev.dramLineTransfers = r.oramReal + r.oramDummy;
        r.oramLatency = device_->accessLatency();
        r.oramBytesPerAccess = device_->bytesPerAccess();
    } else {
        r.oramReal = device_->realAccesses();
        r.oramDummy = device_->dummyAccesses();
        ev.oramAccesses = r.oramReal + r.oramDummy;
        oram_chunks = divCeil(device_->bytesPerAccess(), 16);
        oram_latency = device_->accessLatency();
        r.oramLatency = oram_latency;
        r.oramBytesPerAccess = device_->bytesPerAccess();
        // Background-eviction telemetry (zero with the engine off; the
        // sharded wrapper sums over its shards).
        r.stashOccupancy = device_->stashOccupancy();
        r.stashHighWater = device_->stashHighWater();
        r.blocksEvicted = device_->blocksEvicted();
        r.evictionsIssued = device_->evictionsIssued();
        // Crypto attribution: every (real or dummy) access pays one
        // whole-path decrypt + encrypt per tree. The enforced schemes
        // read the run-cumulative enforcer counters (the single source
        // the per-transaction completions feed); base_oram has no
        // enforcer, so its constant-cost accesses are attributed
        // analytically.
        if (!enforcers_.empty()) {
            for (const auto &enf : enforcers_) {
                r.cryptoBytes += enf->counters().cryptoBytes();
                r.cryptoCalls += enf->counters().cryptoCalls();
            }
        } else {
            r.cryptoBytes =
                ev.oramAccesses * device_->cryptoBytesPerAccess();
            r.cryptoCalls =
                ev.oramAccesses * device_->cryptoCallsPerAccess();
        }
    }
    r.watts = energy_.watts(ev, oram_chunks, oram_latency);
    r.onChipWatts = ev.cycles ? energy_.onChipNj(ev) /
                                    static_cast<double>(ev.cycles)
                              : 0.0;

    // Leakage accounting.
    if (!enforcers_.empty()) {
        // Leakage counts free learner decisions: epoch transitions
        // taken, less those the budget pinned (a forced decision leaks
        // nothing); the initial epoch's rate is data-independent
        // (§6.2). Sharded streams compose additively (§10): realized
        // bits sum each shard's own count, and the paper-constant
        // bound is M times the single-stream figure. Rate decisions
        // are reported for shard 0 (every shard shares R and E).
        r.rateDecisions = enforcers_.front()->decisions();
        r.epochsUsed = enforcers_.front()->currentEpoch();
        for (const auto &enf : enforcers_)
            r.simLeakageBits += timing::LeakageAccountant::oramTimingBits(
                rates_->size(),
                enf->currentEpoch() - enf->pinnedDecisions());
        r.paperLeakageBits =
            static_cast<double>(enforcers_.size()) *
            timing::LeakageAccountant::paperConfigBits(rates_->size(),
                                                       cfg_.epochGrowth);
    } else if (cfg_.scheme == Scheme::BaseOram) {
        r.simLeakageBits = timing::LeakageAccountant::unprotectedBits(
            std::max<Cycles>(r.cycles, 2), std::max<Cycles>(oram_latency, 2));
        r.paperLeakageBits = r.simLeakageBits;
    }
    return r;
}

} // namespace tcoram::sim
