#include "oram/oram_device.hh"

#include <algorithm>

#include "common/log.hh"
#include "oram/sharded_device.hh"

namespace tcoram::oram {

timing::OramCompletion
TimingOramDevice::submit(Cycles now, const timing::OramTransaction &txn)
{
    const bool real = txn.kind == timing::OramTransaction::Kind::Real;
    const Cycles done = real ? ctrl_.access(now) : ctrl_.dummyAccess(now);
    timing::OramCompletion c;
    c.start = done - ctrl_.accessLatency();
    c.done = done;
    c.bytesMoved = ctrl_.bytesPerAccess();
    c.cryptoBytes = ctrl_.cryptoBytesPerAccess();
    c.cryptoCalls = ctrl_.cryptoCallsPerAccess();
    return c;
}

timing::OramEvictionCharge
TimingOramDevice::maybeEvict(Cycles horizon)
{
    return ctrl_.maybeEvict(horizon);
}

void
TimingOramDevice::saveState(ByteWriter &w) const
{
    ctrl_.saveState(w);
}

void
TimingOramDevice::restoreState(ByteReader &r)
{
    ctrl_.restoreState(r);
}

FunctionalOramDevice::FunctionalOramDevice(const OramConfig &cfg,
                                           dram::MemoryIf &mem, Rng &rng,
                                           std::uint64_t key_seed,
                                           std::uint64_t datapath_block_cap,
                                           crypto::CryptoBackend backend,
                                           PathMode mode,
                                           const EvictionConfig &evict)
    : TimingOramDevice(cfg, mem, rng, mode, evict),
      funcCfg_(cfg),
      keySeed_(key_seed)
{
    if (datapath_block_cap != 0)
        funcCfg_.numBlocks =
            std::min<std::uint64_t>(funcCfg_.numBlocks, datapath_block_cap);
    // The stash is a datapath-only resource (never charged in the
    // modeled stats); size it for long fully-loaded runs — id folding
    // under a cap touches every block, the worst case for occupancy.
    funcCfg_.stashCapacity =
        std::max<std::size_t>(funcCfg_.stashCapacity, 1024);
    func_ = std::make_unique<RecursivePathOram>(funcCfg_, key_seed, backend);
    scratchOut_.assign(funcCfg_.blockBytes, 0);
    scratchData_.assign(funcCfg_.blockBytes, 0);
}

void
FunctionalOramDevice::enableFaultModel(const dram::FaultSpec &spec,
                                       unsigned retry_budget)
{
    // Integrity (the detector) always comes with the fault model; the
    // injector only when the spec actually carries data-fault kinds —
    // a timing-only spec still wants MAC verification so the datapath
    // notices corruption from any other source.
    func_->enableIntegrity(mixSeed(keySeed_, 0xfa171ull), retry_budget);
    if (spec.enabled() && spec.has(dram::kFaultDataMask)) {
        injector_ = std::make_unique<dram::FaultInjector>(
            spec, mixSeed(keySeed_, 0x0da7aull));
        func_->attachFaultInjector(injector_.get());
    }
}

timing::OramCompletion
FunctionalOramDevice::submit(Cycles now, const timing::OramTransaction &txn)
{
    // Timing, byte and crypto attribution come from the calibrated
    // controller over the MODELED geometry — identical to the timing
    // device, whatever the (possibly capped) datapath moves.
    timing::OramCompletion c = TimingOramDevice::submit(now, txn);

    // Cumulative-counter deltas around the access attribute recovery
    // work to THIS transaction (per-access last* counters undercount
    // when a recursion stage is touched twice in one access).
    const std::uint64_t detected0 = func_->faultsDetected();
    const std::uint64_t retries0 = func_->retriesIssued();

    if (txn.kind == timing::OramTransaction::Kind::Real) {
        const BlockId id = txn.blockId % funcCfg_.numBlocks;
        std::span<std::uint8_t> out =
            txn.out.empty() ? std::span<std::uint8_t>(scratchOut_) : txn.out;
        tcoram_assert(out.size() == funcCfg_.blockBytes,
                      "functional out span must be one block");
        if (txn.isWrite) {
            std::span<const std::uint8_t> data =
                txn.data.empty() ? std::span<const std::uint8_t>(scratchData_)
                                 : txn.data;
            tcoram_assert(data.size() == funcCfg_.blockBytes,
                          "functional write payload must be one block");
            // Empty payloads write a deterministic id-derived pattern so
            // trace-driven runs still churn real bytes through the tree.
            if (txn.data.empty()) {
                for (std::size_t i = 0; i < scratchData_.size(); ++i)
                    scratchData_[i] = static_cast<std::uint8_t>(
                        (id + i) * 0x9e3779b9ull >> 24);
            }
            func_->accessInto(id, Op::Write, data, out);
        } else {
            func_->accessInto(id, Op::Read, {}, out);
        }
    } else {
        func_->dummyAccess();
    }
    dataBytesMoved_ += func_->lastAccessBytes();

    c.faultsDetected =
        static_cast<std::uint32_t>(func_->faultsDetected() - detected0);
    c.retries =
        static_cast<std::uint32_t>(func_->retriesIssued() - retries0);
    return c;
}

timing::OramEvictionCharge
FunctionalOramDevice::maybeEvict(Cycles horizon)
{
    const timing::OramEvictionCharge e =
        TimingOramDevice::maybeEvict(horizon);
    // Realize each issued eviction against the functional stash on its
    // schedule counter; costs stay controller-attributed so stats are
    // bit-identical to the timing device.
    for (std::uint32_t i = 0; i < e.evictions; ++i) {
        func_->backgroundEvict(e.firstSchedule + i);
        dataBytesMoved_ += func_->lastAccessBytes();
    }
    return e;
}

void
FunctionalOramDevice::saveState(ByteWriter &w) const
{
    TimingOramDevice::saveState(w);
    w.u64(dataBytesMoved_);
    func_->saveState(w);
    w.b(injector_ != nullptr);
    if (injector_)
        injector_->saveState(w);
}

void
FunctionalOramDevice::restoreState(ByteReader &r)
{
    TimingOramDevice::restoreState(r);
    dataBytesMoved_ = r.u64();
    func_->restoreState(r);
    const bool had_injector = r.b();
    tcoram_assert(had_injector == (injector_ != nullptr),
                  "snapshot and device disagree on the fault injector "
                  "(enableFaultModel must be applied before restore)");
    if (injector_)
        injector_->restoreState(r);
}

std::vector<std::string>
oramDeviceKinds()
{
    return {"functional", "sharded", "timing"};
}

bool
oramDeviceKindKnown(const std::string &kind)
{
    const auto kinds = oramDeviceKinds();
    return std::find(kinds.begin(), kinds.end(), kind) != kinds.end();
}

std::unique_ptr<timing::OramDeviceIf>
makeOramDevice(const OramDeviceSpec &spec, const OramConfig &cfg,
               dram::MemoryIf &mem, Rng &rng)
{
    // The sharded array wraps M inner devices of a non-sharded kind:
    // either explicitly (kind "sharded", even at M = 1 — the wrapper
    // transparency the golden tests pin) or implicitly whenever a
    // plain kind asks for more than one shard.
    if (spec.kind == "sharded" || spec.shards > 1) {
        OramDeviceSpec inner = spec;
        inner.kind = spec.kind == "sharded" ? spec.innerKind : spec.kind;
        inner.shards = 1;
        tcoram_assert(inner.kind != "sharded", "sharded inners cannot nest");
        return std::make_unique<ShardedOramDevice>(
            inner, cfg, std::max<std::uint32_t>(1, spec.shards),
            spec.routeSeed, mem, rng);
    }
    if (spec.kind == "timing")
        return std::make_unique<TimingOramDevice>(cfg, mem, rng,
                                                  spec.pathMode,
                                                  spec.evictionConfig());
    if (spec.kind == "functional") {
        auto dev = std::make_unique<FunctionalOramDevice>(
            cfg, mem, rng, spec.keySeed, spec.functionalBlockCap,
            spec.cryptoBackend, spec.pathMode, spec.evictionConfig());
        // Data-fault kinds arm the fault-tolerant datapath; timing
        // kinds belong to the DRAM decorator and are ignored here.
        if (spec.fault.enabled() && spec.fault.has(dram::kFaultDataMask))
            dev->enableFaultModel(spec.fault, spec.retryBudget);
        return dev;
    }
    tcoram_fatal("unknown ORAM device kind \"", spec.kind,
                 "\" (registered: ", joinNames(oramDeviceKinds()), ")");
}

} // namespace tcoram::oram
