#include "oram/oram_device.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "oram/sharded_device.hh"

namespace tcoram::oram {

PathMode
parsePathMode(const std::string &name)
{
    if (name.empty() || name == "sync")
        return PathMode::Sync;
    if (name == "async")
        return PathMode::Pipelined;
    tcoram_fatal("unknown DRAM mode \"", name, "\" (known: async sync)");
}

TimingOramDevice::TimingOramDevice(const OramConfig &cfg, dram::MemoryIf &mem,
                                   Rng &rng, PathMode mode,
                                   const EvictionConfig &evict)
    : cfg_(cfg), mode_(mode), evict_(evict)
{
    // The calibration path choice consumes identical RNG draws in both
    // modes, so switching modes never shifts any later seeded draw.
    const std::vector<dram::MemRequest> reads = buildPathReads(rng);
    if (mode_ == PathMode::Sync) {
        latency_ = calibrateSync(mem, reads);
        occupancy_ = latency_;
    } else {
        calibratePipelined(mem, reads);
    }
    tcoram_assert(occupancy_ >= latency_,
                  "write-back tail cannot retire before the read phase");
    bytesPerAccess_ = cfg_.totalBytesPerAccess();
    chunksPerAccess_ = divCeil(bytesPerAccess_, 16);
    // One batched whole-path decrypt plus one batched write-back
    // encrypt per tree — 2·(H+1) engine calls for H recursion stages
    // (path_oram.hh).
    cryptoCallsPerAccess_ = 2 * (cfg_.recursionChain().size() + 1);
    std::vector<OramConfig> trees = cfg_.recursionChain();
    trees.insert(trees.begin(), cfg_);
    for (const auto &tree : trees)
        pathBlocksPerAccess_ += tree.z * (tree.treeDepth() + 1);
    if (evict_.enabled()) {
        tcoram_assert(mode_ == PathMode::Pipelined,
                      "background eviction requires the pipelined path "
                      "mode (the sync controller has no write-back tail "
                      "to defer)");
        // Calibrate the eviction's path occupancy by replaying the
        // SAME read set (no extra RNG draws, so enabling the engine
        // never shifts any later seeded draw) against freshly-reset
        // bank timing, mirroring the device's own calibration.
        mem.resetTiming();
        evict_.calibrate(mem, reads);
    }
}

std::vector<dram::MemRequest>
TimingOramDevice::buildPathReads(Rng &rng) const
{
    // One representative access: for the data tree and each recursive
    // tree, every bucket on a random root-to-leaf path.
    std::vector<OramConfig> trees = cfg_.recursionChain();
    trees.insert(trees.begin(), cfg_);

    std::vector<dram::MemRequest> reads;
    Addr base = 0;
    for (const auto &tree : trees) {
        const unsigned depth = tree.treeDepth();
        const Leaf leaf = rng.nextBounded(tree.numLeaves());
        std::uint64_t idx = 0;
        reads.push_back({base, tree.bucketBytes(), false});
        for (unsigned l = 0; l < depth; ++l) {
            const std::uint64_t bit = (leaf >> (depth - 1 - l)) & 1;
            idx = 2 * idx + 1 + bit;
            reads.push_back(
                {base + idx * tree.bucketBytes(), tree.bucketBytes(),
                 false});
        }
        base += tree.numBuckets() * tree.bucketBytes();
    }
    return reads;
}

Cycles
TimingOramDevice::calibrateSync(dram::MemoryIf &mem,
                                std::span<const dram::MemRequest> reads)
{
    // Replay the DRAM transactions of one representative access: read
    // every bucket on the path, then write the path back. Reads are
    // issued as fast as the controller can stream them (channel buses
    // serialize transfers); the write-back phase begins once the read
    // phase completes, matching a read-path-then-write-path controller.
    const Cycles start = 1000; // arbitrary warm start

    const Cycles read_done = mem.accessBatch(start, reads);

    std::vector<dram::MemRequest> writes(reads.begin(), reads.end());
    for (auto &req : writes)
        req.isWrite = true;
    const Cycles done = mem.accessBatch(read_done, writes);
    tcoram_assert(done > start, "calibration produced zero latency");
    return done - start;
}

void
TimingOramDevice::calibratePipelined(dram::MemoryIf &mem,
                                     std::span<const dram::MemRequest> reads)
{
    // The retire-event loop lives in the eviction engine (it calibrates
    // evictions through the same replay); OLAT is the read phase,
    // occupancy runs until the last write-back retires.
    const PipelinedPathTiming t = replayPipelinedPath(mem, reads);
    latency_ = t.readDone;
    occupancy_ = t.allDone;
}

timing::OramCompletion
TimingOramDevice::submit(Cycles now, const timing::OramTransaction &txn)
{
    if (txn.kind == timing::OramTransaction::Kind::Real)
        ++realAccesses_;
    else
        ++dummyAccesses_;
    // The path (banks, buses, and in pipelined mode the write-back
    // tail) is occupied for occupancy_ cycles; the requested line is
    // available latency_ cycles after service start. In sync mode the
    // two coincide.
    //
    // With the eviction engine enabled and budget headroom, the
    // write-back tail is deferred: the access occupies the path only
    // for its read phase, the evicted blocks notionally stay in the
    // stash, and a later background eviction (maybeEvict) retires the
    // tail inside an enforced-gap idle window. Real and dummy accesses
    // take this branch identically, so deferral depends only on the
    // public slot count, never on data.
    const Cycles start = std::max(now, busyUntil_);
    if (evict_.canDefer()) {
        busyUntil_ = start + latency_;
        evict_.deferWriteback();
    } else {
        busyUntil_ = start + occupancy_;
    }
    timing::OramCompletion c;
    c.start = start;
    c.done = start + latency_;
    c.bytesMoved = bytesPerAccess_;
    c.cryptoBytes = bytesPerAccess_;
    c.cryptoCalls = cryptoCallsPerAccess_;
    return c;
}

timing::OramEvictionCharge
TimingOramDevice::maybeEvict(Cycles horizon)
{
    timing::OramEvictionCharge c;
    if (!evict_.wantsEviction())
        return c;
    c.firstSchedule = evict_.evictionsIssued();
    const Cycles d = evict_.evictionDuration();
    while (evict_.debt() > 0 && busyUntil_ + d <= horizon) {
        busyUntil_ += d;
        evict_.issueEviction();
        ++c.evictions;
        // On the wire an eviction is a dummy access: same bytes over
        // the pins, same per-tree path decrypts and single batched
        // write-back flush.
        c.bytesMoved += bytesPerAccess_;
        c.cryptoBytes += bytesPerAccess_;
        c.cryptoCalls += cryptoCallsPerAccess_;
    }
    return c;
}

void
TimingOramDevice::saveState(ByteWriter &w) const
{
    w.u64(latency_);
    w.u64(occupancy_);
    w.u64(bytesPerAccess_);
    w.u64(chunksPerAccess_);
    w.u64(cryptoCallsPerAccess_);
    w.u64(busyUntil_);
    w.u64(realAccesses_);
    w.u64(dummyAccesses_);
    evict_.saveState(w);
}

void
TimingOramDevice::restoreState(ByteReader &r)
{
    const Cycles latency = r.u64();
    const Cycles occupancy = r.u64();
    tcoram_assert(latency == latency_ && occupancy == occupancy_,
                  "controller snapshot calibrated for a different "
                  "geometry (latency ", latency, " vs ", latency_, ")");
    // Same cycle costs do not imply the same bucket geometry: a
    // different recursion split can calibrate to identical latencies
    // while moving different bytes per access. Reject those too.
    const std::uint64_t bytes = r.u64();
    const std::uint64_t chunks = r.u64();
    const std::uint64_t crypto_calls = r.u64();
    tcoram_assert(bytes == bytesPerAccess_ && chunks == chunksPerAccess_ &&
                      crypto_calls == cryptoCallsPerAccess_,
                  "controller snapshot taken under a different bucket "
                  "geometry (bytes/access ", bytes, " vs ", bytesPerAccess_,
                  ", crypto calls ", crypto_calls, " vs ",
                  cryptoCallsPerAccess_, ")");
    busyUntil_ = r.u64();
    realAccesses_ = r.u64();
    dummyAccesses_ = r.u64();
    evict_.restoreState(r);
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
    // Timing, byte and crypto attribution come from the inherited
    // calibration over the MODELED geometry — identical to the timing
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
    // schedule counter; costs stay calibration-attributed so stats are
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

void
checkDeviceSpec(const OramDeviceSpec &spec)
{
    if (!oramDeviceKindKnown(spec.kind)) {
        tcoram_fatal("unknown ORAM device kind \"", spec.kind,
                     "\" (registered: ", joinNames(oramDeviceKinds()), ")");
    }
    if (spec.shards == 0 || spec.shards > OramDeviceSpec::kMaxShards) {
        tcoram_fatal("ORAM device shards must be in [1, ",
                     OramDeviceSpec::kMaxShards, "], got ", spec.shards);
    }
    if (spec.evictionBudget > OramDeviceSpec::kMaxEvictionBudget) {
        tcoram_fatal("ORAM device evictionBudget must be in [0, ",
                     OramDeviceSpec::kMaxEvictionBudget, "], got ",
                     spec.evictionBudget);
    }
    if (spec.evictionPolicy == EvictionPolicy::Off)
        return;
    const char *policy = evictionPolicyName(spec.evictionPolicy);
    if (spec.evictionBudget == 0) {
        tcoram_fatal("ORAM device evictionBudget must be nonzero when "
                     "evictionPolicy is \"", policy, "\", got 0");
    }
    if (spec.pathMode != PathMode::Pipelined) {
        tcoram_fatal("ORAM device evictionPolicy \"", policy,
                     "\" requires the async DRAM mode (pathMode Pipelined; "
                     "the sync controller has no write-back tail to "
                     "defer), got sync");
    }
}

std::unique_ptr<timing::OramDeviceIf>
makeOramDevice(const OramDeviceSpec &spec, const OramConfig &cfg,
               dram::MemoryIf &mem, Rng &rng)
{
    checkDeviceSpec(spec);
    // The sharded array wraps M inner devices of a non-sharded kind:
    // either explicitly (kind "sharded", even at M = 1 — the wrapper
    // transparency the golden tests pin) or implicitly whenever a
    // plain kind asks for more than one shard.
    if (spec.kind == "sharded" || spec.shards > 1) {
        OramDeviceSpec inner = spec;
        inner.kind = spec.kind == "sharded" ? spec.innerKind : spec.kind;
        return std::make_unique<ShardedOramDevice>(
            inner, cfg, spec.shards, spec.routeSeed, mem, rng);
    }
    if (spec.kind == "timing")
        return std::make_unique<TimingOramDevice>(cfg, mem, rng,
                                                  spec.pathMode,
                                                  spec.evictionConfig());
    auto dev = std::make_unique<FunctionalOramDevice>(
        cfg, mem, rng, spec.keySeed, spec.functionalBlockCap,
        crypto::CryptoBackend::Auto, spec.pathMode, spec.evictionConfig());
    // Data-fault kinds arm the fault-tolerant datapath; timing kinds
    // belong to the DRAM decorator and are ignored here.
    if (spec.fault.enabled() && spec.fault.has(dram::kFaultDataMask))
        dev->enableFaultModel(spec.fault, spec.retryBudget);
    return dev;
}

} // namespace tcoram::oram
