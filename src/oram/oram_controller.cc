#include "oram/oram_controller.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram::oram {

OramController::OramController(const OramConfig &cfg, dram::MemoryIf &mem,
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
        // bank timing, mirroring the controller's own calibration.
        mem.resetTiming();
        evict_.calibrate(mem, reads);
    }
}

std::vector<dram::MemRequest>
OramController::buildPathReads(Rng &rng) const
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
OramController::calibrateSync(dram::MemoryIf &mem,
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
OramController::calibratePipelined(dram::MemoryIf &mem,
                                   std::span<const dram::MemRequest> reads)
{
    // The retire-event loop lives in the eviction engine now (it
    // calibrates evictions through the same replay); OLAT is the read
    // phase, occupancy runs until the last write-back retires.
    const PipelinedPathTiming t = replayPipelinedPath(mem, reads);
    latency_ = t.readDone;
    occupancy_ = t.allDone;
}

Cycles
OramController::serve(Cycles now)
{
    // The path (banks, buses, and in pipelined mode the write-back
    // tail) is occupied for occupancy_ cycles; the requested line is
    // available latency_ cycles after service start. In sync mode the
    // two coincide and this is the pre-split behaviour exactly.
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
    return start + latency_;
}

timing::OramEvictionCharge
OramController::maybeEvict(Cycles horizon)
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

Cycles
OramController::access(Cycles now)
{
    ++realAccesses_;
    return serve(now);
}

Cycles
OramController::dummyAccess(Cycles now)
{
    ++dummyAccesses_;
    return serve(now);
}

void
OramController::saveState(ByteWriter &w) const
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
OramController::restoreState(ByteReader &r)
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

} // namespace tcoram::oram
