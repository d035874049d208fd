#include "oram/sharded_device.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram::oram {

ShardRouter::ShardRouter(std::uint64_t route_seed,
                         std::uint32_t shard_count)
    : prf_(crypto::keyFromSeed(route_seed ^ 0x57a2de11ull)),
      shards_(shard_count)
{
    tcoram_assert(shard_count >= 1, "router needs at least one shard");
}

std::uint32_t
ShardRouter::shardOf(std::uint64_t block_id) const
{
    // A single stateless AES evaluation; the modulo bias over 2^64 is
    // negligible and, crucially, identical on every platform.
    return static_cast<std::uint32_t>(prf_.eval(block_id) % shards_);
}

ShardedOramDevice::ShardedOramDevice(const OramDeviceSpec &inner_spec,
                                     const OramConfig &cfg,
                                     std::uint32_t shards,
                                     std::uint64_t route_seed,
                                     dram::MemoryIf &mem, Rng &rng,
                                     bool record)
    : router_(route_seed, shards), shardCfg_(cfg)
{
    OramDeviceSpec spec = inner_spec;
    spec.shards = shards;
    checkDeviceSpec(spec);
    spec.shards = 1;
    tcoram_assert(spec.kind != "sharded", "sharded inners cannot nest");
    // Each shard is a subtree holding its slice of the block space;
    // with M = 1 the "slice" is the whole tree and the single inner
    // consumes exactly the bare device's calibration draws.
    shardCfg_.numBlocks =
        std::max<std::uint64_t>(1, divCeil(cfg.numBlocks, shards));
    compactIds_ = spec.kind == "functional";
    if (compactIds_)
        localIds_.resize(shards);
    inner_.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
        // Each shard owns its own channel set: its calibration replay
        // must see idle DRAM, not banks the previous shard's replay
        // left busy (which would inflate later shards' OLAT roughly
        // linearly in the shard index). A no-op on a fresh memory, so
        // M = 1 calibrates exactly like the bare device.
        mem.resetTiming();
        inner_.push_back(makeOramDevice(spec, shardCfg_, mem, rng));
        recorders_.push_back(
            record ? std::make_unique<timing::RecordingOramDevice>(
                         *inner_.back())
                   : nullptr);
    }
}

std::uint32_t
ShardedOramDevice::route(timing::OramTransaction &txn)
{
    const std::uint32_t s = routeOf(txn);
    localize(s, txn);
    return s;
}

std::uint32_t
ShardedOramDevice::routeOf(const timing::OramTransaction &txn) const
{
    tcoram_assert(txn.kind == timing::OramTransaction::Kind::Real,
                  "dummies belong to each shard's enforcer, not the router");
    return router_.shardOf(txn.blockId);
}

void
ShardedOramDevice::localize(std::uint32_t shard, timing::OramTransaction &txn)
{
    if (compactIds_) {
        // First-touch dense ids keep distinct global blocks distinct
        // inside the shard's functional subtree (until its capacity,
        // past which ids fold — the same bound the functional cap
        // already documents). Timing inners skip this entirely: their
        // dispatch path stays allocation-free.
        auto &map = localIds_[shard];
        const auto [it, fresh] = map.try_emplace(txn.blockId, map.size());
        (void)fresh;
        txn.blockId = it->second;
    }
}

timing::OramDeviceIf &
ShardedOramDevice::shard(std::uint32_t i)
{
    tcoram_assert(i < inner_.size(), "shard index out of range");
    if (recorders_[i] != nullptr)
        return *recorders_[i];
    return *inner_[i];
}

const timing::OramDeviceIf &
ShardedOramDevice::shard(std::uint32_t i) const
{
    tcoram_assert(i < inner_.size(), "shard index out of range");
    if (recorders_[i] != nullptr)
        return *recorders_[i];
    return *inner_[i];
}

const timing::RecordingOramDevice *
ShardedOramDevice::recorder(std::uint32_t i) const
{
    tcoram_assert(i < recorders_.size(), "shard index out of range");
    return recorders_[i].get();
}

timing::OramDeviceIf &
ShardedOramDevice::innerDevice(std::uint32_t i)
{
    tcoram_assert(i < inner_.size(), "shard index out of range");
    return *inner_[i];
}

const timing::OramDeviceIf &
ShardedOramDevice::innerDevice(std::uint32_t i) const
{
    tcoram_assert(i < inner_.size(), "shard index out of range");
    return *inner_[i];
}

timing::OramCompletion
ShardedOramDevice::submit(Cycles now, const timing::OramTransaction &txn)
{
    if (txn.kind == timing::OramTransaction::Kind::Real) {
        timing::OramTransaction routed = txn;
        const std::uint32_t s = route(routed);
        return shard(s).submit(now, routed);
    }
    const std::uint32_t s = nextDummyShard_;
    nextDummyShard_ = (nextDummyShard_ + 1) % shardCount();
    return shard(s).submit(now, txn);
}

Cycles
ShardedOramDevice::accessLatency() const
{
    Cycles lat = 0;
    for (const auto &dev : inner_)
        lat = std::max(lat, dev->accessLatency());
    return lat;
}

Cycles
ShardedOramDevice::occupancyPerAccess() const
{
    Cycles occ = 0;
    for (const auto &dev : inner_)
        occ = std::max(occ, dev->occupancyPerAccess());
    return occ;
}

std::uint64_t
ShardedOramDevice::bytesPerAccess() const
{
    return inner_.front()->bytesPerAccess();
}

std::uint64_t
ShardedOramDevice::cryptoBytesPerAccess() const
{
    return inner_.front()->cryptoBytesPerAccess();
}

std::uint64_t
ShardedOramDevice::cryptoCallsPerAccess() const
{
    return inner_.front()->cryptoCallsPerAccess();
}

std::uint64_t
ShardedOramDevice::realAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &dev : inner_)
        n += dev->realAccesses();
    return n;
}

std::uint64_t
ShardedOramDevice::dummyAccesses() const
{
    std::uint64_t n = 0;
    for (const auto &dev : inner_)
        n += dev->dummyAccesses();
    return n;
}

timing::OramEvictionCharge
ShardedOramDevice::maybeEvict(Cycles horizon)
{
    // Unsharded drivers see the array as one device; each shard drains
    // its own deferred tails inside the shared window. firstSchedule
    // is meaningless summed, so report shard 0's (functional inners
    // realize their own schedules internally anyway).
    timing::OramEvictionCharge total;
    bool first = true;
    for (std::uint32_t i = 0; i < shardCount(); ++i) {
        const timing::OramEvictionCharge e = shard(i).maybeEvict(horizon);
        if (first) {
            total.firstSchedule = e.firstSchedule;
            first = false;
        }
        total.evictions += e.evictions;
        total.bytesMoved += e.bytesMoved;
        total.cryptoBytes += e.cryptoBytes;
        total.cryptoCalls += e.cryptoCalls;
    }
    return total;
}

std::uint64_t
ShardedOramDevice::stashOccupancy() const
{
    std::uint64_t n = 0;
    for (const auto &dev : inner_)
        n += dev->stashOccupancy();
    return n;
}

std::uint64_t
ShardedOramDevice::stashHighWater() const
{
    std::uint64_t n = 0;
    for (const auto &dev : inner_)
        n += dev->stashHighWater();
    return n;
}

std::uint64_t
ShardedOramDevice::blocksEvicted() const
{
    std::uint64_t n = 0;
    for (const auto &dev : inner_)
        n += dev->blocksEvicted();
    return n;
}

std::uint64_t
ShardedOramDevice::evictionsIssued() const
{
    std::uint64_t n = 0;
    for (const auto &dev : inner_)
        n += dev->evictionsIssued();
    return n;
}

void
ShardedOramDevice::saveState(ByteWriter &w) const
{
    w.u32(nextDummyShard_);
    w.u64(localIds_.size());
    for (const auto &map : localIds_) {
        // Sort: unordered_map iteration order must not leak into the
        // snapshot bytes (identical state => identical snapshot).
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ids(
            map.begin(), map.end());
        std::sort(ids.begin(), ids.end());
        w.u64(ids.size());
        for (const auto &[global, local] : ids) {
            w.u64(global);
            w.u64(local);
        }
    }
    for (std::uint32_t i = 0; i < shardCount(); ++i)
        shard(i).saveState(w);
}

void
ShardedOramDevice::restoreState(ByteReader &r)
{
    nextDummyShard_ = r.u32();
    const std::uint64_t maps = r.u64();
    tcoram_assert(maps == localIds_.size(),
                  "snapshot shard count mismatch (", maps, " vs ",
                  localIds_.size(), ")");
    for (auto &map : localIds_) {
        map.clear();
        const std::uint64_t n = r.u64();
        for (std::uint64_t k = 0; k < n; ++k) {
            const std::uint64_t global = r.u64();
            const std::uint64_t local = r.u64();
            map.emplace(global, local);
        }
    }
    for (std::uint32_t i = 0; i < shardCount(); ++i)
        shard(i).restoreState(r);
}

} // namespace tcoram::oram
