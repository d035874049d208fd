/**
 * @file
 * Sharded ORAM device array: the logical block space is split across M
 * independent subtree devices (each a factory-made timing or
 * functional backend over 1/M of the blocks), so aggregate throughput
 * scales past one device's slot rate while the observable channel
 * stays M indistinguishable periodic streams — one per shard, each
 * driven by its own RateEnforcer (timing/shard_slot.hh).
 *
 * Routing is a dedicated AES-based PRF over the block id — NOT
 * std::hash, whose result is implementation-defined — so shard
 * assignment is reproducible across platforms, runs and compilers
 * (pinned by tests/test_sharded.cc). The router itself is
 * allocation-free; only functional inners pay a shard-local id
 * compaction map, keeping RDCA's "cost lives in the devices, not the
 * dispatch path" property for the default timing backend.
 *
 * Leakage composition: each shard's enforced stream leaks at most
 * |E| * lg|R| bits (§6.1) and the M streams are mutually independent
 * given the public rate schedule, so the channels compose additively
 * (§10): the array leaks at most M * |E| * lg|R| bits. Admission and
 * the shared LeakageMonitor account for the composed bound
 * (protocol::LeakageParams::shards, sim/shard_worker.hh).
 *
 * With M = 1 the wrapper is transparent: the single inner device is
 * built from the identical factory spec with the identical calibration
 * RNG draws, so a 1-shard array is bit-identical to the bare device
 * (golden-stats pinned).
 */

#ifndef TCORAM_ORAM_SHARDED_DEVICE_HH
#define TCORAM_ORAM_SHARDED_DEVICE_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/prf.hh"
#include "oram/oram_device.hh"

namespace tcoram::oram {

/**
 * Deterministic PRF router: blockId -> shard. Stateless, allocation-
 * free, and platform-independent (AES under a seed-derived key).
 */
class ShardRouter
{
  public:
    ShardRouter(std::uint64_t route_seed, std::uint32_t shard_count);

    std::uint32_t shardOf(std::uint64_t block_id) const;
    std::uint32_t shardCount() const { return shards_; }

  private:
    crypto::Prf prf_;
    std::uint32_t shards_;
};

class ShardedOramDevice : public timing::OramDeviceIf
{
  public:
    /**
     * @param inner_spec backend spec of each subtree device (kind must
     *        be a non-sharded kind; shards in the spec are ignored)
     * @param cfg modeled geometry of the WHOLE tree; each shard gets
     *        ceil(numBlocks / M) blocks of it (a shallower subtree)
     * @param shards M, checked with inner_spec by checkDeviceSpec()
     * @param route_seed PRF key seed for the block router
     * @param mem DRAM model shard calibrations replay against
     * @param rng calibration randomness (per-shard streams drawn in
     *        shard order; M = 1 consumes the bare device's draws)
     * @param record wrap every shard in a RecordingOramDevice so tests
     *        and benches can pin the per-shard observable streams
     */
    ShardedOramDevice(const OramDeviceSpec &inner_spec,
                      const OramConfig &cfg, std::uint32_t shards,
                      std::uint64_t route_seed, dram::MemoryIf &mem,
                      Rng &rng, bool record = false);

    const char *kind() const override { return "sharded"; }

    /**
     * Route a real transaction: returns its shard and, for functional
     * inners, rewrites txn.blockId to the shard-local (first-touch
     * dense) id. Per-shard drivers (ShardSlot enforcers, the sharded
     * processor backend) call this and then serve txn on shard(i);
     * submit() does the same internally for unsharded drivers.
     */
    std::uint32_t route(timing::OramTransaction &txn);

    /** Router decision alone (no id rewrite) — histograms, tests. */
    std::uint32_t shardOf(std::uint64_t block_id) const
    {
        return router_.shardOf(block_id);
    }

    /**
     * Split routing for concurrent drivers (sim/shard_worker.hh): the
     * PRF decision is stateless and safe from any thread, while the
     * functional-inner id compaction mutates per-shard state —
     * localize() must be called from whatever context owns the shard.
     * routeOf(txn) then localize(s, txn) == route(txn).
     */
    std::uint32_t routeOf(const timing::OramTransaction &txn) const;
    void localize(std::uint32_t shard, timing::OramTransaction &txn);

    std::uint32_t shardCount() const { return router_.shardCount(); }

    /**
     * Shard @p i's device endpoint (the recorder when recording).
     * Per-shard enforcers drive this directly so each shard's stream
     * is timed — and observed — independently.
     */
    timing::OramDeviceIf &shard(std::uint32_t i);
    const timing::OramDeviceIf &shard(std::uint32_t i) const;

    /** Shard @p i's recorded stream (nullptr unless record = true). */
    const timing::RecordingOramDevice *recorder(std::uint32_t i) const;

    /** Shard @p i's bare backend, bypassing any recorder (fault-
     *  counter probes; submissions belong on shard()). */
    timing::OramDeviceIf &innerDevice(std::uint32_t i);
    const timing::OramDeviceIf &innerDevice(std::uint32_t i) const;

    /**
     * Unsharded-driver path (base_oram, single global enforcer): reals
     * route by PRF, dummies round-robin so every shard's stream stays
     * fed. Shards serialize independently, so back-to-back submissions
     * to distinct shards overlap.
     */
    timing::OramCompletion submit(Cycles now,
                                  const timing::OramTransaction &txn)
        override;

    /** Max per-shard calibrated latency (shards calibrate their own
     *  streams; subtree OLATs can differ by a few cycles). */
    Cycles accessLatency() const override;
    /** Max per-shard path occupancy (== accessLatency() in sync mode). */
    Cycles occupancyPerAccess() const override;
    std::uint64_t bytesPerAccess() const override;
    std::uint64_t cryptoBytesPerAccess() const override;
    std::uint64_t cryptoCallsPerAccess() const override;
    /** Sums over shards. */
    std::uint64_t realAccesses() const override;
    std::uint64_t dummyAccesses() const override;

    /**
     * Unsharded-driver path: forward the eviction window to every
     * shard (per-shard enforcers instead call maybeEvict on their own
     * shard() endpoint). Charges are summed.
     */
    timing::OramEvictionCharge maybeEvict(Cycles horizon) override;
    /** Stash/eviction telemetry, summed over shards. */
    std::uint64_t stashOccupancy() const override;
    std::uint64_t stashHighWater() const override;
    std::uint64_t blocksEvicted() const override;
    std::uint64_t evictionsIssued() const override;

    /** Geometry each shard models (numBlocks = ceil(whole / M)). */
    const OramConfig &shardConfig() const { return shardCfg_; }

    /**
     * Checkpoint support: the dummy round-robin cursor, the functional
     * id-compaction maps, and every shard endpoint (the recorder when
     * recording, so restored runs replay the full observable streams).
     */
    void saveState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  private:
    ShardRouter router_;
    OramConfig shardCfg_;
    std::vector<std::unique_ptr<timing::OramDeviceIf>> inner_;
    std::vector<std::unique_ptr<timing::RecordingOramDevice>> recorders_;
    /** Functional inners only: global id -> dense shard-local id. */
    bool compactIds_ = false;
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> localIds_;
    std::uint32_t nextDummyShard_ = 0;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_SHARDED_DEVICE_HH
