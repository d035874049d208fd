/**
 * @file
 * ORAM backends of the transactional device interface
 * (timing/oram_device.hh), plus the factory the sim layer selects
 * them through:
 *
 *  - TimingOramDevice:     the calibrated constant-OLAT ORAM
 *                          controller itself: one path replay at
 *                          construction fixes every per-access cost.
 *                          No data moves; this is the paper's
 *                          methodology and the default.
 *  - FunctionalOramDevice: a real RecursivePathOram datapath — every
 *                          real access reads, re-encrypts and writes
 *                          back full paths through the bucket codec
 *                          and AES-CTR engine; every dummy touches
 *                          every tree — with cycle charging from the
 *                          SAME calibration (it derives from
 *                          TimingOramDevice), so a run's
 *                          timing/power/leakage stats are
 *                          bit-identical to the timing device.
 *
 * The functional datapath capacity can be capped below the modeled
 * geometry (paper-scale trees are multi-GB): timing, bytes and crypto
 * attribution always reflect the modeled geometry, while block ids
 * fold into the capped functional tree. The cap only bounds host
 * memory; with an uncapped tree the datapath and the model coincide.
 */

#ifndef TCORAM_ORAM_ORAM_DEVICE_HH
#define TCORAM_ORAM_ORAM_DEVICE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "crypto/crypto_engine.hh"
#include "dram/faulty_memory.hh"
#include "dram/memory_if.hh"
#include "oram/eviction_engine.hh"
#include "oram/oram_config.hh"
#include "oram/path_oram.hh"
#include "timing/oram_device.hh"

namespace tcoram::oram {

/** Path read/write-back scheduling policy (OramDeviceSpec::pathMode). */
enum class PathMode
{
    Sync,      ///< whole-path read, then whole-path write-back
    Pipelined, ///< write-backs overlap in-flight deeper reads
};

/** PathMode from its DRAM-mode name: "sync" (or empty) or "async"
 *  (Pipelined). Fatal, naming the string, on anything else. */
PathMode parsePathMode(const std::string &name);

/**
 * The calibrated ORAM controller (paper §3): it sits where a DRAM
 * controller would, and every transaction costs a full tree path in
 * the data ORAM and every recursive ORAM. No data moves.
 *
 * Path ORAM's access cost is address-independent by construction
 * (every access touches one root-to-leaf path per tree), so the device
 * derives its per-access costs by replaying one path's DRAM
 * transactions against the memory model once at construction. This
 * is the paper's methodology, which quotes a constant 1488-cycle /
 * 24.2 KB access for the 4 GB configuration.
 *
 * Two path modes select what that replay models:
 *
 *  - PathMode::Sync (the paper's controller): read the whole path,
 *    then write the whole path back; the requested line is available —
 *    and the device free — only when the last write-back bucket lands.
 *    OLAT covers both phases.
 *
 *  - PathMode::Pipelined (split-transaction controller): bucket
 *    write-backs are issued through the async dram::MemoryIf the
 *    moment their read retires (re-encryption is not cycle-charged,
 *    matching the sync model), so write-back of level k is in flight
 *    while deeper reads still stream. The requested line is available
 *    once the path read completes — OLAT shrinks to the read phase —
 *    while the write-back tail drains in the shadow of the enforced
 *    inter-access gap. occupancyPerAccess() is the full drain time;
 *    the device does not start the next access before the previous
 *    one's write-back has retired, so the DRAM-level stream stays
 *    address- and data-independent.
 */
class TimingOramDevice : public timing::OramDeviceIf
{
  public:
    /**
     * @param cfg tree geometry
     * @param mem DRAM backing the tree (used once, for calibration)
     * @param rng randomness for the calibration path choice (the same
     *        draws whichever mode, so modes never shift a seeded run)
     * @param mode path scheduling policy to calibrate under
     * @param evict background eviction engine configuration
     */
    TimingOramDevice(const OramConfig &cfg, dram::MemoryIf &mem, Rng &rng,
                     PathMode mode = PathMode::Sync,
                     const EvictionConfig &evict = {});

    const char *kind() const override { return "timing"; }

    /**
     * Serve @p txn from max(now, busyUntil()). Real and dummy
     * transactions cost the same; the completion's done cycle is when
     * the requested line is available. In sync mode the device is also
     * free again then; in pipelined mode its write-back tail keeps the
     * path busy until start + occupancyPerAccess().
     */
    timing::OramCompletion submit(Cycles now,
                                  const timing::OramTransaction &txn) override;

    /** Calibrated per-access latency (the paper's OLAT): cycles from
     *  service start until the requested line is available. */
    Cycles accessLatency() const override { return latency_; }

    /**
     * Cycles from service start until the access's DRAM traffic has
     * fully drained and the next access may start. Equals
     * accessLatency() in sync mode; in pipelined mode it covers the
     * overlapped write-back tail (occupancy >= latency).
     */
    Cycles occupancyPerAccess() const override { return occupancy_; }

    /** The calibrated path mode. */
    PathMode pathMode() const { return mode_; }

    /** Bytes moved over the pins per access (paper: 24.2 KB). */
    std::uint64_t bytesPerAccess() const override { return bytesPerAccess_; }

    /** AES chunks per access (16 B each; paper: 2 * 758 per direction). */
    std::uint64_t chunksPerAccess() const { return chunksPerAccess_; }

    /**
     * Bytes through the bucket crypto engine per access: every byte
     * moved on/off chip is decrypted (path read) or encrypted (path
     * write-back) exactly once, so this equals bytesPerAccess().
     */
    std::uint64_t cryptoBytesPerAccess() const override
    {
        return bytesPerAccess_;
    }

    /**
     * Batched crypto-engine invocations per access with the path-level
     * engine: one whole-path decrypt and one whole-path write-back
     * encrypt per tree (data + each recursive position-map ORAM) —
     * 2·(H+1) for H recursion stages.
     */
    std::uint64_t cryptoCallsPerAccess() const override
    {
        return cryptoCallsPerAccess_;
    }

    std::uint64_t realAccesses() const override { return realAccesses_; }
    std::uint64_t dummyAccesses() const override { return dummyAccesses_; }

    /** Cycle at which the current access (including any overlapped
     *  write-back tail) stops occupying the path. */
    Cycles busyUntil() const { return busyUntil_; }

    /**
     * Issue background evictions inside the idle window between
     * busyUntil() and @p horizon. The enforcer guarantees no future
     * slot can start before @p horizon, and every eviction issued here
     * fully retires by then — an eviction in flight never delays a
     * real access's slot. No-op (and zero-cost) when the engine is
     * off, so eviction-off runs stay bit-identical to pre-eviction.
     * The charge's firstSchedule is the reverse-lexicographic schedule
     * index of the first eviction (functional devices realize
     * evictions [firstSchedule, firstSchedule + evictions) against
     * their stash).
     */
    timing::OramEvictionCharge maybeEvict(Cycles horizon) override;

    const EvictionEngine &evictionEngine() const { return evict_; }

    /**
     * Modeled stash pressure, identical for timing-only and functional
     * devices: each deferred write-back tail parks one path's worth of
     * blocks in the stash until a background eviction retires it.
     */
    std::uint64_t stashOccupancy() const override
    {
        return evict_.debt() * pathBlocksPerAccess_;
    }
    std::uint64_t stashHighWater() const override
    {
        return evict_.highWaterDebt() * pathBlocksPerAccess_;
    }
    std::uint64_t blocksEvicted() const override
    {
        return evict_.evictionsIssued() * pathBlocksPerAccess_;
    }
    std::uint64_t evictionsIssued() const override
    {
        return evict_.evictionsIssued();
    }

    /**
     * Checkpoint support: the run state (busy horizon, served
     * counters). Calibration results are derived at construction and
     * asserted — not restored — so a snapshot can never smuggle in a
     * mismatched geometry.
     */
    void saveState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  private:
    /** One representative access's path-read transactions (all trees). */
    std::vector<dram::MemRequest> buildPathReads(Rng &rng) const;
    Cycles calibrateSync(dram::MemoryIf &mem,
                         std::span<const dram::MemRequest> reads);
    /** Sets latency_ (read done) AND occupancy_ (full drain). */
    void calibratePipelined(dram::MemoryIf &mem,
                            std::span<const dram::MemRequest> reads);

    OramConfig cfg_;
    PathMode mode_;
    EvictionEngine evict_;
    Cycles latency_ = 0;
    Cycles occupancy_ = 0;
    std::uint64_t bytesPerAccess_ = 0;
    std::uint64_t chunksPerAccess_ = 0;
    std::uint64_t cryptoCallsPerAccess_ = 0;
    std::uint64_t pathBlocksPerAccess_ = 0;
    Cycles busyUntil_ = 0;
    std::uint64_t realAccesses_ = 0;
    std::uint64_t dummyAccesses_ = 0;
};

/**
 * Functional backend: real data movement with timing-device charging.
 * It IS a TimingOramDevice — every completion, eviction charge and
 * accessor comes from the inherited calibration — that also
 * runs each transaction through a real datapath. The base is built
 * first, so construction consumes the identical calibration RNG draws
 * as TimingOramDevice and swapping devices never shifts a seeded run.
 */
class FunctionalOramDevice : public TimingOramDevice
{
  public:
    /**
     * @param cfg modeled geometry (calibration and cost attribution)
     * @param mem DRAM model the latency calibration replays against
     * @param rng calibration path randomness (same draws as timing)
     * @param key_seed bucket-encryption/PRF key seed for the datapath
     * @param datapath_block_cap functional tree capacity cap in blocks
     *        (0 = uncapped); ids fold modulo the realized capacity
     * @param backend bucket-crypto engine (Auto = process default)
     * @param mode path scheduling policy the charging is calibrated
     *        under (the datapath itself is mode-independent)
     * @param evict background eviction engine configuration
     */
    FunctionalOramDevice(
        const OramConfig &cfg, dram::MemoryIf &mem, Rng &rng,
        std::uint64_t key_seed, std::uint64_t datapath_block_cap = 0,
        crypto::CryptoBackend backend = crypto::CryptoBackend::Auto,
        PathMode mode = PathMode::Sync, const EvictionConfig &evict = {});

    const char *kind() const override { return "functional"; }

    timing::OramCompletion submit(Cycles now,
                                  const timing::OramTransaction &txn) override;

    /**
     * Background evictions: the inherited engine decides how many
     * fit the window and charges modeled costs; each one is then
     * realized against the functional stash via
     * RecursivePathOram::backgroundEvict, so the drained blocks really
     * land back in the tree. Telemetry accessors report the modeled
     * (calibration-derived) values, identical to the timing device.
     */
    timing::OramEvictionCharge maybeEvict(Cycles horizon) override;

    /** The functional tree stack (attack probes, tests). */
    RecursivePathOram &functionalOram() { return *func_; }
    const RecursivePathOram &functionalOram() const { return *func_; }

    /** Realized functional capacity (after the cap). */
    std::uint64_t functionalBlocks() const
    {
        return funcCfg_.numBlocks;
    }

    /** Cumulative bytes the functional datapath actually moved. */
    std::uint64_t dataBytesMoved() const { return dataBytesMoved_; }

    /**
     * Arm the fault-tolerant datapath: enable per-bucket HMAC
     * verification on every tree (tag key derived from the device's
     * key seed) and, when @p spec carries data-fault kinds, attach a
     * seeded injector corrupting path-read copies. Completions then
     * report the faults detected / re-reads issued per transaction so
     * the enforcer can charge recovery into the observable stream.
     */
    void enableFaultModel(const dram::FaultSpec &spec,
                          unsigned retry_budget = 4);

    /** Cumulative recovery counters (zero until enableFaultModel). */
    std::uint64_t faultsDetected() const { return func_->faultsDetected(); }
    std::uint64_t faultsRecovered() const
    {
        return func_->faultsRecovered();
    }
    std::uint64_t retriesIssued() const { return func_->retriesIssued(); }
    std::uint64_t faultsInjected() const
    {
        return injector_ ? injector_->faultsInjected() : 0;
    }

    void saveState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  private:
    OramConfig funcCfg_;     ///< capped functional geometry
    std::uint64_t keySeed_;  ///< datapath key seed (tag key derivation)
    std::unique_ptr<RecursivePathOram> func_;
    std::unique_ptr<dram::FaultInjector> injector_;
    std::vector<std::uint8_t> scratchOut_;
    std::vector<std::uint8_t> scratchData_;
    std::uint64_t dataBytesMoved_ = 0;
};

/**
 * Which ORAM device serves a run: the one spec both the CPU simulator
 * (SystemConfig::device) and the ring-scheduler stacks
 * (ServingStack::Config::inner, RecoveryRunConfig::inner) carry.
 * checkDeviceSpec() states its invariants.
 */
struct OramDeviceSpec
{
    static constexpr std::uint32_t kMaxShards = 64;
    static constexpr std::uint32_t kMaxEvictionBudget = 1u << 20;

    /** "timing", "functional" or "sharded" (M-subtree array). */
    std::string kind = "timing";
    /** Functional datapath key seed. */
    std::uint64_t keySeed = 1;
    /** Functional capacity cap in blocks (0 = uncapped; per shard). */
    std::uint64_t functionalBlockCap = 0;

    /**
     * Path read/write-back scheduling the per-access charging is
     * calibrated under (DRAM mode "sync" or "async"). Pipelined
     * shrinks OLAT to the path-read phase and reports the full-drain
     * time as occupancyPerAccess(); Sync is the paper's blocking
     * controller.
     */
    PathMode pathMode = PathMode::Sync;

    /**
     * Subtree count for the sharded array (oram/sharded_device.hh), in
     * [1, kMaxShards]. Any kind with shards > 1 is wrapped; kind
     * "sharded" wraps even at shards = 1 (the transparency the
     * golden-stats tests pin).
     */
    std::uint32_t shards = 1;
    /** PRF key seed for the deterministic block -> shard router. */
    std::uint64_t routeSeed = 1;
    /** Backend of each subtree when kind = "sharded". */
    std::string innerKind = "timing";

    /**
     * Fault model for the datapath (dram/faulty_memory.hh). Data-fault
     * kinds (flip/stuck) arm the functional backend's fault-tolerant
     * datapath via enableFaultModel(); timing kinds (delay/refuse) are
     * the DRAM decorator's job (SystemConfig::memorySpec() wraps the
     * memory in a "faulty" backend) and are ignored here. Disabled by
     * default.
     */
    dram::FaultSpec fault{};
    /** Retry budget of the recovery engine when the fault model is on. */
    unsigned retryBudget = 4;

    /**
     * Background eviction engine (oram/eviction_engine.hh). Off by
     * default; enabling it requires pathMode = Pipelined and a nonzero
     * budget. Per shard when the device is sharded.
     */
    EvictionPolicy evictionPolicy = EvictionPolicy::Off;
    /** Max deferred write-back tails outstanding per device, in
     *  [0, kMaxEvictionBudget]. */
    std::uint32_t evictionBudget = 0;

    EvictionConfig
    evictionConfig() const
    {
        return {evictionPolicy, evictionBudget};
    }
};

/**
 * Fatal, naming the field and its bad value, unless @p spec is
 * consistent: a registered kind, shards in [1, kMaxShards],
 * evictionBudget <= kMaxEvictionBudget, and an eviction policy only
 * with a nonzero budget under PathMode::Pipelined (the sync
 * controller has no write-back tail to defer). Every device built
 * from a spec passes it: makeOramDevice() and ShardedOramDevice run it.
 */
void checkDeviceSpec(const OramDeviceSpec &spec);

/** Registered device kinds, sorted (for --list-backends). */
std::vector<std::string> oramDeviceKinds();

/** True if @p kind names a known device backend. */
bool oramDeviceKindKnown(const std::string &kind);

/** Instantiate spec.kind over @p cfg (checkDeviceSpec() first). */
std::unique_ptr<timing::OramDeviceIf>
makeOramDevice(const OramDeviceSpec &spec, const OramConfig &cfg,
               dram::MemoryIf &mem, Rng &rng);

} // namespace tcoram::oram

#endif // TCORAM_ORAM_ORAM_DEVICE_HH
