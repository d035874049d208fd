/**
 * @file
 * ORAM backends of the transactional device interface
 * (timing/oram_device.hh), plus the factory the sim layer selects
 * them through:
 *
 *  - TimingOramDevice:     the calibrated constant-OLAT controller
 *                          (oram/oram_controller.hh) behind submit().
 *                          No data moves; this is the paper's
 *                          methodology and the default.
 *  - FunctionalOramDevice: a real RecursivePathOram datapath — every
 *                          real access reads, re-encrypts and writes
 *                          back full paths through the bucket codec
 *                          and AES-CTR engine; every dummy touches
 *                          every tree — with cycle charging from the
 *                          SAME calibrated controller (it derives
 *                          from TimingOramDevice), so a run's
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
#include <string>
#include <vector>

#include "common/rng.hh"
#include "crypto/crypto_engine.hh"
#include "dram/faulty_memory.hh"
#include "dram/memory_if.hh"
#include "oram/oram_controller.hh"
#include "oram/path_oram.hh"
#include "timing/oram_device.hh"

namespace tcoram::oram {

/** Timing-model backend: OramController behind the transaction API. */
class TimingOramDevice : public timing::OramDeviceIf
{
  public:
    TimingOramDevice(const OramConfig &cfg, dram::MemoryIf &mem, Rng &rng,
                     PathMode mode = PathMode::Sync,
                     const EvictionConfig &evict = {})
        : ctrl_(cfg, mem, rng, mode, evict)
    {
    }

    const char *kind() const override { return "timing"; }

    timing::OramCompletion submit(Cycles now,
                                  const timing::OramTransaction &txn) override;

    Cycles accessLatency() const override { return ctrl_.accessLatency(); }
    Cycles occupancyPerAccess() const override
    {
        return ctrl_.occupancyPerAccess();
    }
    std::uint64_t bytesPerAccess() const override
    {
        return ctrl_.bytesPerAccess();
    }
    std::uint64_t cryptoBytesPerAccess() const override
    {
        return ctrl_.cryptoBytesPerAccess();
    }
    std::uint64_t cryptoCallsPerAccess() const override
    {
        return ctrl_.cryptoCallsPerAccess();
    }
    std::uint64_t realAccesses() const override
    {
        return ctrl_.realAccesses();
    }
    std::uint64_t dummyAccesses() const override
    {
        return ctrl_.dummyAccesses();
    }

    timing::OramEvictionCharge maybeEvict(Cycles horizon) override;
    std::uint64_t stashOccupancy() const override
    {
        return ctrl_.stashOccupancy();
    }
    std::uint64_t stashHighWater() const override
    {
        return ctrl_.stashHighWater();
    }
    std::uint64_t blocksEvicted() const override
    {
        return ctrl_.blocksEvicted();
    }
    std::uint64_t evictionsIssued() const override
    {
        return ctrl_.evictionsIssued();
    }

    const OramController &controller() const { return ctrl_; }

    void saveState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  private:
    OramController ctrl_;
};

/**
 * Functional backend: real data movement with timing-device charging.
 * It IS a TimingOramDevice — every completion, eviction charge and
 * accessor comes from the inherited calibrated controller — that also
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
     * Background evictions: the controller's engine decides how many
     * fit the window and charges modeled costs; each one is then
     * realized against the functional stash via
     * RecursivePathOram::backgroundEvict, so the drained blocks really
     * land back in the tree. Telemetry accessors report the modeled
     * (controller-derived) values, identical to the timing device.
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

/** Selection spec the sim layer derives from its SystemConfig. */
struct OramDeviceSpec
{
    /** "timing", "functional" or "sharded" (M-subtree array). */
    std::string kind = "timing";
    /** Functional datapath key seed. */
    std::uint64_t keySeed = 1;
    /** Functional capacity cap in blocks (0 = uncapped; per shard). */
    std::uint64_t functionalBlockCap = 0;
    /** Bucket-crypto engine for the functional datapath. */
    crypto::CryptoBackend cryptoBackend = crypto::CryptoBackend::Auto;

    /**
     * Path read/write-back scheduling the per-access charging is
     * calibrated under (SystemConfig::dramMode). Pipelined shrinks
     * OLAT to the path-read phase and reports the full-drain time as
     * occupancyPerAccess(); Sync is the paper's blocking controller.
     */
    PathMode pathMode = PathMode::Sync;

    /**
     * Subtree count for the sharded array (oram/sharded_device.hh).
     * Any kind with shards > 1 is wrapped; kind "sharded" wraps even
     * at shards = 1 (the transparency the golden-stats tests pin).
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
     * the DRAM decorator's job (SystemConfig wraps the memory spec in
     * "faulty:<kind>") and are ignored here. Disabled by default.
     */
    dram::FaultSpec fault{};
    /** Retry budget of the recovery engine when the fault model is on. */
    unsigned retryBudget = 4;

    /**
     * Background eviction engine (oram/eviction_engine.hh). Off by
     * default; enabling it requires pathMode = Pipelined (validated by
     * SystemConfig, asserted by the controller). Per shard when the
     * device is sharded.
     */
    EvictionPolicy evictionPolicy = EvictionPolicy::Off;
    /** Max deferred write-back tails outstanding per device. */
    std::uint32_t evictionBudget = 0;

    EvictionConfig
    evictionConfig() const
    {
        return {evictionPolicy, evictionBudget};
    }
};

/** Registered device kinds, sorted (for --list-backends). */
std::vector<std::string> oramDeviceKinds();

/** True if @p kind names a known device backend. */
bool oramDeviceKindKnown(const std::string &kind);

/** Instantiate spec.kind over @p cfg (fatal on unknown kind). */
std::unique_ptr<timing::OramDeviceIf>
makeOramDevice(const OramDeviceSpec &spec, const OramConfig &cfg,
               dram::MemoryIf &mem, Rng &rng);

} // namespace tcoram::oram

#endif // TCORAM_ORAM_ORAM_DEVICE_HH
