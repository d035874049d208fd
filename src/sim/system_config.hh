/**
 * @file
 * Whole-system configuration presets matching the paper's evaluated
 * designs (§9.1.6): base_dram, base_oram, static_<rate>, and
 * dynamic_R<r>_E<g>. Simulated runs use a scaled epoch0 (2^20 cycles
 * vs the paper's 2^30) so the harness finishes in minutes; leakage is
 * always additionally reported at paper constants (DESIGN.md §7).
 */

#ifndef TCORAM_SIM_SYSTEM_CONFIG_HH
#define TCORAM_SIM_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/backend_registry.hh"
#include "oram/oram_config.hh"
#include "oram/oram_device.hh"
#include "timing/rate_learner.hh"

namespace tcoram::sim {

enum class Scheme
{
    BaseDram, ///< insecure DRAM, no ORAM (performance baseline)
    BaseOram, ///< Path ORAM, no timing protection (leaks freely)
    Static,   ///< single periodic rate (Ascend-style, zero ORAM leak)
    Dynamic,  ///< our scheme: epoch-based learned rates
    /**
     * §10's "can our scheme work without ORAM?": rate-enforced plain
     * DRAM whose dummies are made indistinguishable by closed-page
     * (public-state) row buffers and partitioned channels. Protects
     * the *timing* channel only — addresses still leak — but shows
     * the epoch/learner machinery generalizes beyond ORAM.
     */
    ProtectedDram,
};

struct SystemConfig
{
    std::string name = "base_dram";
    Scheme scheme = Scheme::BaseDram;

    /** LLC capacity (paper reports the 1 MB result). */
    std::uint64_t llcBytes = 1024 * 1024;
    /** ORAM geometry (ignored for BaseDram). */
    oram::OramConfig oram = oram::OramConfig::benchConfig();

    // --- Rate control (Static / Dynamic) ---
    /** Static scheme's single rate. */
    Cycles staticRate = 300;
    /** Dynamic scheme: |R| candidates, lg-spaced in [rateLo, rateHi]. */
    std::size_t rateCount = 4;
    Cycles rateLo = 256;
    Cycles rateHi = 32768;
    /** Epoch growth factor g in dynamic_R<r>_E<g>. */
    unsigned epochGrowth = 4;
    /** First-epoch length (scaled; paper uses 2^30). */
    Cycles epoch0 = Cycles{1} << 20;
    /** Simulated Tmax (scaled; paper uses 2^62). */
    Cycles tmax = Cycles{1} << 40;
    /** Rate used during epoch 0 (paper: 10000). */
    Cycles initialRate = 10000;
    timing::RateLearner::Divider divider =
        timing::RateLearner::Divider::Shifter;
    /** Rate-candidate spacing (Log is the paper's choice). */
    bool linearSpacing = false;
    /** Which epoch-boundary predictor drives the enforcer. */
    enum class Learner
    {
        Simple,    ///< §7.1 averaging predictor (the paper's default)
        Threshold, ///< §7.3 sophisticated predictor
    };
    Learner learnerKind = Learner::Simple;
    /** §7.3 trade-off parameter for the Threshold learner. */
    double thresholdSharpness = 0.3;

    /**
     * Per-session ORAM-timing leakage budget L in bits (§2.1). When
     * finite, the enforcer pins the rate once the budget is spent.
     */
    double leakageLimitBits = -1.0; ///< negative = unlimited

    std::uint64_t seed = 1;
    /** Instructions per IPC sample (Figure 7 granularity). */
    InstCount ipcWindow = 1'000'000;

    /**
     * Main-memory backend kind (dram/backend_registry.hh). Empty
     * selects the scheme's natural backend: "flat" for BaseDram,
     * "banked" otherwise. Set to "trace" to record every transaction
     * for the attack experiments.
     */
    std::string memoryBackend;

    /** Registry spec for this configuration's main memory (fatal on
     *  an unknown memoryBackend string, naming the config). When the
     *  fault model carries timing kinds (delay/refuse), the resolved
     *  kind is wrapped as "faulty:<kind>" so the decorator perturbs
     *  the async core underneath the controller. */
    dram::BackendSpec memorySpec() const;

    /**
     * Fault-injection spec in FaultSpec text form ("flip@1e-4",
     * "all@0.001#7", ...; dram/faulty_memory.hh). Empty or "none"
     * disables injection. Data kinds (flip/stuck) arm the functional
     * datapath's MAC-verified bounded-retry recovery; timing kinds
     * (delay/refuse) wrap main memory in the FaultyMemory decorator.
     */
    std::string faultSpec;

    /** Parsed spec (fatal on a malformed string, naming the input). */
    dram::FaultSpec faultSpecParsed() const;

    /** Retry budget of the recovery engine when faults are armed. */
    unsigned faultRetryBudget = 4;

    /**
     * ORAM device backend serving the processor (oram/oram_device.hh).
     * Empty selects "timing" (the paper's calibrated constant-OLAT
     * model). "functional" runs the real PathOram datapath with
     * identical cycle charging, so a run's stats are bit-identical
     * across the two devices.
     */
    std::string oramDevice;

    /**
     * Functional datapath capacity cap in blocks (0 = uncapped).
     * Paper-scale trees are multi-GB; the cap bounds host memory while
     * timing/cost attribution stays on the modeled geometry. The
     * default fits the bench tree exactly (so bench geometry runs
     * uncapped) and keeps paper-scale functional runs ~20 MB.
     */
    std::uint64_t functionalBlockCap = std::uint64_t{1} << 16;

    /** Resolved device kind (fatal on an unknown oramDevice string). */
    std::string oramDeviceKind() const;

    /**
     * Path read/write-back scheduling of the ORAM controller against
     * DRAM (oram::TimingOramDevice, oram/oram_device.hh):
     *
     *   "sync"  — whole-path read then whole-path write-back (the
     *             paper's blocking controller; the default, and the
     *             mode every golden CSV is pinned under)
     *   "async" — split-transaction controller: bucket write-backs are
     *             issued while deeper reads are still in flight, OLAT
     *             shrinks to the path-read phase, and the write-back
     *             tail drains inside the enforced inter-access gap
     *
     * Empty selects "sync". Ignored by base_dram / protected_dram,
     * which have no ORAM path.
     */
    std::string dramMode;

    /** Resolved mode string (fatal on an unknown dramMode, naming the
     *  config). */
    std::string dramModeKind() const;

    /** dramModeKind() as the oram-layer enum. */
    oram::PathMode pathMode() const;

    /**
     * Subtree shards of the ORAM device array (oram/sharded_device.hh).
     * 1 = the bare device (default). With M > 1 the ORAM-backed
     * schemes split the tree across M independent devices, each behind
     * its own rate enforcer: aggregate throughput scales with M and
     * the leakage bound composes additively (M parallel streams).
     * Ignored by base_dram / protected_dram, which have no ORAM tree.
     * oramDevice = "sharded" engages the array wrapper even at M = 1
     * (bit-identical to the bare device; golden-pinned).
     */
    std::uint32_t oramShards = 1;

    /** Validated shard count (fatal on 0 or on more shards than
     *  kMaxOramShards, naming the config). */
    std::uint32_t shardCount() const;
    static constexpr std::uint32_t kMaxOramShards = 64;

    /**
     * Background eviction engine (oram/eviction_engine.hh): "off"
     * (default; bit-identical to builds without the engine), "gap"
     * (evict whenever deferred write-back tails exist and one fits the
     * enforced-gap idle window) or "highwater" (evict only once the
     * deferred-tail debt reaches half the budget). Requires
     * dramMode = "async": the sync controller has no write-back tail
     * to defer. Empty selects "off".
     */
    std::string evictionPolicy;

    /** Resolved policy (fatal on an unknown evictionPolicy or on a
     *  non-off policy under the sync dramMode, naming the config). */
    oram::EvictionPolicy evictionPolicyKind() const;

    /**
     * Max deferred write-back tails outstanding per device (per shard
     * when sharded). Sizes how much burst backlog can drain at the
     * read-phase period before full-occupancy charging resumes.
     */
    std::uint32_t evictionBudget = 64;

    /** Validated budget (fatal on 0 with a non-off policy or above
     *  kMaxEvictionBudget, naming the config). */
    std::uint32_t evictionBudgetValue() const;
    static constexpr std::uint32_t kMaxEvictionBudget = 1u << 20;

    // --- Named presets (§9.1.6, §10) ---
    static SystemConfig baseDram();
    static SystemConfig baseOram();
    static SystemConfig staticScheme(Cycles rate);
    static SystemConfig dynamicScheme(std::size_t rate_count,
                                      unsigned epoch_growth);
    static SystemConfig protectedDram(std::size_t rate_count,
                                      unsigned epoch_growth);
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_SYSTEM_CONFIG_HH
