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
     * Registry spec for this configuration's main memory
     * (dram/backend_registry.hh), from the scheme and the fault spec
     * alone: "flat" for BaseDram, closed-page "banked" for
     * ProtectedDram, "banked" otherwise. When device.fault carries
     * timing kinds (delay/refuse), that kind becomes the faultInner of
     * a "faulty" spec so the decorator perturbs the async core
     * underneath the controller.
     */
    dram::BackendSpec memorySpec() const;

    /**
     * ORAM device serving the ORAM-backed schemes (oram/oram_device.hh;
     * base_dram and protected_dram have no ORAM path and ignore it, but
     * SecureProcessor still runs oram::checkDeviceSpec() on it):
     *
     *  - kind "timing" is the paper's calibrated constant-OLAT model;
     *    "functional" runs the real PathOram datapath with identical
     *    cycle charging, so a run's stats are bit-identical across the
     *    two; "sharded" engages the array wrapper even at shards = 1.
     *  - pathMode Sync (DRAM mode "sync") is the paper's blocking
     *    controller and the mode every golden CSV is pinned under;
     *    Pipelined ("async") is the split-transaction controller.
     *  - shards > 1 splits the tree across that many subtree devices,
     *    each behind its own rate enforcer; the leakage bound composes
     *    additively.
     *  - fault's data kinds (flip/stuck) arm the functional datapath's
     *    MAC-verified bounded-retry recovery (retryBudget); its timing
     *    kinds (delay/refuse) wrap main memory in FaultyMemory.
     *  - evictionPolicy/evictionBudget configure the background
     *    eviction engine (needs Pipelined).
     *
     * keySeed and routeSeed are derived from `seed` at construction.
     * The functional cap defaults to 2^16 blocks: it fits the bench
     * tree exactly (bench geometry runs uncapped) and keeps paper-scale
     * functional runs ~20 MB. The budget defaults to 64 deferred tails.
     */
    oram::OramDeviceSpec device = {
        .functionalBlockCap = std::uint64_t{1} << 16, .evictionBudget = 64};

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
