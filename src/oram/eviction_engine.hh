/**
 * @file
 * Background eviction engine (ROADMAP item 1): drains burst backlogs
 * through the enforced-gap idle window at an unchanged observable
 * rate.
 *
 * In pipelined path mode an access's write-back tail occupies the
 * path for occupancyPerAccess() - accessLatency() cycles after the
 * requested line is already available, and the rate enforcer then
 * leaves the channel idle until the next slot. The engine converts
 * that latent bandwidth into backlog drain: with the engine enabled,
 * an access may *defer* its write-back tail (the timing device charges
 * only the read phase and the evicted blocks notionally stay in the
 * stash), and the deferred tail is retired later by a background
 * eviction — a full path read + stash-evict + write-back on a
 * deterministic reverse-lexicographic leaf schedule, issued only
 * inside the window between busyUntil() and a horizon the enforcer
 * guarantees no future slot can start before. On the wire an eviction
 * is indistinguishable from a dummy access (same transaction set,
 * same calibrated duration), and whether one fires depends only on
 * the public slot grid and calibrated constants — never on data.
 *
 * The engine owns the retire-event replay loop (replayPipelinedPath);
 * TimingOramDevice's pipelined calibration and the engine both
 * calibrate through it, so an eviction occupies the path for exactly
 * as long as the access whose tail it retires would have.
 */

#ifndef TCORAM_ORAM_EVICTION_ENGINE_HH
#define TCORAM_ORAM_EVICTION_ENGINE_HH

#include <cstdint>
#include <span>
#include <string>

#include "common/serial.hh"
#include "common/types.hh"
#include "dram/memory_if.hh"

namespace tcoram::oram {

/** When the engine issues evictions inside the enforced gap. */
enum class EvictionPolicy : std::uint8_t
{
    Off,       ///< engine disabled: pre-eviction behaviour, bit-identical
    Gap,       ///< evict whenever deferred tails exist and one fits
    HighWater, ///< evict only once debt reaches half the budget
};

/** Fatal (naming the string) on an unknown policy name. */
EvictionPolicy parseEvictionPolicy(const std::string &name);
const char *evictionPolicyName(EvictionPolicy p);
/** Space-separated list for usage/--list-backends text. */
const char *evictionPolicyNames();

struct EvictionConfig
{
    EvictionPolicy policy = EvictionPolicy::Off;
    /** Maximum deferred write-back tails outstanding per device. */
    std::uint32_t budget = 0;
};

/** Timings of one pipelined path replay, relative to issue start. */
struct PipelinedPathTiming
{
    Cycles readDone = 0; ///< read phase (OLAT)
    Cycles allDone = 0;  ///< full drain including write-backs
};

/**
 * The split-transaction retire-event loop: stream every path-bucket
 * read through the async core and issue each bucket's write-back the
 * moment its read retires. Shared by TimingOramDevice's pipelined
 * calibration and EvictionEngine::calibrate.
 */
PipelinedPathTiming replayPipelinedPath(dram::MemoryIf &mem,
                                        std::span<const dram::MemRequest>
                                            reads);

class EvictionEngine
{
  public:
    EvictionEngine() = default;
    explicit EvictionEngine(const EvictionConfig &cfg) : cfg_(cfg) {}

    bool enabled() const
    {
        return cfg_.policy != EvictionPolicy::Off && cfg_.budget > 0;
    }
    const EvictionConfig &config() const { return cfg_; }

    /** Measure one eviction's path occupancy by replaying the
     *  calibration read set through the lifted retire-event loop. */
    void calibrate(dram::MemoryIf &mem,
                   std::span<const dram::MemRequest> reads);

    /** Path occupancy of one background eviction (== the calibrated
     *  occupancyPerAccess of the access whose tail it retires). */
    Cycles evictionDuration() const { return duration_; }

    /** May the next access defer its write-back tail? */
    bool canDefer() const { return enabled() && debt_ < cfg_.budget; }

    /** Record one deferred write-back tail. */
    void deferWriteback();

    /** Policy trigger: should a gap drain start right now? */
    bool wantsEviction() const;

    /** Account one issued eviction and retire one deferred tail;
     *  @return the eviction's reverse-lexicographic schedule index. */
    std::uint64_t issueEviction();

    /** Deferred write-back tails currently outstanding. */
    std::uint64_t debt() const { return debt_; }
    std::uint64_t highWaterDebt() const { return highWaterDebt_; }
    /** Background evictions issued so far (== schedule counter). */
    std::uint64_t evictionsIssued() const { return evictions_; }

    /**
     * Leaf targeted by eviction @p g on a tree with @p num_leaves
     * leaves at depth @p depth: the bit-reversed counter enumerates
     * leaves in reverse-lexicographic order, spreading consecutive
     * evictions across sibling subtrees (ring-ORAM's schedule).
     */
    static Leaf scheduleLeaf(std::uint64_t g, unsigned depth,
                             std::uint64_t num_leaves);

    /**
     * Checkpoint support. Configuration and calibrated duration are
     * asserted — not restored — so a snapshot taken under one eviction
     * configuration names the config when restored under another.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    EvictionConfig cfg_;
    Cycles duration_ = 0;
    std::uint64_t debt_ = 0;
    std::uint64_t highWaterDebt_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_EVICTION_ENGINE_HH
