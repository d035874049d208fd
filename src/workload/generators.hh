/**
 * @file
 * Trace generation: turns a Profile into an infinite stream of timed
 * memory operations that the trace-driven core consumes.
 */

#ifndef TCORAM_WORKLOAD_GENERATORS_HH
#define TCORAM_WORKLOAD_GENERATORS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workload/profile.hh"

namespace tcoram::workload {

/** Kind of access leaving the generator. */
enum class OpKind
{
    InstFetch,
    Load,
    Store,
};

/** One trace record: an instruction gap followed by a memory access. */
struct TraceOp
{
    /** Instructions retired before this access (>= 0). */
    std::uint32_t gapInsts = 0;
    /** Extra stall cycles in the gap beyond 1 cycle/instruction. */
    std::uint32_t extraGapCycles = 0;
    Addr addr = 0;
    OpKind kind = OpKind::Load;

    bool operator==(const TraceOp &) const = default;
};

/** Abstract trace source. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** Produce the next record. Sources are infinite. */
    virtual TraceOp next() = 0;
    virtual const std::string &name() const = 0;
};

/**
 * Profile-driven synthetic source. A value: a copy continues the exact
 * stream the original would, so a warmed trace can seed several runs.
 */
class SyntheticTrace final : public TraceSource
{
  public:
    SyntheticTrace(const Profile &profile, std::uint64_t seed);

    /** Same profile and stream position: both produce the same ops
     *  from here on. The per-phase draw tables are a function of the
     *  profile (built lazily), so they are not compared. */
    bool operator==(const SyntheticTrace &o) const;

    TraceOp next() override;
    const std::string &name() const override { return profile_.name; }

    /** Current phase index (wraps when the schedule loops). */
    std::size_t phaseIndex() const { return phaseIdx_; }

  private:
    /** Extra-gap-cycle draws precomputed for gaps below this. */
    static constexpr std::uint32_t kExtraTable = 64;

    /**
     * One phase's draws, precomputed at construction: every Bernoulli
     * as an integer cut, every bound with its rejection threshold, the
     * derived region sizes, and the gap table (built on first draw).
     * Each form makes the same Rng draws and returns the same value as
     * the Rng call it replaces.
     */
    struct Draws
    {
        explicit Draws(const Phase &p);

        /** Extra gap cycles for a gap of @p g instructions: the whole
         *  part, and the cut for one more. */
        struct Extra
        {
            std::uint32_t whole = 0;
            BernoulliCut oneMore;
        };
        static Extra extraFor(const Phase &p, std::uint32_t g);

        /** Fetch jumps need at least this many instructions. */
        InstCount fetchJumpAfter;
        BernoulliCut fetchJump{0.5};
        BoundedDraw codeLine;
        GeometricTable gap;
        BernoulliCut burst;
        std::array<Extra, kExtraTable> extra;
        BernoulliCut store;

        bool mayGoCold;
        BernoulliCut hot;
        double mixTotal;
        std::uint64_t lines;
        BoundedDraw coldLine;
        BernoulliCut stack;
        BoundedDraw stackWord;
        std::uint64_t hotWords;
        BoundedDraw hotLine;
        BoundedDraw lineWord;
    };

    const Phase &phase() const { return profile_.phases[phaseIdx_]; }
    void advancePhase(InstCount insts);
    Addr dataAddr(const Phase &p, const Draws &d);

    Profile profile_;
    std::vector<Draws> draws_;
    Rng rng_;
    std::size_t phaseIdx_ = 0;
    InstCount instsLeftInPhase_;
    InstCount instsSinceFetchJump_ = 0;

    // Pattern state.
    Addr streamPos_ = 0;
    Addr coldStreamPos_ = 0;
    Addr stridePos_ = 0;
    Addr chasePos_ = 0;
    Addr fetchPos_ = 0;
    unsigned burstLeft_ = 0;
};

} // namespace tcoram::workload

#endif // TCORAM_WORKLOAD_GENERATORS_HH
