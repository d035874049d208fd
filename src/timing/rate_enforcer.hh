/**
 * @file
 * Leakage-enforced ORAM access scheduler (paper Figure 3). Within an
 * epoch, ORAM accesses — real or indistinguishable dummies — start
 * exactly `rate` cycles after the previous access completes. At each
 * epoch transition the rate learner picks the next rate from R using
 * the epoch's performance counters, which are then reset.
 *
 * The enforcer is event-driven: time advances when the processor
 * presents an LLC miss or when the run drains. Dummy accesses that
 * fire inside compute gaps are simulated (they cost energy and shape
 * the observable trace).
 *
 * A static (zero ORAM-timing-leakage) scheme is expressed as a
 * single-candidate RateSet: the learner can then only ever re-select
 * the same rate, giving lg 1 = 0 bits.
 */

#ifndef TCORAM_TIMING_RATE_ENFORCER_HH
#define TCORAM_TIMING_RATE_ENFORCER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "timing/epoch_schedule.hh"
#include "timing/leakage.hh"
#include "timing/learner_if.hh"
#include "timing/oram_device.hh"
#include "timing/perf_counters.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::timing {

/** One epoch-boundary rate decision (for Figure 7 annotations). */
struct RateDecision
{
    unsigned epoch;
    Cycles startCycle;
    Cycles rate;
};

class RateEnforcer
{
  public:
    /**
     * @param device ORAM controller to drive
     * @param rates  public candidate set R
     * @param schedule epoch schedule E
     * @param learner rate learner (bound to @p rates)
     * @param initial_rate rate used during epoch 0 (paper: 10000)
     */
    RateEnforcer(OramDeviceIf &device, const RateSet &rates,
                 const EpochSchedule &schedule, const LearnerIf &learner,
                 Cycles initial_rate);

    /**
     * Attach a session leakage budget (§2.1): once the monitor's
     * budget is exhausted, epoch transitions stop consulting the
     * learner and pin the current rate — a forced decision consumes
     * no bits, so the realized leakage never exceeds L.
     */
    void attachMonitor(LeakageMonitor *monitor) { monitor_ = monitor; }

    /**
     * Serve a real transaction that arrives at cycle @p arrival. Any
     * dummy slots that fire before the request can be scheduled are
     * simulated first; the transaction starts at the first enforced
     * slot at or after its arrival, so the observable stream stays
     * periodic whatever the request carries. Returns the completion
     * record (the line is available at .done). This is serveBounded()
     * with each epoch transition it stops at applied inline, followed
     * by settle() the same way.
     */
    OramCompletion serve(Cycles arrival, const OramTransaction &txn);

    /** Payload-free convenience over serve(). */
    Cycles
    serveReal(Cycles arrival)
    {
        return serve(arrival, OramTransaction::real()).done;
    }

    /**
     * Advance the enforced schedule to cycle @p t with no pending
     * work, firing the dummy accesses the rate demands: drainBounded()
     * with each transition it stops at applied inline. Called when the
     * program ends (and optionally at sync points).
     */
    void drainUntil(Cycles t);

    // --- The bounded steps (one slot/epoch interleave) ---
    //
    // There is one implementation of the slot/epoch interleave: the
    // bounded steps below, which stop INSTEAD of processing an epoch
    // transition. serve()/drainUntil() are those steps with each
    // transition applied inline (applyTransition()) — the CPU
    // simulator's single-threaded path. The ring scheduler, where M
    // enforcers share one LeakageMonitor across worker threads, calls
    // the steps directly and applies the transitions at a
    // deterministic slot barrier in shard-id order (see
    // sim/shard_worker.hh). Either way the micro-operation sequence —
    // dummies, waste charges, transitions, serves — is the same, so
    // per-shard observable streams and decisions do not depend on who
    // applies the transitions or on the worker count.

    /**
     * Bounded serve: returns nullopt when the transaction cannot be
     * served before this enforcer's next epoch boundary. The caller
     * must applyTransition() (after the barrier) and retry with the
     * SAME transaction — the enforcer tracks the per-transaction
     * Req 3 waste charge across retries. A recovered transaction's
     * backoff slots fire right after it, up to the next boundary; the
     * rest stay owed (see settle()).
     */
    std::optional<OramCompletion> serveBounded(Cycles arrival,
                                               const OramTransaction &txn);

    /**
     * Bounded drain: fires dummy slots due before @p t, but
     * stops instead of processing an epoch transition. @return true
     * when the schedule reached @p t; false when a transition at
     * nextBoundary() must be applied first.
     */
    bool drainBounded(Cycles t);

    /**
     * Fire the recovery backoff slots a bounded serve still owes — at
     * the enforced slot positions right after it, before anything
     * else touches this enforcer. @return false when a transition at
     * nextBoundary() must be applied first (serveBounded() and
     * drainBounded() settle on entry; callers that inspect
     * lastCompletion() before serving settle first).
     */
    bool settle();

    /** The epoch boundary the bounded calls refuse to cross. */
    Cycles nextBoundary() const { return schedule_.epochStart(epoch_ + 1); }

    /**
     * Apply the epoch transition at nextBoundary() — the serial
     * barrier step. Only meaningful right after a bounded call
     * reported it stopped at the boundary; transitions must be applied
     * in shard-id order so the shared monitor's ledger is
     * deterministic whatever the worker count.
     */
    void applyTransition() { transitionAt(nextBoundary()); }

    unsigned currentEpoch() const { return epoch_; }
    const std::vector<RateDecision> &decisions() const { return decisions_; }
    const PerfCounters &counters() const { return counters_; }
    /** Transitions at which the leakage budget pinned the rate. */
    unsigned pinnedDecisions() const { return pinnedDecisions_; }

    /** Completion cycle of the most recent (real or dummy) access. */
    Cycles lastCompletion() const { return lastCompletion_; }

    /**
     * Checkpoint support: rate/epoch position, completion horizons,
     * owed recovery slots, counters and the decision log. The attached
     * monitor is shared across enforcers and checkpointed by its owner.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /**
     * Charge a recovered transaction's retry cost into the observable
     * stream: owe its exponential-backoff slots, which settle() fires
     * as dummy-equivalent accesses at the enforced slot positions. The
     * slots land exactly where idle dummies would, so the stream stays
     * periodic — an observer cannot tell recovery from idleness, which
     * is the leak-free property the fault model requires.
     */
    void chargeRecovery(const OramCompletion &c);
    /**
     * Offer the device a background-eviction window (eviction engine,
     * oram/eviction_engine.hh) after a completed slot: from the
     * device's busy horizon up to the next slot's earliest possible
     * service start — bounded by the fastest candidate rate when an
     * epoch transition comes first, so an eviction in flight never
     * delays a post-transition slot. Eviction traffic is charged like
     * PR 7's recovery slots (dummy-equivalent crypto into the
     * counters), never into the slot grid. No-op on eviction-free
     * devices.
     */
    void evictInGap();
    /**
     * Fire the dummy slots due before cycle @p t, stopping (returning
     * false) at an epoch transition that comes first; true once the
     * schedule reached @p t.
     */
    bool advanceBounded(Cycles t);
    /** Apply the epoch transition at @p boundary. */
    void transitionAt(Cycles boundary);
    /** Next cycle an access may start under the current rate. */
    Cycles nextSlot() const;

    OramDeviceIf &device_;
    const RateSet &rates_;
    EpochSchedule schedule_;
    const LearnerIf &learner_;
    PerfCounters counters_;
    Cycles rate_;
    /** Fastest rate any epoch decision could select (incl. epoch 0's
     *  initial rate): the eviction horizon's transition-safe bound. */
    Cycles rateFloor_;
    unsigned epoch_ = 0;
    Cycles lastCompletion_ = 0;
    /** Completion cycle of the last *real* access (Req 3 detection). */
    Cycles lastRealCompletion_ = 0;
    std::vector<RateDecision> decisions_;
    LeakageMonitor *monitor_ = nullptr;
    unsigned pinnedDecisions_ = 0;
    /**
     * Whether the in-flight bounded transaction already completed its
     * pre-arrival advance and took its Req 3 waste charge —
     * serveBounded() retries must skip both (a waiting request
     * neither lets dummies fire ahead of it nor is re-charged).
     */
    bool serveWasteCharged_ = false;
    /** Recovery backoff slots owed (fired by settle()). */
    std::uint64_t recoveryOwed_ = 0;
};

} // namespace tcoram::timing

#endif // TCORAM_TIMING_RATE_ENFORCER_HH
