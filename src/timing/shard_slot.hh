/**
 * @file
 * ShardSlot: the per-shard unit of rate enforcement and dispatch.
 * Sharding the ORAM tree across M devices gives each shard its own
 * slot: one owned enforcer (its own periodic observable stream, its
 * own epoch clock and counters) plus the queues of the transactions
 * routed to it. The ring scheduler (sim/shard_worker.hh) drives M
 * slots; WHEN a slot's accesses happen is decided entirely by that
 * slot's enforcer, so the observable channel is M independent periodic
 * streams whichever queued session fills a slot.
 *
 * Sessions with queued work live on a circular activation list over
 * pooled intrusive queues, so dispatch is O(active) worst case and
 * O(1) under backlog, and steady-state allocation-free (test-pinned in
 * tests/test_pipeline.cc). Serving is BOUNDED — it stops at the
 * shard's next epoch boundary instead of touching the shared
 * LeakageMonitor, so M worker threads stay race-free and bit-identical
 * to one thread (transitions are applied in shard-id order at a
 * barrier via applyTransition()).
 *
 * WHICH session rides a slot is round-robin over the activation list:
 * the scan starts after the last-served session and takes the first
 * head that has arrived by the shard's last completion (it would start
 * at the same upcoming slot); when every head is still in the future,
 * the earliest arrival goes first, ties in scan order.
 */

#ifndef TCORAM_TIMING_SHARD_SLOT_HH
#define TCORAM_TIMING_SHARD_SLOT_HH

#include <cstdint>
#include <vector>

#include "timing/oram_device.hh"
#include "timing/rate_enforcer.hh"

namespace tcoram::timing {

class ShardSlot
{
  public:
    /** One transaction served from this shard's stream. */
    struct Served
    {
        std::uint32_t sessionId = 0;
        Cycles arrival = 0;
        OramCompletion completion;
        std::uint64_t tag = 0; ///< the served txn's attribution tag
    };

    /** Own a fresh enforcer over @p device. */
    ShardSlot(std::uint32_t shard_id, OramDeviceIf &device,
              const RateSet &rates, const EpochSchedule &schedule,
              const LearnerIf &learner, Cycles initial_rate);

    RateEnforcer &enforcer() { return enf_; }
    const RateEnforcer &enforcer() const { return enf_; }

    /**
     * Queue a transaction from session @p sid arriving at @p arrival.
     * Per-(session, shard) arrivals must be non-decreasing. The txn's
     * data/out spans are views; their buffers must outlive service.
     */
    void enqueue(std::uint32_t sid, Cycles arrival, const OramTransaction &txn);

    std::uint64_t pending() const { return pending_; }
    bool idle() const { return pending_ == 0; }

    enum class ServeStatus
    {
        Done,    ///< one transaction served
        Blocked, ///< epoch transition due: applyTransition() then retry
        Idle,    ///< nothing queued
    };

    /**
     * Bounded serve: dispatch one transaction, stopping (Blocked) when
     * the shard's next epoch boundary must be crossed first. The pick
     * is made once and held across Blocked retries — exactly the
     * unbounded order of operations.
     */
    ServeStatus serve(Served &out);

    /**
     * Bounded drain to @p t; false when the epoch transition at the
     * next boundary must be applied (at the barrier) first.
     */
    bool drain(Cycles t);

    /** Serial barrier step: apply the enforcer's due transition. */
    void applyTransition() { enf_.applyTransition(); }

    /**
     * Checkpoint support: the enforcer, the activation list in scan
     * order (each session's queued transactions), the held pick and
     * the vacated-cursor mark. Queued transactions must carry no
     * data/out spans (views cannot be serialized; asserted). Pool
     * indices are not part of the state: restore rebuilds the pools
     * compactly in scan order, which dispatches identically.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    static constexpr std::uint32_t kNil = 0xffffffffu;

    /** Pooled FIFO node. */
    struct Node
    {
        Cycles arrival;
        OramTransaction txn;
        std::uint32_t next = kNil;
    };

    /** A session on the activation list: an intrusive FIFO plus the
     *  circular doubly-linked list stitching (activation order). */
    struct ActiveQueue
    {
        std::uint32_t sid = 0;
        std::uint32_t head = kNil, tail = kNil; ///< Node indices
        std::uint32_t prev = kNil, next = kNil; ///< ActiveQueue indices
    };

    std::uint32_t allocNode(Cycles arrival, const OramTransaction &txn);
    void freeNode(std::uint32_t idx);
    std::uint32_t activate(std::uint32_t sid);
    std::uint32_t pick();
    void popServed(std::uint32_t q_idx);

    std::uint32_t shardId_;
    RateEnforcer enf_;

    std::vector<Node> nodePool_;
    std::uint32_t nodeFree_ = kNil;
    std::vector<ActiveQueue> queuePool_;
    std::uint32_t queueFree_ = kNil;
    /** sid -> ActiveQueue index (kNil when inactive); dense, persists
     *  so steady-state reactivation is allocation-free. */
    std::vector<std::uint32_t> sessionQueue_;
    std::uint32_t listCursor_ = kNil; ///< last-served ActiveQueue
    /** The last-served session left the list; the cursor stands in
     *  for it (its predecessor) until the next pick or activation. */
    bool cursorVacated_ = false;
    std::size_t activeCount_ = 0;
    std::uint64_t pending_ = 0;
    std::uint32_t heldQueue_ = kNil; ///< pick held across Blocked
};

} // namespace tcoram::timing

#endif // TCORAM_TIMING_SHARD_SLOT_HH
