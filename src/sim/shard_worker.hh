/**
 * @file
 * RingScheduler: the scheduler in front of the sharded ORAM device
 * array — one session or a million, one worker thread or M, served
 * step by step or to idle, checkpointable between calls. Clients talk
 * to the scheduler exclusively through
 * per-lane lock-free SPSC rings (sim/session_ring.hh); sessions are
 * lightweight descriptors (HMAC-admitted budget + lane + stats, 112
 * bytes), so a million open sessions fit in a couple hundred MB;
 * dispatch runs on up to M worker threads, one shard's
 * ShardSlot (enforcer + calibrated device) per worker stripe.
 *
 * ## Determinism: N threads == 1 thread, bit-identical
 *
 * Work proceeds in phased ROUNDS separated by barriers:
 *
 *   phase L (partitioned by LANE):  fold the previous round's per-
 *     (shard, lane) completion buckets — shard-id order — into session
 *     stats and the lane's completion ring, then pop the lane's
 *     pending submissions and stage them per target shard (stateless
 *     PRF routing only).
 *   == barrier ==
 *   phase S (partitioned by SHARD): merge the staged transactions in
 *     lane order into the slot's session queues, then serve BOUNDED:
 *     a slot stops at its own next epoch boundary (ShardSlot::serve)
 *     instead of processing the transition, because the transition is
 *     the one operation that touches cross-shard state (the shared
 *     LeakageMonitor).
 *   == barrier, completion step (one thread) ==
 *     apply the pending epoch transitions in SHARD-ID ORDER, then
 *     decide whether the round loop is quiescent.
 *
 * Every phase touches only state owned by its stripe (lane state by
 * the lane's worker, shard state by the shard's worker), the stripes
 * are fixed functions of lane/shard id, and the only cross-shard
 * mutation — the monitor's decision ledger — happens serially in
 * shard-id order. Hence the state evolution is a pure function of the
 * submission sequence, independent of the worker count: per-shard
 * observable streams, leakage counters, session stats and csvRow
 * output are bit-identical between 1 and N workers (test-enforced in
 * tests/test_scheduler_scale.cc). And since the bounded serve replays
 * exactly the unbounded enforcer sequence (timing/rate_enforcer.hh),
 * each shard's stream remains the same periodic, session-count-blind
 * sequence.
 *
 * ## Exact-count steps
 *
 * runUntilServed(n) stops once n transactions have been served. Before
 * each phase S the serial step deals the remaining budget one
 * transaction per non-idle shard, in shard round-robin order after the
 * last-served shard, so stepping runUntilServed(servedTotal() + 1)
 * serves transactions one at a time in global shard round-robin order
 * (the order checkpoint kill points and served-count marks are defined
 * in). The deal is computed serially, hence worker-count independent.
 * runUntilIdle() is the unbounded case: every shard's quota is
 * unlimited and the serve loop pays one compare for it.
 *
 * ## Checkpoints
 *
 * saveState()/restoreState() capture the whole scheduler between
 * calls (the quiescent points): lane rings with their fence windows,
 * every slot's enforcer, activation list, queued transactions, held
 * pick and vacated-cursor mark, the session descriptors with stats
 * and latency samples, the shared LeakageMonitor ledger, the per-shard
 * served counts and the deal cursor. Staging buffers and completion
 * buckets are always empty at those points (asserted, not saved). A
 * snapshot restores under any worker count — the state is
 * worker-count independent — into a scheduler built with the same
 * shards, lanes and opened sessions.
 */

#ifndef TCORAM_SIM_SHARD_WORKER_HH
#define TCORAM_SIM_SHARD_WORKER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oram/sharded_device.hh"
#include "protocol/session.hh"
#include "sim/column_batch.hh"
#include "sim/session_ring.hh"
#include "timing/shard_slot.hh"

namespace tcoram::sim {

/** Per-session end-of-run statistics. */
struct SessionStats
{
    std::uint32_t sessionId = 0;
    /** The session's leakage budget L (negative = unlimited). */
    double leakageLimitBits = -1.0;
    /** Admission result of the §5 handshake. */
    bool admitted = false;

    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    Cycles firstArrival = 0;
    /** Latest completion cycle over the session's transactions. */
    Cycles lastCompletion = 0;
    /** Sum over completions of (done - arrival). */
    Cycles totalLatency = 0;
    /** Sum over completions of (start - arrival): rate-induced wait. */
    Cycles totalSlotWait = 0;
    Cycles maxLatency = 0;

    double
    avgLatency() const
    {
        return completed ? static_cast<double>(totalLatency) /
                               static_cast<double>(completed)
                         : 0.0;
    }

    /** Completions per million cycles over @p span_cycles. */
    double
    throughputPerMcycle(Cycles span_cycles) const
    {
        return span_cycles ? 1e6 * static_cast<double>(completed) /
                                 static_cast<double>(span_cycles)
                           : 0.0;
    }
};

class RingScheduler
{
  public:
    struct Options
    {
        /** Producer lanes (one SPSC ring pair each). */
        std::size_t lanes = 1;
        /** Per-lane backpressure bound — max unretired tokens
         *  (rounded up to a power of two). */
        std::size_t ringCapacity = 1024;
        /** Worker threads (clamped to [1, max(lanes, shards)]). */
        unsigned threads = 1;
        /** Keep per-completion latency samples (percentiles). Off for
         *  the million-session smoke, where samples would dominate. */
        bool recordLatencies = true;
        /**
         * Record one columnar telemetry row per (round, shard) that
         * served work (sim/column_batch.hh): appended lock-free by the
         * shard's owning worker as raw typed values — no formatting on
         * the dispatch path — and serialized by telemetryCsv() in
         * (round, shard) order, bit-identical across worker counts.
         * Off by default (rounds can vastly outnumber useful samples).
         */
        bool recordShardTelemetry = false;
    };

    /**
     * One ShardSlot (owned enforcer) per shard of @p device, all
     * sharing @p rates / @p schedule / @p learner (public knobs) but
     * each timing its own stream. Admission uses @p params with its
     * shard count overridden to the device's (composed bound).
     * @p rates, @p schedule and @p learner must outlive the scheduler.
     */
    RingScheduler(oram::ShardedOramDevice &device,
                  const timing::RateSet &rates,
                  const timing::EpochSchedule &schedule,
                  const timing::LearnerIf &learner, Cycles initial_rate,
                  const protocol::LeakageParams &params, Options opts);
    /** Default options. */
    RingScheduler(oram::ShardedOramDevice &device,
                  const timing::RateSet &rates,
                  const timing::EpochSchedule &schedule,
                  const timing::LearnerIf &learner, Cycles initial_rate,
                  const protocol::LeakageParams &params)
        : RingScheduler(device, rates, schedule, learner, initial_rate,
                        params, Options{})
    {
    }
    ~RingScheduler();

    /**
     * Open a session as a lightweight descriptor bound to @p lane.
     * Finite budgets run the §5 HMAC handshake (transient protocol
     * objects — nothing per-session survives but the descriptor);
     * unlimited budgets are admitted outright, which is what keeps a
     * million opens cheap. Admission clears the COMPOSED bound
     * M * |E| * lg|R| (protocol::LeakageParams::shards). The tightest
     * finite admitted budget becomes the run's LeakageMonitor, shared
     * by every shard's enforcer, so free rate decisions on any shard
     * draw from the one budget. Must happen before the first
     * transaction is served (asserted).
     */
    std::uint32_t openSession(std::uint64_t user_seed,
                              double leakage_limit_bits = -1.0,
                              std::uint16_t lane = 0);

    /**
     * Push a transaction onto the session's lane ring. Returns the
     * lane token (poll lane(l).isRetired(token)), or nullopt when the
     * lane is at its backpressure bound — capacity() tokens not yet
     * retired — in which case pump and drain completions, then retry.
     * @p arrival stamps must be non-decreasing per session (the shard
     * queues assert monotonic per-session arrival order at enqueue);
     * different sessions may interleave arbitrarily. Fatal on
     * unadmitted sessions.
     */
    std::optional<std::uint64_t> trySubmit(std::uint32_t sid, Cycles arrival,
                                           timing::OramTransaction txn);

    /** Lane @p l's ring pair (completion popping, fence polling). */
    SessionRing &lane(std::size_t l);
    const SessionRing &lane(std::size_t l) const;
    std::size_t laneCount() const { return lanes_.size(); }

    /**
     * Run phased rounds until every ring, staging buffer and shard
     * queue is empty. Producers should be quiescent (or tolerate the
     * loop exiting between their pushes). @return last completion
     * cycle across shards.
     */
    Cycles runUntilIdle();

    /**
     * Run phased rounds until servedTotal() reaches @p n (or the
     * scheduler goes idle first), then fold the served completions
     * into the lane completion rings. Budget is dealt one transaction
     * per non-idle shard per round in shard round-robin order after
     * the last-served shard (see the file comment).
     * @return servedTotal().
     */
    std::uint64_t runUntilServed(std::uint64_t n);

    /** Fire the trailing dummies every shard owes up to @p t (same
     *  barrier discipline for the epoch transitions on the way). */
    void drainUntil(Cycles t);

    std::size_t sessionCount() const { return descriptors_.size(); }
    const SessionStats &stats(std::uint32_t sid) const;
    bool sessionAdmitted(std::uint32_t sid) const;

    std::size_t shardCount() const { return slots_.size(); }
    const timing::ShardSlot &shard(std::size_t i) const;
    const timing::LeakageMonitor *monitor() const { return monitor_.get(); }

    /** True when no transaction is ringed or queued anywhere. */
    bool idle() const;

    /** Total transactions served (quiesced value). */
    std::uint64_t servedTotal() const;
    /** Max completion cycle across shard enforcers. */
    Cycles lastCompletion() const;

    double fairnessRatio() const;
    /** Nearest-rank queue-latency quantile (requires recordLatencies). */
    Cycles latencyPercentile(std::uint32_t sid, double q) const;

    /** Per-shard summary CSV (header + one row per shard), pinned
     *  bit-identical across worker counts. */
    static std::string csvHeader();
    std::string csvRow(std::uint32_t shard) const;
    std::string csv() const;

    /** Column layout of the per-(round, shard) telemetry rows. */
    static ColumnSchema shardTelemetrySchema();
    /** Recorded rows (null unless Options::recordShardTelemetry). */
    const ColumnBatch *telemetry() const { return telemetry_.get(); }
    /** Serialized telemetry, (round, shard)-ordered (fatal when the
     *  option is off). */
    std::string telemetryCsv() const;

    /**
     * Checkpoint support (see the file comment). The device array is
     * checkpointed separately by its owner. Queued transactions must
     * carry no data/out spans, and telemetry recording must be off —
     * both asserted. Restore fails loudly on a shard, lane or
     * session-count mismatch.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    struct SessionDescriptor
    {
        SessionStats stats;
        std::uint16_t lane = 0;
        std::vector<Cycles> latencies;
    };

    struct Staged
    {
        std::uint32_t sessionId = 0;
        Cycles arrival = 0;
        timing::OramTransaction txn;
    };

    void laneStep(unsigned worker);
    void shardStep(unsigned worker);
    void serialStep();
    void deal();
    void pump(bool draining, Cycles drain_t, std::uint64_t target);
    void attachMonitor();

    oram::ShardedOramDevice *device_;
    protocol::LeakageParams params_;
    Options opts_;
    unsigned workers_ = 1;

    std::vector<std::unique_ptr<timing::ShardSlot>> slots_;
    std::vector<std::unique_ptr<SessionRing>> lanes_;
    std::vector<SessionDescriptor> descriptors_;
    std::unique_ptr<timing::LeakageMonitor> monitor_;
    double tightestLimit_ = -1.0;

    /** staging_[lane][shard]: routed submissions, written in phase L
     *  by the lane's worker, consumed in phase S by the shard's. */
    std::vector<std::vector<std::vector<Staged>>> staging_;
    /** buckets_[shard][lane]: completions, written in phase S, folded
     *  in the NEXT round's phase L. */
    std::vector<std::vector<std::vector<SessionRing::Completion>>> buckets_;
    std::vector<std::uint8_t> blocked_; ///< per shard, cleared serially
    std::vector<std::uint64_t> servedPerShard_;
    /** Per-shard serve budget for the next phase S (kUnbounded outside
     *  runUntilServed); counted down by the shard's owner. */
    std::vector<std::uint64_t> quota_;
    /** Shards dealt a budget for the current phase S. */
    std::vector<std::uint8_t> dealt_;
    /** Shard that served last in deal order (round-robin anchor). */
    std::size_t dealCursor_ = 0;
    /** Columnar shard telemetry: one chunk per worker, appended only
     *  by the shard's owner in phase S (lock-free by ownership). */
    std::unique_ptr<ColumnBatch> telemetry_;
    /** Round counter (incremented in the serial step; read by phase S
     *  across the barrier) — the telemetry order key's major digit. */
    std::uint64_t round_ = 0;
    bool anyServed_ = false;
    mutable std::vector<Cycles> latencyScratch_; ///< percentile reuse

    // round-loop controls (written in the serial step, read after the
    // barrier unblocks — synchronized by std::barrier's phase
    // completion ordering)
    bool stop_ = false;
    bool draining_ = false;
    Cycles drainT_ = 0;
    std::uint64_t target_ = 0; ///< served-count goal of the pump
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_SHARD_WORKER_HH
