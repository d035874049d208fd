/**
 * @file
 * KvServingRun: the end-to-end KV-serving scenario. Thousands of
 * closed-loop client sessions drive a workload-plane op stream
 * (workload/workload_source.hh — any method) against a KVBackend
 * (sim/kv_backend.hh) over the sharded, rate-enforced ORAM device
 * array, through the RingScheduler's lock-free lanes. Each session
 * keeps ONE ORAM transaction in flight (the closed loop): a KV op
 * unrolls into its probe/spill steps, each step's arrival is the
 * previous step's completion, and the next op starts after the
 * client's think time.
 *
 * Two drive modes:
 *
 *  - run(): one producer, ready sessions advanced in id order between
 *    scheduler pumps. Fully deterministic — the observable shard
 *    streams, stats and stream CSV are bit-identical across scheduler
 *    worker counts (the phased-round contract carries through the KV
 *    layer). A session stalled on a held home slot is not ready again
 *    until that slot is released (wake-on-release, see run()).
 *  - runMultiProducer(): one client thread per lane, each owning its
 *    lane's sessions and SPSC ring endpoints while the main thread
 *    pumps the scheduler — the true multi-producer ingress path. All
 *    client-side state (cursors, latency samples, mismatch counters)
 *    is lane-partitioned, so the only cross-thread traffic is the
 *    rings' acquire/release pairs (TSan-covered in CI).
 *
 * Payload integrity: puts write self-verifying values (embedded key +
 * sequence + PRF-mixed pattern), gets re-derive and compare — the
 * zero-payload-mismatch gate of bench_kv_serving needs no global
 * shadow state, so it holds under any session interleaving.
 */

#ifndef TCORAM_SIM_KV_SERVING_HH
#define TCORAM_SIM_KV_SERVING_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/kv_backend.hh"
#include "sim/serving_stack.hh"
#include "workload/workload_source.hh"

namespace tcoram::sim {

struct KvServingConfig
{
    std::uint32_t shards = 4;
    /** Producer lanes; sessions are assigned rank % lanes. */
    std::size_t lanes = 1;
    /** Scheduler worker threads (bit-identical across counts). */
    unsigned threads = 1;
    std::size_t ringCapacity = 1024;
    /** Enforced inter-access gap (single-candidate rate set). */
    Cycles rate = 300;
    std::uint64_t seed = 42;
    Cycles epoch0 = Cycles{1} << 18;
    /** Op stream; workload.ranks == session count. A scan longer
     *  than kMaxWorkloadAccesses keys is fatal when it is drawn. */
    workload::WorkloadParams workload;
    KvConfig kv{};
};

class KvServingRun
{
  public:
    /** One observable stream event (adversary's view of a shard). */
    using Event = ServingStack::Event;

    explicit KvServingRun(const KvServingConfig &cfg);
    ~KvServingRun();

    /** Deterministic single-producer drive (then trailing drain). */
    void run();
    /** One client thread per lane (multi-producer ingress). */
    void runMultiProducer();

    /** Merged per-session counters, percentile fields filled. */
    KVStats stats() const;
    std::uint64_t payloadMismatches() const;
    /** Access ops completed (gets + puts + scan elements). */
    std::uint64_t opsCompleted() const;
    std::uint32_t sessionCount() const
    {
        return static_cast<std::uint32_t>(sessions_.size());
    }
    bool allTokensRetired() const { return stack_->allTokensRetired(); }

    /** Enforced slot period: rate + calibrated access latency. Each
     *  shard calibrates independently — use shardPeriod(i) for the
     *  exact-grid checks; period() (the max over shards) sizes the
     *  drain horizon. */
    Cycles period() const { return stack_->period(); }
    Cycles shardPeriod(std::uint32_t i) const
    {
        return stack_->shardPeriod(i);
    }
    std::vector<Event> shardStream(std::uint32_t i) const
    {
        return stack_->shardStream(i);
    }
    std::vector<Cycles> shardStarts(std::uint32_t i) const
    {
        return stack_->shardStarts(i);
    }
    /** Every shard's full stream (start + kind rows) — the worker-
     *  count bit-identity digest. */
    std::string streamCsv() const { return stack_->streamCsv(); }

    /** Nearest-rank whole-op latency quantiles (completion - first
     *  arrival, think time excluded). */
    Cycles getLatencyPercentile(double q) const;
    Cycles putLatencyPercentile(double q) const;

    const RingScheduler &scheduler() const { return stack_->scheduler(); }
    const KvServingConfig &config() const { return cfg_; }

    /** Self-verifying payload codec (exposed for tests). */
    static void buildValue(std::vector<std::uint8_t> &out,
                           std::uint64_t key, std::uint64_t seq,
                           std::uint32_t len);
    static bool checkValue(std::span<const std::uint8_t> value,
                           std::uint64_t key);
    /** Smallest self-verifying value (key + seq embedded). */
    static constexpr std::uint32_t kMinValueBytes = 17;

  private:
    struct Session
    {
        explicit Session(const KVBackend &backend) : cursor(backend) {}

        std::uint32_t sid = 0;
        std::uint32_t rank = 0;
        std::uint16_t lane = 0;
        KvOpCursor cursor;
        Cycles clock = 0;
        bool ended = false;
        bool awaiting = false;
        workload::WorkloadOpKind opKind = workload::WorkloadOpKind::End;
        std::uint64_t opKey = 0;
        Cycles opStart = 0;
        std::uint32_t scanLeft = 0;
        std::uint64_t scanKey = 0;
        std::uint64_t putSeq = 0;
        std::uint64_t mismatches = 0;
        std::uint64_t opsDone = 0;
        Cycles lastDone = 0;
        std::vector<std::uint8_t> payload;
        std::vector<Cycles> getLatencies;
        std::vector<Cycles> putLatencies;
        /** Home slot this session's in-flight op has reserved
         *  (slot-serialization below), -1 when none. */
        std::int64_t heldSlot = -1;
        /** Slot whose reservation was last refused (Advance::SlotBusy). */
        std::int64_t stalledOn = -1;
    };

    /** Outcome of advanceSession(). */
    enum class Advance : std::uint8_t
    {
        Progress, ///< step submitted, or the session ended
        SlotBusy, ///< stalled on the home slot in Session::stalledOn
        RingFull, ///< lane ring at its backpressure bound
    };

    /** Pull ops / submit the next cursor step for one session. A
     *  refused step is retried by calling again: the cursor's step
     *  is idempotent until its completion. */
    Advance advanceSession(Session &s);
    void handleCompletion(const SessionRing::Completion &c);
    void finishOp(Session &s);
    void drainTail();
    Cycles percentile(std::vector<Cycles> &samples, double q) const;

    // --- Slot serialization -------------------------------------------
    //
    // A KV op is several ORAM transactions (probe, home write, spill
    // strip); two sessions interleaving ops on the same home slot
    // could tear a record (new header over old spill bytes) or lose an
    // insert. Every step therefore holds a reservation on the slot it
    // touches, hand-over-hand: acquire before the step submits,
    // carry it while probing stays on the slot, release when the probe
    // moves on or the op completes. A session holds at most ONE slot
    // and acquires only after releasing (no deadlock); a contended
    // acquire just stalls the session until the holder's op drains.
    // Single-producer runs stall deterministically; multi-producer
    // runs use the same atomic flags across lane threads.
    std::int64_t slotOfBlock(std::uint64_t block_id) const;
    bool reserveSlot(Session &s, std::int64_t slot);
    void releaseSlot(Session &s);

    // --- Wake-on-release (run() only) -----------------------------------
    //
    // run() keeps a session stalled on a held slot off the ready set
    // until the slot is released: retrying earlier would fail, and a
    // failed retry by a session that holds no slot (a stalled session
    // released its old slot before asking for the new one) has no side
    // effect. A release wakes the one waiter a full id-order scan
    // would reach first — the lowest id ahead of the pass cursor,
    // visited later in the same pass, else the lowest id, visited
    // first in the next pass. The other waiters would find the slot
    // held again: the woken one takes it unless an earlier visit
    // already has, and a taker releases it no sooner than its next
    // completion, which wakes the next waiter.
    static constexpr std::uint32_t kNoSession = ~std::uint32_t{0};
    void wakeFirstWaiter(std::int64_t slot);

    /** Per home slot, the stalled sessions in ascending id order;
     *  empty outside run(), so lane threads never touch it. */
    std::vector<std::vector<std::uint32_t>> waiters_;
    /** Min-heap of sessions still to visit in the current pass. */
    std::vector<std::uint32_t> readyNow_;
    /** Sessions to visit in the next pass. */
    std::vector<std::uint32_t> readyNext_;
    /** Session the current pass is advancing; kNoSession between
     *  passes. */
    std::uint32_t passCursor_ = kNoSession;

    KvServingConfig cfg_;
    KVBackend backend_;
    std::unique_ptr<ServingStack> stack_;
    std::unique_ptr<workload::WorkloadSource> source_;
    std::vector<Session> sessions_;
    /** sessions of each lane, in session-id order. */
    std::vector<std::vector<std::uint32_t>> laneSessions_;
    /** One busy flag per home slot (slot serialization). */
    std::unique_ptr<std::atomic<std::uint8_t>[]> slotBusy_;
    bool ran_ = false;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_KV_SERVING_HH
