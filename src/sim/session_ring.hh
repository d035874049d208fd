/**
 * @file
 * Lock-free session ingress/egress: one fixed-capacity power-of-two
 * SPSC submission ring plus one completion ring per producer lane,
 * with monotonically increasing fence-style tokens (the doorbell/queue
 * discipline high-rate datacenter stacks use to sustain line rate).
 *
 * Ring layout (one lane):
 *
 *     producer thread                    scheduler ingress worker
 *     ---------------                    ------------------------
 *     trySubmit ──► [ sq: power-of-two SPSC ] ──► popSubmission
 *     popCompletion ◄── [ cq: same layout ]  ◄── pushCompletion
 *
 * Memory-ordering contract (the ONLY synchronization on the hot path —
 * no mutex, no CAS):
 *  - each ring has a producer-owned tail and a consumer-owned mono-
 *    tonically increasing head, both std::atomic<uint64_t>;
 *  - push: read the opposite index with acquire (space check), write
 *    the slot, then store your index with release — the release/
 *    acquire pair publishes the slot contents;
 *  - pop: read the opposite index with acquire (emptiness check), read
 *    the slot, then store your index with release — handing the slot
 *    back to the pusher.
 *
 * Tokens: trySubmit assigns lane-monotonic tokens 1, 2, 3, ... The
 * lane's FENCE is the highest token T such that every token <= T has
 * retired (its completion popped); clients poll isRetired(T) against
 * the fence without touching any scheduler state. Shards retire
 * tokens out of order, so the fence is advanced through a capacity-
 * sized retirement window on the producer side.
 *
 * Backpressure: at most capacity() tokens may be UNRETIRED (issued but
 * not yet behind the fence). Because the fence trails the drain count,
 * this single bound keeps BOTH rings from overflowing — pushCompletion
 * can assert it never finds the completion ring full — AND keeps every
 * live token inside the retirement window (token - fence <= capacity,
 * so window slots never alias). A full trySubmit failure means: drain
 * completions, then resubmit; the fence reopens the lane as soon as
 * the oldest outstanding token retires.
 */

#ifndef TCORAM_SIM_SESSION_RING_HH
#define TCORAM_SIM_SESSION_RING_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/log.hh"
#include "timing/oram_device.hh"

namespace tcoram::sim {

/** Single-producer single-consumer ring over a power-of-two buffer. */
template <typename T>
class SpscRing
{
  public:
    explicit SpscRing(std::size_t capacity)
        : buf_(roundUpPow2(capacity)), mask_(buf_.size() - 1)
    {
    }

    std::size_t capacity() const { return buf_.size(); }

    /** Producer side. False when full. */
    bool
    tryPush(const T &v)
    {
        const std::uint64_t t = tail_.load(std::memory_order_relaxed);
        if (t - head_.load(std::memory_order_acquire) == buf_.size())
            return false;
        buf_[t & mask_] = v;
        tail_.store(t + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side. False when empty. */
    bool
    tryPop(T &out)
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        if (h == tail_.load(std::memory_order_acquire))
            return false;
        out = buf_[h & mask_];
        head_.store(h + 1, std::memory_order_release);
        return true;
    }

    /** @p i-th queued element from the head (quiescent ring only). */
    const T &
    peek(std::size_t i) const
    {
        return buf_[(head_.load(std::memory_order_acquire) + i) & mask_];
    }

    /** Approximate (exact on the owning side). */
    std::size_t
    size() const
    {
        return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_acquire);
    }

  private:
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t c = 1;
        while (c < n)
            c <<= 1;
        return c;
    }

    std::vector<T> buf_;
    std::size_t mask_;
    alignas(64) std::atomic<std::uint64_t> head_{0};
    alignas(64) std::atomic<std::uint64_t> tail_{0};
};

/** One producer lane: submission ring + completion ring + fence. */
class SessionRing
{
  public:
    struct Submission
    {
        std::uint64_t token = 0;
        std::uint32_t sessionId = 0;
        Cycles arrival = 0;
        timing::OramTransaction txn;
    };

    struct Completion
    {
        std::uint64_t token = 0;
        std::uint32_t sessionId = 0;
        Cycles arrival = 0;
        timing::OramCompletion completion;
    };

    /** @param capacity backpressure bound: max unretired tokens
     *  (rounded up to a power of 2). */
    explicit SessionRing(std::size_t capacity);

    std::size_t capacity() const { return sq_.capacity(); }

    // --- producer (client) side ---

    /**
     * Queue a transaction; returns its lane token, or nullopt when
     * capacity() tokens are not yet retired — i.e. the oldest
     * outstanding token is capacity() behind (drain completions, then
     * retry). @p arrival stamps must be non-decreasing per session:
     * the shard queues downstream require monotonic per-session
     * arrival order and assert it at enqueue.
     */
    std::optional<std::uint64_t> trySubmit(std::uint32_t sid, Cycles arrival,
                                           const timing::OramTransaction &txn);

    /** Pop one completion; advances the retirement fence. */
    bool popCompletion(Completion &out);

    /** Highest token T with every token <= T retired (0 = none). */
    std::uint64_t
    retiredFence() const
    {
        return fence_.load(std::memory_order_acquire);
    }

    bool isRetired(std::uint64_t token) const
    {
        return retiredFence() >= token;
    }

    /** Tokens issued so far (producer side). */
    std::uint64_t submitted() const { return nextToken_ - 1; }
    /** Completions drained so far (producer side). */
    std::uint64_t drained() const { return drained_; }
    /** In-flight transactions (producer side). */
    std::uint64_t inFlight() const { return submitted() - drained_; }

    /** Submissions not yet popped by the scheduler (approximate). */
    std::size_t submissionBacklog() const { return sq_.size(); }
    /** Completions not yet popped by the client (approximate). */
    std::size_t completionBacklog() const { return cq_.size(); }

    // --- consumer (scheduler) side ---

    /** Pop one submission. False when the lane is currently empty. */
    bool popSubmission(Submission &out);

    /** Push a completion; the backpressure bound (which caps in-flight
     *  transactions) means this cannot find the ring full (asserted). */
    void pushCompletion(const Completion &c);

    // --- checkpoint (both sides quiescent) ---

    /**
     * Token counters, the retirement window and fence, and the queued
     * submissions and completions in ring order. Restore requires a
     * ring of the same capacity (asserted) and replaces its contents.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    SpscRing<Submission> sq_;
    SpscRing<Completion> cq_;

    // producer-owned
    std::uint64_t nextToken_ = 1;
    std::uint64_t drained_ = 0;
    std::vector<std::uint8_t> window_; ///< retired-out-of-order marks
    std::atomic<std::uint64_t> fence_{0};
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_SESSION_RING_HH
