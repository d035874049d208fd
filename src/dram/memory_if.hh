/**
 * @file
 * Split-transaction main-memory interface. Both the flat-latency
 * insecure DRAM (base_dram) and the banked DDR3 model implement it;
 * the ORAM controller issues its path reads/writes through it.
 *
 * The core API is asynchronous: issue() enqueues an in-flight
 * transaction and returns a token, nextEventAt() reports the earliest
 * pending completion, and drainRetired() hands back every transaction
 * that has completed by a given cycle. This is what lets the pipelined
 * ORAM path mode overlap write-back of shallow levels with still-in-
 * flight reads of deeper ones (oram/oram_device.hh), and it is the
 * seam background eviction and deadline-aware dispatch build on.
 *
 * The legacy blocking calls — access() and accessBatch() — are
 * adapters over the async core. Every timing backend in this repo
 * computes a transaction's completion cycle deterministically at issue
 * time, so the adapters return exactly the completion times the
 * pre-split synchronous implementations produced; the golden CSVs and
 * the calibration streams are bit-identical through them. The default
 * adapters (memory_if.cc) run the event loop — issue, then drain the
 * earliest event until the transaction retires — for decorators such
 * as FaultyMemory that reach their backend only through the async
 * core. The RetireQueue backends (DramModel, FlatMemory) answer in one
 * pass instead (RetireQueue::serveBlocking), with the same return
 * value and the same in-flight set afterwards.
 *
 * Mixing styles: a blocking call drains (and discards) any retirement
 * records of transactions issued asynchronously before it. Use one
 * style per phase, or pick the retires up with drainRetired() before
 * going blocking.
 */

#ifndef TCORAM_DRAM_MEMORY_IF_HH
#define TCORAM_DRAM_MEMORY_IF_HH

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hh"

namespace tcoram::dram {

/** One memory transaction as seen by the controller. */
struct MemRequest
{
    Addr addr = 0;
    std::uint64_t bytes = 64;
    bool isWrite = false;
};

/** Handle of an in-flight transaction (monotonic per backend). */
using TxnToken = std::uint64_t;

/** nextEventAt() when nothing is in flight. */
inline constexpr Cycles kNoPendingEvent = std::numeric_limits<Cycles>::max();

/** A completed transaction, as surfaced by drainRetired(). */
struct Retired
{
    TxnToken token = 0;
    MemRequest req{};
    /** Cycle the transaction was issued to the controller. */
    Cycles issued = 0;
    /** Cycle its data transfer completed. */
    Cycles completed = 0;
};

/**
 * Event list shared by the backends: pending transactions ordered by
 * retirement. The timing models compute a transaction's completion at
 * issue time (the bank/bus state machines are deterministic), so the
 * queue only has to remember (request, issued, completed) triples and
 * surface them in completion order.
 */
class RetireQueue
{
  public:
    /** Record an issued transaction; returns its token. */
    TxnToken
    add(const MemRequest &req, Cycles issued, Cycles completed)
    {
        pending_.push_back({nextToken_, req, issued, completed});
        return nextToken_++;
    }

    /** Earliest pending completion (kNoPendingEvent when idle). */
    Cycles
    nextEventAt() const
    {
        Cycles at = kNoPendingEvent;
        for (const auto &p : pending_)
            at = p.completed < at ? p.completed : at;
        return at;
    }

    /**
     * Remove every pending transaction with completed <= @p up_to and
     * return them sorted by (completed, token). The span stays valid
     * until the next drain() or clear(); add() does not invalidate it.
     */
    std::span<const Retired> drain(Cycles up_to);

    /**
     * One-pass blocking service for a backend that resolves completion
     * at issue time: present @p reqs (non-empty) to @p serve in request
     * order, then retire everything that completes by the batch's last
     * completion. Tokens, the in-flight set and the result are exactly
     * what add() per request followed by the drain-earliest-event loop
     * of MemoryIf::accessBatch leaves, without that loop's rescan per
     * distinct completion: the loop's last drain is at the batch's
     * latest completion and retires every batch record with it, so
     * those records are never queued here.
     * @param serve Cycles(const MemRequest &): advances the backend's
     *        state machines and returns the request's completion
     * @return the latest completion in the batch
     */
    template <typename Serve>
    Cycles
    serveBlocking(std::span<const MemRequest> reqs, Serve &&serve)
    {
        Cycles last = 0;
        for (const MemRequest &req : reqs) {
            const Cycles done = serve(req);
            last = done > last ? done : last;
        }
        nextToken_ += reqs.size();
        if (!pending_.empty())
            std::erase_if(pending_, [last](const Retired &p) {
                return p.completed <= last;
            });
        return last;
    }

    /** In-flight transaction count. */
    std::size_t inFlight() const { return pending_.size(); }

    /** Abort all in-flight transactions (resetTiming support). */
    void
    clear()
    {
        pending_.clear();
        drained_.clear();
    }

  private:
    std::vector<Retired> pending_;
    std::vector<Retired> drained_;
    TxnToken nextToken_ = 1;
};

class MemoryIf
{
  public:
    virtual ~MemoryIf() = default;

    // ------------------------------------------------------------------
    // Split-transaction core (every backend implements these three).
    // ------------------------------------------------------------------

    /**
     * Issue a transaction at processor-cycle @p now without blocking.
     * The transaction occupies its bank/bus resources immediately; its
     * retirement is reported by drainRetired().
     * @return token identifying the in-flight transaction.
     */
    virtual TxnToken issue(Cycles now, const MemRequest &req) = 0;

    /**
     * Earliest cycle at which an in-flight transaction retires, or
     * kNoPendingEvent when nothing is in flight. Drives the caller's
     * event loop: drainRetired(nextEventAt()) always makes progress.
     */
    virtual Cycles nextEventAt() const = 0;

    /**
     * Retire every in-flight transaction whose completion cycle is
     * <= @p up_to, sorted by (completion, token). The returned span is
     * valid until the next drainRetired() call on this backend; calling
     * issue() while iterating it is safe.
     */
    virtual std::span<const Retired> drainRetired(Cycles up_to) = 0;

    // ------------------------------------------------------------------
    // Blocking adapters (legacy API; implemented over the async core).
    // ------------------------------------------------------------------

    /**
     * Issue a transaction at processor-cycle @p now and block until it
     * retires. Retirement records of other in-flight transactions that
     * complete on the way are drained and discarded.
     * @return processor cycle at which the transaction completes.
     */
    virtual Cycles access(Cycles now, const MemRequest &req);

    /**
     * Issue a batch of transactions, all presented to the controller at
     * cycle @p now (the ORAM sync path pattern: the controller streams
     * a whole path's buckets and waits for the last transfer).
     * @return processor cycle at which the entire batch completes.
     *
     * The default issues in request order and drains; overrides must
     * produce completion times identical to the per-request access()
     * loop — dram::checkedAccessBatch (dram/differential.hh) is the
     * enforcement helper the regression tests run against every
     * backend.
     */
    virtual Cycles accessBatch(Cycles now, std::span<const MemRequest> reqs);

    /**
     * Return the timing state (bank/bus availability, open rows) to
     * the idle reset it had at construction, keeping the traffic
     * counters, and abort any in-flight transactions. The sharded ORAM
     * array calls this between per-shard calibrations: each shard
     * models its OWN channel set, so its calibration must see an idle
     * memory rather than banks left busy by the previous shard's
     * replay.
     */
    virtual void resetTiming() {}

    /** Total transactions serviced. */
    virtual std::uint64_t requestCount() const = 0;

    /** Total bytes moved over the pins. */
    virtual std::uint64_t bytesMoved() const = 0;
};

} // namespace tcoram::dram

#endif // TCORAM_DRAM_MEMORY_IF_HH
