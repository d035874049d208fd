#include "timing/shard_slot.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace tcoram::timing {

ShardSlot::ShardSlot(std::uint32_t shard_id, OramDeviceIf &device,
                     const RateSet &rates, const EpochSchedule &schedule,
                     const LearnerIf &learner, Cycles initial_rate)
    : shardId_(shard_id), enf_(device, rates, schedule, learner, initial_rate)
{
}

std::uint32_t
ShardSlot::allocNode(Cycles arrival, const OramTransaction &txn)
{
    std::uint32_t idx;
    if (nodeFree_ != kNil) {
        idx = nodeFree_;
        nodeFree_ = nodePool_[idx].next;
    } else {
        idx = static_cast<std::uint32_t>(nodePool_.size());
        nodePool_.emplace_back();
    }
    nodePool_[idx] = Node{arrival, txn, kNil};
    return idx;
}

void
ShardSlot::freeNode(std::uint32_t idx)
{
    nodePool_[idx].next = nodeFree_;
    nodeFree_ = idx;
}

std::uint32_t
ShardSlot::activate(std::uint32_t sid)
{
    // (Re)activate at the back of the round: new sessions join the
    // scan just before the cursor, so everyone already waiting is
    // served first. When the last-served session has just left the
    // list, its place (the end of the scan) is vacant and the joiner
    // takes it — a session that leaves and rejoins between picks keeps
    // its round-robin turn instead of queueing behind the cursor's
    // stand-in forever. Activation order is a pure function of the
    // enqueue sequence — worker-count independent.
    std::uint32_t q_idx;
    if (queueFree_ != kNil) {
        q_idx = queueFree_;
        queueFree_ = queuePool_[q_idx].next;
    } else {
        q_idx = static_cast<std::uint32_t>(queuePool_.size());
        queuePool_.emplace_back();
    }
    ActiveQueue &q = queuePool_[q_idx];
    q.sid = sid;
    q.head = q.tail = kNil;
    if (activeCount_ == 0) {
        q.prev = q.next = q_idx;
        listCursor_ = q_idx;
    } else if (cursorVacated_) {
        const std::uint32_t cur = listCursor_;
        const std::uint32_t next = queuePool_[cur].next;
        q.prev = cur;
        q.next = next;
        queuePool_[next].prev = q_idx;
        queuePool_[cur].next = q_idx;
        listCursor_ = q_idx;
    } else {
        const std::uint32_t cur = listCursor_;
        const std::uint32_t prev = queuePool_[cur].prev;
        q.prev = prev;
        q.next = cur;
        queuePool_[prev].next = q_idx;
        queuePool_[cur].prev = q_idx;
    }
    cursorVacated_ = false;
    ++activeCount_;
    sessionQueue_[sid] = q_idx;
    return q_idx;
}

void
ShardSlot::enqueue(std::uint32_t sid, Cycles arrival,
                   const OramTransaction &txn)
{
    if (sessionQueue_.size() <= sid)
        sessionQueue_.resize(static_cast<std::size_t>(sid) + 1, kNil);
    const std::uint32_t node = allocNode(arrival, txn);
    std::uint32_t q_idx = sessionQueue_[sid];
    if (q_idx == kNil) {
        q_idx = activate(sid);
        queuePool_[q_idx].head = node;
    } else {
        tcoram_assert(nodePool_[queuePool_[q_idx].tail].arrival <= arrival,
                      "per-session arrivals must be non-decreasing");
        nodePool_[queuePool_[q_idx].tail].next = node;
    }
    queuePool_[q_idx].tail = node;
    ++pending_;
}

std::uint32_t
ShardSlot::pick()
{
    // One walk around the list from the cursor's successor; the
    // last-served queue (the cursor) closes it. The first head that
    // has arrived by the last completion goes — O(1) under backlog —
    // else the earliest head, ties in scan order.
    const Cycles lc = enf_.lastCompletion();
    Cycles min_arrival = std::numeric_limits<Cycles>::max();
    std::uint32_t chosen = queuePool_[listCursor_].next;
    std::uint32_t idx = listCursor_;
    for (std::size_t k = 0; k < activeCount_; ++k) {
        idx = queuePool_[idx].next;
        const Cycles arrival = nodePool_[queuePool_[idx].head].arrival;
        if (arrival <= lc) {
            chosen = idx;
            break;
        }
        if (arrival < min_arrival) {
            min_arrival = arrival;
            chosen = idx;
        }
    }
    listCursor_ = chosen; // the cursor moves at pick time
    cursorVacated_ = false;
    return chosen;
}

void
ShardSlot::popServed(std::uint32_t q_idx)
{
    ActiveQueue &q = queuePool_[q_idx];
    const std::uint32_t node = q.head;
    q.head = nodePool_[node].next;
    if (q.head == kNil)
        q.tail = kNil;
    freeNode(node);
    --pending_;
    if (q.head == kNil) {
        // Deactivate: unlink; the cursor falls back to the previous
        // entry so the next scan continues from the same place.
        sessionQueue_[q.sid] = kNil;
        if (activeCount_ == 1) {
            listCursor_ = kNil;
        } else {
            queuePool_[q.prev].next = q.next;
            queuePool_[q.next].prev = q.prev;
            if (listCursor_ == q_idx) {
                listCursor_ = q.prev;
                cursorVacated_ = true;
            }
        }
        --activeCount_;
        q.next = queueFree_; // reuse the link as the freelist chain
        queueFree_ = q_idx;
    }
}

ShardSlot::ServeStatus
ShardSlot::serve(Served &out)
{
    if (heldQueue_ == kNil) {
        if (pending_ == 0)
            return ServeStatus::Idle;
        // Owed recovery slots fire before the pick, so it sees the
        // same lastCompletion() an unbounded serve would leave.
        if (!enf_.settle())
            return ServeStatus::Blocked;
        heldQueue_ = pick();
    }
    const ActiveQueue &q = queuePool_[heldQueue_];
    const Node &head = nodePool_[q.head];
    const auto c = enf_.serveBounded(head.arrival, head.txn);
    if (!c)
        return ServeStatus::Blocked;
    out = Served{q.sid, head.arrival, *c, head.txn.tag};
    popServed(heldQueue_);
    heldQueue_ = kNil;
    return ServeStatus::Done;
}

bool
ShardSlot::drain(Cycles t)
{
    tcoram_assert(pending_ == 0,
                  "drain with transactions still queued on shard ",
                  shardId_);
    return enf_.drainBounded(t);
}

void
ShardSlot::saveState(ByteWriter &w) const
{
    enf_.saveState(w);
    // The activation list in scan order from the cursor (last served
    // first): replaying these enqueues into empty pools rebuilds the
    // identical list.
    w.u64(activeCount_);
    std::uint32_t idx = listCursor_;
    for (std::size_t k = 0; k < activeCount_; ++k) {
        const ActiveQueue &q = queuePool_[idx];
        w.u32(q.sid);
        std::uint64_t len = 0;
        for (std::uint32_t n = q.head; n != kNil; n = nodePool_[n].next)
            ++len;
        w.u64(len);
        for (std::uint32_t n = q.head; n != kNil; n = nodePool_[n].next) {
            w.u64(nodePool_[n].arrival);
            saveTransaction(w, nodePool_[n].txn);
        }
        idx = q.next;
    }
    w.b(heldQueue_ != kNil);
    if (heldQueue_ != kNil)
        w.u32(queuePool_[heldQueue_].sid);
    w.b(cursorVacated_);
}

void
ShardSlot::restoreState(ByteReader &r)
{
    enf_.restoreState(r);

    nodePool_.clear();
    nodeFree_ = kNil;
    queuePool_.clear();
    queueFree_ = kNil;
    std::fill(sessionQueue_.begin(), sessionQueue_.end(), kNil);
    listCursor_ = kNil;
    cursorVacated_ = false;
    activeCount_ = 0;
    pending_ = 0;
    heldQueue_ = kNil;

    const std::uint64_t active = r.u64();
    for (std::uint64_t k = 0; k < active && r.ok(); ++k) {
        const std::uint32_t sid = r.u32();
        const std::uint64_t len = r.u64();
        tcoram_assert(len > 0, "snapshot holds an empty active queue on "
                               "shard ", shardId_);
        for (std::uint64_t i = 0; i < len && r.ok(); ++i) {
            const Cycles arrival = r.u64();
            enqueue(sid, arrival, loadTransaction(r));
        }
    }
    if (r.b()) {
        const std::uint32_t sid = r.u32();
        tcoram_assert(sid < sessionQueue_.size() &&
                          sessionQueue_[sid] != kNil,
                      "snapshot holds a pick of an idle session on shard ",
                      shardId_);
        heldQueue_ = sessionQueue_[sid];
    }
    cursorVacated_ = r.b() && activeCount_ != 0;
}

} // namespace tcoram::timing
