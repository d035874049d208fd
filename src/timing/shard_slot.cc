#include "timing/shard_slot.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcoram::timing {

ShardSlot::ShardSlot(std::uint32_t shard_id, OramDeviceIf &device,
                     const RateSet &rates, const EpochSchedule &schedule,
                     const LearnerIf &learner, Cycles initial_rate,
                     DispatchPolicyKind policy)
    : shardId_(shard_id),
      enf_(device, rates, schedule, learner, initial_rate),
      policy_(makeDispatchPolicy(policy))
{
}

DispatchView::Entry
ShardSlot::View::entry(std::size_t k) const
{
    const std::size_t n = slot_.activeCount_;
    tcoram_dassert(k < n, "dispatch view position out of range");
    std::uint32_t idx;
    if (k == n - 1) {
        idx = slot_.listCursor_; // last served closes the scan
    } else if (cachedIdx_ != kNil && k == cachedPos_ + 1 &&
               cachedPos_ != n - 1) {
        idx = slot_.queuePool_[cachedIdx_].next;
    } else if (cachedIdx_ != kNil && k == cachedPos_) {
        idx = cachedIdx_;
    } else {
        idx = slot_.queuePool_[slot_.listCursor_].next;
        for (std::size_t i = 0; i < k; ++i)
            idx = slot_.queuePool_[idx].next;
    }
    cachedPos_ = k;
    cachedIdx_ = idx;
    const auto &q = slot_.queuePool_[idx];
    const Cycles head_arrival = slot_.nodePool_[q.head].arrival;
    return {q.sid, head_arrival, q.weight, head_arrival + q.deadlineOffset};
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
ShardSlot::activate(std::uint32_t sid, std::uint16_t weight,
                    Cycles deadline_offset)
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
    q.weight = std::max<std::uint16_t>(weight, 1);
    q.deadlineOffset = deadline_offset;
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
                   const OramTransaction &txn, std::uint16_t weight,
                   Cycles deadline_offset)
{
    if (sessionQueue_.size() <= sid)
        sessionQueue_.resize(static_cast<std::size_t>(sid) + 1, kNil);
    const std::uint32_t node = allocNode(arrival, txn);
    std::uint32_t q_idx = sessionQueue_[sid];
    if (q_idx == kNil) {
        q_idx = activate(sid, weight, deadline_offset);
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
    View v(*this);
    const std::size_t k = policy_->pick(v);
    tcoram_assert(k < activeCount_, "dispatch policy picked position ", k,
                  " of ", activeCount_, " on shard ", shardId_);
    std::uint32_t idx = listCursor_;
    if (k != activeCount_ - 1) {
        idx = queuePool_[listCursor_].next;
        for (std::size_t i = 0; i < k; ++i)
            idx = queuePool_[idx].next;
    }
    listCursor_ = idx; // the cursor moves at pick time
    cursorVacated_ = false;
    return idx;
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
        // Owed recovery slots fire before the pick, so the policy sees
        // the same lastCompletion() an unbounded serve would leave.
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
    w.u8(static_cast<std::uint8_t>(policy_->kind()));
    policy_->saveState(w);
    // The activation list in scan order from the cursor (last served
    // first): replaying these enqueues into empty pools rebuilds the
    // identical list.
    w.u64(activeCount_);
    std::uint32_t idx = listCursor_;
    for (std::size_t k = 0; k < activeCount_; ++k) {
        const ActiveQueue &q = queuePool_[idx];
        w.u32(q.sid);
        w.u32(q.weight);
        w.u64(q.deadlineOffset);
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
    const auto kind = static_cast<DispatchPolicyKind>(r.u8());
    tcoram_assert(kind == policy_->kind(),
                  "snapshot dispatch policy mismatch on shard ", shardId_,
                  " (", dispatchPolicyName(kind), " vs ",
                  dispatchPolicyName(policy_->kind()), ")");
    policy_->restoreState(r);

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
        const auto weight = static_cast<std::uint16_t>(r.u32());
        const Cycles offset = r.u64();
        const std::uint64_t len = r.u64();
        tcoram_assert(len > 0, "snapshot holds an empty active queue on "
                               "shard ", shardId_);
        for (std::uint64_t i = 0; i < len && r.ok(); ++i) {
            const Cycles arrival = r.u64();
            enqueue(sid, arrival, loadTransaction(r), weight, offset);
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
