#include "sim/session_ring.hh"

namespace tcoram::sim {

SessionRing::SessionRing(std::size_t capacity)
    : sq_(capacity), cq_(capacity), window_(sq_.capacity(), 0)
{
}

std::optional<std::uint64_t>
SessionRing::trySubmit(std::uint32_t sid, Cycles arrival,
                       const timing::OramTransaction &txn)
{
    // The single backpressure bound gates on the retirement FENCE, not
    // the drain count: completions pop in shard-fold order, so a
    // producer that pops a few out-of-order completions and resubmits
    // can push drained well past the fence, and a drain-count bound
    // would then let token - fence exceed the retirement window (two
    // live tokens aliasing one window slot). Because fence <= drained,
    // this bound is strictly tighter than submitted - drained <
    // capacity, so it still implies a free submission slot (sq
    // occupancy <= in-flight) AND reserves a completion slot.
    if (submitted() - fence_.load(std::memory_order_relaxed) >=
        sq_.capacity())
        return std::nullopt;
    const std::uint64_t token = nextToken_;
    const bool ok = sq_.tryPush(Submission{token, sid, arrival, txn});
    tcoram_assert(ok, "submission ring full below the in-flight bound");
    ++nextToken_;
    return token;
}

bool
SessionRing::popCompletion(Completion &out)
{
    if (!cq_.tryPop(out))
        return false;
    ++drained_;
    // Tokens retire out of order across shards; mark the slot in the
    // capacity-sized window and advance the fence over every
    // consecutively-retired token. trySubmit's fence bound guarantees
    // token - fence <= capacity for every live token, so slots never
    // collide.
    const std::size_t mask = window_.size() - 1;
    std::uint64_t fence = fence_.load(std::memory_order_relaxed);
    tcoram_dassert(out.token > fence && out.token - fence <= window_.size(),
                   "completion token outside the retirement window");
    window_[out.token & mask] = 1;
    while (window_[(fence + 1) & mask]) {
        window_[(fence + 1) & mask] = 0;
        ++fence;
    }
    fence_.store(fence, std::memory_order_release);
    return true;
}

bool
SessionRing::popSubmission(Submission &out)
{
    return sq_.tryPop(out);
}

void
SessionRing::pushCompletion(const Completion &c)
{
    const bool ok = cq_.tryPush(c);
    tcoram_assert(ok, "completion ring full: in-flight bound violated");
}

void
SessionRing::saveState(ByteWriter &w) const
{
    w.u64(capacity());
    w.u64(nextToken_);
    w.u64(drained_);
    w.u64(fence_.load(std::memory_order_acquire));
    w.bytes(window_);
    w.u64(sq_.size());
    for (std::size_t i = 0; i < sq_.size(); ++i) {
        const Submission &sub = sq_.peek(i);
        w.u64(sub.token);
        w.u32(sub.sessionId);
        w.u64(sub.arrival);
        timing::saveTransaction(w, sub.txn);
    }
    w.u64(cq_.size());
    for (std::size_t i = 0; i < cq_.size(); ++i) {
        const Completion &c = cq_.peek(i);
        w.u64(c.token);
        w.u32(c.sessionId);
        w.u64(c.arrival);
        timing::saveCompletion(w, c.completion);
    }
}

void
SessionRing::restoreState(ByteReader &r)
{
    const std::uint64_t cap = r.u64();
    tcoram_assert(cap == capacity(), "snapshot lane capacity mismatch (",
                  cap, " vs ", capacity(), ")");
    nextToken_ = r.u64();
    drained_ = r.u64();
    fence_.store(r.u64(), std::memory_order_release);
    r.bytes(window_);
    Submission sub;
    while (sq_.tryPop(sub)) {
    }
    Completion c;
    while (cq_.tryPop(c)) {
    }
    const std::uint64_t subs = r.u64();
    tcoram_assert(subs <= cap, "snapshot lane backlog exceeds capacity");
    for (std::uint64_t i = 0; i < subs && r.ok(); ++i) {
        sub.token = r.u64();
        sub.sessionId = r.u32();
        sub.arrival = r.u64();
        sub.txn = timing::loadTransaction(r);
        sq_.tryPush(sub);
    }
    const std::uint64_t comps = r.u64();
    tcoram_assert(comps <= cap, "snapshot lane completions exceed capacity");
    for (std::uint64_t i = 0; i < comps && r.ok(); ++i) {
        c.token = r.u64();
        c.sessionId = r.u32();
        c.arrival = r.u64();
        c.completion = timing::loadCompletion(r);
        cq_.tryPush(c);
    }
}

} // namespace tcoram::sim
