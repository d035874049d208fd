#include "timing/rate_enforcer.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcoram::timing {

RateEnforcer::RateEnforcer(OramDeviceIf &device, const RateSet &rates,
                           const EpochSchedule &schedule,
                           const LearnerIf &learner, Cycles initial_rate)
    : device_(device),
      rates_(rates),
      schedule_(schedule),
      learner_(learner),
      rate_(initial_rate),
      rateFloor_(std::min(initial_rate, rates.fastest())),
      decisions_{{0, 0, initial_rate}}
{
    tcoram_assert(&learner.rates() == &rates,
                  "learner must be bound to the enforcer's rate set");
}

Cycles
RateEnforcer::nextSlot() const
{
    return lastCompletion_ + rate_;
}

void
RateEnforcer::evictInGap()
{
    // Background-eviction window after a completed slot: the device
    // may work until the next slot's earliest possible service start,
    // so an eviction in flight never delays a real access. When an
    // epoch transition comes first, the post-transition rate is
    // unknown here (the learner runs at the boundary, and under the
    // bounded protocol at the serial barrier) — bound the window by
    // the fastest rate any decision could pick, so the eviction
    // retires before even the earliest post-transition slot.
    //
    // Everything the horizon depends on — the slot grid, the epoch
    // schedule, calibrated constants — is public, so eviction timing
    // is data-independent. It runs after every completion of the one
    // slot/epoch interleave (advanceBounded, serveBounded, settle), so
    // where the transitions are applied — inline by serve() and
    // drainUntil(), or at the ring scheduler's barrier — never moves
    // it, keeping N-worker runs bit-identical to 1-worker runs.
    const Cycles boundary = schedule_.epochStart(epoch_ + 1);
    const Cycles slot = nextSlot();
    const Cycles horizon =
        boundary >= slot ? slot : lastCompletion_ + rateFloor_;
    const OramEvictionCharge e = device_.maybeEvict(horizon);
    if (e.evictions != 0) {
        // Charged like recovery slots: dummy-equivalent crypto/pin
        // traffic into the counters, never into the slot grid — the
        // learner's inputs (access count, ORAM cycles, waste) are
        // untouched, so rate decisions and start-cycle streams stay
        // bit-identical to an eviction-free run whenever occupancy
        // never binds.
        counters_.noteCrypto(e.cryptoBytes, e.cryptoCalls);
        counters_.noteEvictions(e.evictions);
    }
}

void
RateEnforcer::transitionAt(Cycles boundary)
{
    const Cycles epoch_cycles =
        boundary - schedule_.epochStart(epoch_);

    // A budget-limited session pins the rate once L is spent; forced
    // decisions are data-independent and leak nothing.
    Cycles new_rate;
    if (monitor_ != nullptr && !monitor_->canDecide()) {
        new_rate = rate_;
        monitor_->recordDecision(false);
        ++pinnedDecisions_;
    } else {
        new_rate = learner_.nextRate(epoch_cycles, counters_);
        if (monitor_ != nullptr)
            monitor_->recordDecision(true);
    }
    counters_.reset();
    ++epoch_;
    rate_ = new_rate;
    decisions_.push_back({epoch_, boundary, new_rate});
}

OramCompletion
RateEnforcer::serve(Cycles arrival, const OramTransaction &txn)
{
    // The bounded serve with each transition it stops at applied
    // inline, then the recovery slots it still owes.
    for (;;) {
        if (const auto c = serveBounded(arrival, txn)) {
            while (!settle())
                applyTransition();
            return *c;
        }
        applyTransition();
    }
}

void
RateEnforcer::chargeRecovery(const OramCompletion &c)
{
    // Backoff slots owed: sum over retry i of 2^(i-1) — mirrors
    // oram::RecoveryEngine::backoffSlots (the formula is duplicated
    // because the timing layer sits below oram in the dependency
    // order). Each slot fires at the enforced position the next idle
    // dummy would have used, with due epoch transitions applied first,
    // exactly as advanceBounded() interleaves them.
    recoveryOwed_ = (std::uint64_t{1} << c.retries) - 1;
    counters_.noteFaultRecovery(c.faultsDetected, c.retries, recoveryOwed_);
}

bool
RateEnforcer::settle()
{
    while (recoveryOwed_ > 0) {
        if (schedule_.epochStart(epoch_ + 1) <= nextSlot())
            return false;
        const OramCompletion d =
            device_.submit(nextSlot(), OramTransaction::dummy());
        lastCompletion_ = d.done;
        counters_.noteCrypto(d.cryptoBytes, d.cryptoCalls);
        evictInGap();
        --recoveryOwed_;
    }
    return true;
}

void
RateEnforcer::drainUntil(Cycles t)
{
    while (!drainBounded(t))
        applyTransition();
}

bool
RateEnforcer::advanceBounded(Cycles t)
{
    // Interleave epoch transitions and idle dummy slots in time order.
    // When both a transition and a dummy slot are due, the transition
    // goes first: stop, and let the caller apply it (inline in
    // serve()/drainUntil(), at the serial barrier under the ring
    // scheduler).
    for (;;) {
        const Cycles boundary = schedule_.epochStart(epoch_ + 1);
        const Cycles slot = nextSlot();

        if (boundary <= t && boundary <= slot)
            return false;
        if (slot < t) {
            const OramCompletion c =
                device_.submit(slot, OramTransaction::dummy());
            lastCompletion_ = c.done;
            counters_.noteCrypto(c.cryptoBytes, c.cryptoCalls);
            evictInGap();
            continue;
        }
        return true;
    }
}

std::optional<OramCompletion>
RateEnforcer::serveBounded(Cycles arrival, const OramTransaction &txn)
{
    tcoram_assert(txn.kind == OramTransaction::Kind::Real,
                  "dummies are scheduled by the enforcer, not submitted");

    // The pre-arrival advance (dummies/transitions due strictly before
    // the arrival) and the Req 3 charge run once per transaction.
    // Retries skip both: once the request is waiting, no dummy fires
    // ahead of it, even when a transition drops the rate so far that
    // nextSlot() lands before the arrival again, and re-entering the
    // advance here would.
    if (!settle())
        return std::nullopt;
    if (!serveWasteCharged_) {
        if (!advanceBounded(arrival))
            return std::nullopt;
        // Req 3 (Figure 4): this request was outstanding concurrently
        // with the previous real access (back-to-back queue) — charge
        // one rate period to Waste on top of the physical wait.
        if (arrival < lastRealCompletion_)
            counters_.noteWaste(rate_);
        serveWasteCharged_ = true;
    }

    // The request starts at the first slot at or after its arrival;
    // an epoch transition before that slot changes the rate and hence
    // the slot position, so it must be applied first.
    const Cycles boundary = schedule_.epochStart(epoch_ + 1);
    const Cycles slot = std::max(nextSlot(), arrival);
    if (boundary <= slot)
        return std::nullopt;

    // Waiting from arrival to slot start is rate-induced loss: the
    // paper's Waste cases (a) overset rate and (b) dummy in flight
    // both show up as slot - arrival here.
    const Cycles start = slot;
    if (start > arrival)
        counters_.noteWaste(start - arrival);

    const OramCompletion c = device_.submit(start, txn);
    counters_.noteRealAccess(c.done - start);
    counters_.noteCrypto(c.cryptoBytes, c.cryptoCalls);
    lastCompletion_ = c.done;
    lastRealCompletion_ = c.done;
    evictInGap();
    serveWasteCharged_ = false;
    // Recovery slots may cross an epoch boundary: fire what fits now,
    // owe the rest until the barrier has applied the transition.
    if (c.retries > 0) {
        chargeRecovery(c);
        settle();
    }
    return c;
}

bool
RateEnforcer::drainBounded(Cycles t)
{
    return settle() && advanceBounded(t);
}

void
RateEnforcer::saveState(ByteWriter &w) const
{
    w.u64(rate_);
    w.u32(epoch_);
    w.u64(lastCompletion_);
    w.u64(lastRealCompletion_);
    w.u32(pinnedDecisions_);
    w.b(serveWasteCharged_);
    w.u64(recoveryOwed_);
    counters_.saveState(w);
    w.u64(decisions_.size());
    for (const RateDecision &d : decisions_) {
        w.u32(d.epoch);
        w.u64(d.startCycle);
        w.u64(d.rate);
    }
}

void
RateEnforcer::restoreState(ByteReader &r)
{
    rate_ = r.u64();
    epoch_ = r.u32();
    lastCompletion_ = r.u64();
    lastRealCompletion_ = r.u64();
    pinnedDecisions_ = r.u32();
    serveWasteCharged_ = r.b();
    recoveryOwed_ = r.u64();
    counters_.restoreState(r);
    decisions_.clear();
    const std::uint64_t n = r.u64();
    decisions_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        RateDecision d;
        d.epoch = r.u32();
        d.startCycle = r.u64();
        d.rate = r.u64();
        decisions_.push_back(d);
    }
}

} // namespace tcoram::timing
