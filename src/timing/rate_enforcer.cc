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
    // is data-independent, and this method runs at the same sequence
    // points on the bounded and unbounded paths (after every
    // completion), keeping N-worker runs bit-identical to 1-worker
    // runs.
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

void
RateEnforcer::advanceTo(Cycles t)
{
    // Interleave epoch transitions and idle dummy slots in time order.
    for (;;) {
        const Cycles boundary = schedule_.epochStart(epoch_ + 1);
        const Cycles slot = nextSlot();

        if (boundary <= t && boundary <= slot) {
            transitionAt(boundary);
            continue;
        }
        if (slot < t) {
            // The slot fires with no pending work: dummy access.
            const OramCompletion c =
                device_.submit(slot, OramTransaction::dummy());
            lastCompletion_ = c.done;
            counters_.noteCrypto(c.cryptoBytes, c.cryptoCalls);
            evictInGap();
            continue;
        }
        return;
    }
}

OramCompletion
RateEnforcer::serve(Cycles arrival, const OramTransaction &txn)
{
    tcoram_assert(txn.kind == OramTransaction::Kind::Real,
                  "dummies are scheduled by the enforcer, not submitted");

    // Fire any dummies/transitions due strictly before the arrival.
    advanceTo(arrival);

    // Req 3 (Figure 4): this request was outstanding concurrently with
    // the previous real access (back-to-back queue) — charge one rate
    // period to Waste on top of the physical wait.
    if (arrival < lastRealCompletion_)
        counters_.noteWaste(rate_);

    // The request starts at the first slot at or after its arrival;
    // epoch transitions between arrival and that slot must be applied
    // (they change the rate and hence the slot position).
    for (;;) {
        const Cycles boundary = schedule_.epochStart(epoch_ + 1);
        const Cycles slot = std::max(nextSlot(), arrival);
        if (boundary <= slot) {
            transitionAt(boundary);
            continue;
        }
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
        if (c.retries > 0) {
            chargeRecovery(c);
            while (!settle())
                transitionAt(schedule_.epochStart(epoch_ + 1));
        }
        return c;
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
    // exactly as advanceTo() interleaves them.
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
    advanceTo(t);
}

bool
RateEnforcer::advanceBounded(Cycles t)
{
    // Same interleave as advanceTo(): when both a transition and a
    // dummy slot are due, the transition goes first — here that means
    // stopping, since the transition belongs to the serial barrier.
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

    // The pre-arrival advance and the Req 3 charge run once per
    // transaction, at the same sequence point as serve(). Retries skip
    // both: serve()'s post-arrival loop never fires dummies, even when
    // a transition drops the rate so far that nextSlot() lands before
    // the arrival again, and re-entering the advance here would.
    if (!settle())
        return std::nullopt;
    if (!serveWasteCharged_) {
        if (!advanceBounded(arrival))
            return std::nullopt;
        if (arrival < lastRealCompletion_)
            counters_.noteWaste(rate_);
        serveWasteCharged_ = true;
    }

    const Cycles boundary = schedule_.epochStart(epoch_ + 1);
    const Cycles slot = std::max(nextSlot(), arrival);
    if (boundary <= slot)
        return std::nullopt;

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
