/**
 * @file
 * Timing-channel protection tests: rate sets, epoch schedules, the
 * performance counters, the rate learner (both dividers), the
 * enforcer's scheduling discipline, and leakage arithmetic against
 * the paper's published numbers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "timing/epoch_schedule.hh"
#include "timing/leakage.hh"
#include "timing/perf_counters.hh"
#include "timing/rate_enforcer.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::timing {
namespace {

TEST(RateSet, PaperR4Values)
{
    // §9.2: |R| = 4 over [256, 32768] on a lg scale gives
    // {256, 1290, 6501, 32768}.
    RateSet r(4);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r.at(0), 256u);
    EXPECT_NEAR(static_cast<double>(r.at(1)), 1290.0, 15.0);
    EXPECT_NEAR(static_cast<double>(r.at(2)), 6501.0, 65.0);
    EXPECT_EQ(r.at(3), 32768u);
}

TEST(RateSet, R2IsExtremesOnly)
{
    RateSet r(2);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_EQ(r.at(0), 256u);
    EXPECT_EQ(r.at(1), 32768u);
}

TEST(RateSet, LinearSpacingDiffers)
{
    RateSet log4(4), lin4(4, 256, 32768, RateSet::Spacing::Linear);
    EXPECT_NE(log4.at(1), lin4.at(1));
    EXPECT_NEAR(static_cast<double>(lin4.at(1)),
                256.0 + (32768.0 - 256.0) / 3.0, 2.0);
}

TEST(RateSet, DiscretizePicksClosest)
{
    RateSet r(4); // ~{256, 1290, 6501, 32768}
    EXPECT_EQ(r.discretize(0), r.at(0));
    EXPECT_EQ(r.discretize(300), r.at(0));
    EXPECT_EQ(r.discretize(1000), r.at(1));
    EXPECT_EQ(r.discretize(4000), r.at(2));
    EXPECT_EQ(r.discretize(20000), r.at(3));
    EXPECT_EQ(r.discretize(1u << 30), r.at(3));
    // Exact members map to themselves.
    for (std::size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r.discretize(r.at(i)), r.at(i));
}

TEST(RateSet, ExplicitSetSortsAndDedups)
{
    RateSet r(std::vector<Cycles>{500, 100, 500, 300});
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r.fastest(), 100u);
    EXPECT_EQ(r.slowest(), 500u);
    EXPECT_EQ(r.indexOf(300), 1u);
}

TEST(EpochSchedule, DoublingLengths)
{
    EpochSchedule e(1024, 2, 1ull << 40);
    EXPECT_EQ(e.epochLength(0), 1024u);
    EXPECT_EQ(e.epochLength(1), 2048u);
    EXPECT_EQ(e.epochLength(10), 1024u << 10);
}

TEST(EpochSchedule, EpochAtBoundaries)
{
    EpochSchedule e(1000, 2, 1ull << 40);
    EXPECT_EQ(e.epochAt(0), 0u);
    EXPECT_EQ(e.epochAt(999), 0u);
    EXPECT_EQ(e.epochAt(1000), 1u);
    EXPECT_EQ(e.epochAt(2999), 1u);
    EXPECT_EQ(e.epochAt(3000), 2u);
}

TEST(EpochSchedule, StartsAreCumulative)
{
    EpochSchedule e(1000, 4, 1ull << 40);
    EXPECT_EQ(e.epochStart(0), 0u);
    EXPECT_EQ(e.epochStart(1), 1000u);
    EXPECT_EQ(e.epochStart(2), 5000u);
    EXPECT_EQ(e.epochStart(3), 21000u);
}

TEST(EpochSchedule, PaperEpochCounts)
{
    // §2.2.1 / Example 6.1: epoch0 = 2^30, Tmax = 2^62.
    // Doubling: 32 epochs; x4 growth: 16 epochs (dynamic_R4_E4).
    EpochSchedule doubling(EpochSchedule::kPaperEpoch0, 2);
    EXPECT_EQ(doubling.epochsToTmax(), 32u);
    EpochSchedule quad(EpochSchedule::kPaperEpoch0, 4);
    EXPECT_EQ(quad.epochsToTmax(), 16u);
    EpochSchedule oct(EpochSchedule::kPaperEpoch0, 8);
    EXPECT_EQ(oct.epochsToTmax(), 11u);
    EpochSchedule hex(EpochSchedule::kPaperEpoch0, 16);
    EXPECT_EQ(hex.epochsToTmax(), 8u);
}

TEST(EpochSchedule, EpochsUsedCountsTransitions)
{
    EpochSchedule e(1000, 2, 1ull << 40);
    EXPECT_EQ(e.epochsUsed(0), 0u);
    EXPECT_EQ(e.epochsUsed(999), 0u);
    EXPECT_EQ(e.epochsUsed(1000), 1u); // first boundary crossed
    EXPECT_EQ(e.epochsUsed(2999), 1u);
    EXPECT_EQ(e.epochsUsed(3000), 2u);
}

TEST(PerfCounters, TrackAndReset)
{
    PerfCounters pc;
    pc.noteRealAccess(1488);
    pc.noteRealAccess(1488);
    pc.noteWaste(100);
    EXPECT_EQ(pc.accessCount(), 2u);
    EXPECT_EQ(pc.oramCycles(), 2976u);
    EXPECT_EQ(pc.waste(), 100u);
    pc.reset();
    EXPECT_EQ(pc.accessCount(), 0u);
    EXPECT_EQ(pc.oramCycles(), 0u);
    EXPECT_EQ(pc.waste(), 0u);
}

TEST(RateLearner, ExactDividerEquationOne)
{
    RateSet r(4);
    RateLearner learner(r, RateLearner::Divider::Exact);
    PerfCounters pc;
    // Epoch of 1,000,000 cycles; 100 accesses of 1488 cycles; 10,000
    // cycles of waste. NewIntRaw = (1e6 - 1e4 - 148800)/100 = 8412.
    for (int i = 0; i < 100; ++i)
        pc.noteRealAccess(1488);
    pc.noteWaste(10000);
    EXPECT_EQ(learner.predictRaw(1'000'000, pc), 8412u);
    EXPECT_EQ(learner.nextRate(1'000'000, pc), r.at(2)); // ~6501
}

TEST(RateLearner, ShifterUndersetsUpToTwox)
{
    RateSet r(4);
    RateLearner shifter(r, RateLearner::Divider::Shifter);
    RateLearner exact(r, RateLearner::Divider::Exact);
    PerfCounters pc;
    for (int i = 0; i < 100; ++i) // rounds to 256 then doubles? no:
        pc.noteRealAccess(1488);  // 100 -> 128 (strictly: 128, since
                                  // 100 is not a power of 2)
    const Cycles raw_exact = exact.predictRaw(1'000'000, pc);
    const Cycles raw_shift = shifter.predictRaw(1'000'000, pc);
    EXPECT_LE(raw_shift, raw_exact);
    EXPECT_GE(raw_shift * 2 + 2, raw_exact);
}

TEST(RateLearner, ShifterDoublesExactPowers)
{
    // §7.2: AccessCount already a power of two is still rounded up.
    RateSet r(std::vector<Cycles>{1, 1u << 20});
    RateLearner shifter(r, RateLearner::Divider::Shifter);
    PerfCounters pc;
    for (int i = 0; i < 64; ++i)
        pc.noteRealAccess(0);
    // numerator 128000; exact divide by 64 = 2000, shifter divides by
    // 128 -> 1000.
    EXPECT_EQ(shifter.predictRaw(128000, pc), 1000u);
}

TEST(RateLearner, NoAccessesPicksSlowest)
{
    RateSet r(4);
    RateLearner learner(r);
    PerfCounters pc;
    EXPECT_EQ(learner.nextRate(1'000'000, pc), r.slowest());
}

TEST(RateLearner, SaturatedEpochClampsToZero)
{
    RateSet r(4);
    RateLearner learner(r, RateLearner::Divider::Exact);
    PerfCounters pc;
    for (int i = 0; i < 1000; ++i)
        pc.noteRealAccess(1488); // ORAMCycles > epoch
    EXPECT_EQ(learner.predictRaw(1000, pc), 0u);
    EXPECT_EQ(learner.nextRate(1000, pc), r.fastest());
}

/** Fixed-latency fake ORAM device for enforcer tests. */
class FakeDevice : public OramDeviceIf
{
  public:
    explicit FakeDevice(Cycles lat) : lat_(lat) {}

    OramCompletion
    submit(Cycles now, const OramTransaction &txn) override
    {
        if (txn.kind == OramTransaction::Kind::Real)
            ++real_;
        else
            ++dummy_;
        starts_.push_back(now);
        return {now, now + lat_, 0, 0, 0};
    }

    Cycles accessLatency() const override { return lat_; }

    std::uint64_t real_ = 0;
    std::uint64_t dummy_ = 0;
    std::vector<Cycles> starts_;

  private:
    Cycles lat_;
};

TEST(RateEnforcer, PeriodicScheduleIsExact)
{
    // All accesses (real or dummy) must start exactly rate cycles
    // after the previous completion — the indistinguishability
    // property the leakage bound rests on.
    FakeDevice dev(100);
    RateSet r(std::vector<Cycles>{500});
    EpochSchedule e(1ull << 30, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 500);

    enf.serveReal(0);     // slot at 500
    enf.serveReal(700);   // prev done 600; slot at 1100
    enf.drainUntil(5000); // dummies at 1700, 2300, ...
    ASSERT_GE(dev.starts_.size(), 4u);
    for (std::size_t i = 1; i < dev.starts_.size(); ++i)
        EXPECT_EQ(dev.starts_[i] - dev.starts_[i - 1], 600u)
            << "slot " << i;
}

TEST(RateEnforcer, DummiesFillIdleGaps)
{
    FakeDevice dev(100);
    RateSet r(std::vector<Cycles>{500});
    EpochSchedule e(1ull << 30, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 500);
    enf.drainUntil(6000);
    // Slots at 500, 1100, 1700, ... -> floor((6000-500)/600)+1 = 10.
    EXPECT_EQ(dev.dummy_, 10u);
    EXPECT_EQ(dev.real_, 0u);
}

TEST(RateEnforcer, WasteChargedWhenOverset)
{
    FakeDevice dev(100);
    RateSet r(std::vector<Cycles>{1000});
    EpochSchedule e(1ull << 30, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 1000);
    // Request at cycle 0 waits for the slot at 1000.
    enf.serveReal(0);
    EXPECT_EQ(enf.counters().waste(), 1000u);
}

TEST(RateEnforcer, WasteIncludesDummyInFlight)
{
    FakeDevice dev(100);
    RateSet r(std::vector<Cycles>{500});
    EpochSchedule e(1ull << 30, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 500);
    // Let the dummy at 500 fire, then request at 550 (mid-dummy).
    enf.drainUntil(601);
    ASSERT_EQ(dev.dummy_, 1u);
    const Cycles done = enf.serveReal(550);
    // Dummy completes at 600; next slot 1100; served 1100-1200.
    EXPECT_EQ(done, 1200u);
    EXPECT_EQ(enf.counters().waste(), 550u);
}

TEST(RateEnforcer, EpochTransitionChangesRate)
{
    FakeDevice dev(100);
    RateSet r(4); // {256, 1290, 6501, 32768}
    EpochSchedule e(100'000, 2, 1ull << 40);
    RateLearner learner(r, RateLearner::Divider::Exact);
    RateEnforcer enf(dev, r, e, learner, 10000);

    // Memory-bound epoch 0: requests back-to-back.
    Cycles t = 0;
    for (int i = 0; i < 30; ++i)
        t = enf.serveReal(t);
    enf.drainUntil(100'001); // cross the boundary
    ASSERT_GE(enf.decisions().size(), 2u);
    EXPECT_EQ(enf.decisions()[0].rate, 10000u);
    // Heavy demand should have selected a fast rate.
    EXPECT_LE(enf.decisions()[1].rate, 1290u);
    EXPECT_EQ(enf.currentEpoch(), 1u);
}

TEST(RateEnforcer, IdleEpochPicksSlowestRate)
{
    FakeDevice dev(100);
    RateSet r(4);
    EpochSchedule e(100'000, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 256);
    enf.drainUntil(100'001);
    ASSERT_GE(enf.decisions().size(), 2u);
    EXPECT_EQ(enf.decisions()[1].rate, 32768u);
}

TEST(RateEnforcer, StaticSetNeverChangesRate)
{
    FakeDevice dev(100);
    RateSet r(std::vector<Cycles>{300});
    EpochSchedule e(10'000, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 300);
    Cycles t = 0;
    for (int i = 0; i < 50; ++i)
        t = enf.serveReal(t + 1000);
    for (const auto &d : enf.decisions())
        EXPECT_EQ(d.rate, 300u);
}

TEST(RateEnforcer, Req1WastePerAccessBoundedByRate)
{
    // Figure 4 Req 1: with an overset rate and no queueing, the waste
    // charged per access is at most r (the wait for the next slot).
    FakeDevice dev(100);
    RateSet r(std::vector<Cycles>{5000});
    EpochSchedule e(1ull << 30, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 5000);
    Cycles t = 0;
    Cycles prev_waste = 0;
    for (int i = 0; i < 20; ++i) {
        // Arrive just after the previous completion: pure rate wait.
        t = enf.serveReal(t + 1);
        const Cycles delta = enf.counters().waste() - prev_waste;
        prev_waste = enf.counters().waste();
        EXPECT_LE(delta, 5000u);
    }
}

TEST(RateEnforcer, OramCyclesSumsLatencies)
{
    FakeDevice dev(321);
    RateSet r(std::vector<Cycles>{1000});
    EpochSchedule e(1ull << 30, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 1000);
    Cycles t = 0;
    for (int i = 0; i < 7; ++i)
        t = enf.serveReal(t + 2000);
    EXPECT_EQ(enf.counters().oramCycles(), 7u * 321u);
    EXPECT_EQ(enf.counters().accessCount(), 7u);
}

TEST(RateSet, PaperSpacingForLargerSets)
{
    // lg spacing: the candidate ratios are constant.
    for (std::size_t n : {8u, 16u}) {
        RateSet r(n);
        EXPECT_EQ(r.fastest(), 256u);
        EXPECT_EQ(r.slowest(), 32768u);
        const double expect_ratio =
            std::exp2(7.0 / static_cast<double>(n - 1)); // lg span = 7
        for (std::size_t i = 1; i < r.size(); ++i) {
            const double ratio = static_cast<double>(r.at(i)) /
                                 static_cast<double>(r.at(i - 1));
            EXPECT_NEAR(ratio, expect_ratio, expect_ratio * 0.02);
        }
    }
}

TEST(RateEnforcer, Req3ConcurrentMissChargesRate)
{
    FakeDevice dev(100);
    RateSet r(std::vector<Cycles>{500});
    EpochSchedule e(1ull << 30, 2, 1ull << 40);
    RateLearner learner(r);
    RateEnforcer enf(dev, r, e, learner, 500);
    const Cycles done1 = enf.serveReal(0); // completes 600
    const Cycles waste_before = enf.counters().waste();
    enf.serveReal(done1 - 50); // arrived while the first was in flight
    // Req 3: one extra rate charge beyond the physical wait.
    EXPECT_GE(enf.counters().waste() - waste_before, 500u);
}

TEST(Leakage, PaperHeadlineNumbers)
{
    // §2.2.1: |R|=4, |E|=16 -> 32 bits. §9.5: R4_E16 -> 16 bits.
    EXPECT_DOUBLE_EQ(LeakageAccountant::oramTimingBits(4, 16), 32.0);
    EXPECT_DOUBLE_EQ(LeakageAccountant::paperConfigBits(4, 4), 32.0);
    EXPECT_DOUBLE_EQ(LeakageAccountant::paperConfigBits(4, 16), 16.0);
    // Example 6.1: doubling with |R|=4 -> 64 bits ORAM timing.
    EXPECT_DOUBLE_EQ(LeakageAccountant::paperConfigBits(4, 2), 64.0);
}

TEST(Leakage, TerminationChannel)
{
    // §9.1.5: Tmax = 2^62 -> 62 bits.
    EXPECT_DOUBLE_EQ(LeakageAccountant::terminationBits(Cycles{1} << 62),
                     62.0);
    // §6: rounding to 2^30 leaves lg 2^(62-30) = 32 bits.
    EXPECT_DOUBLE_EQ(LeakageAccountant::terminationBitsDiscretized(
                         Cycles{1} << 62, Cycles{1} << 30),
                     32.0);
}

TEST(Leakage, TotalBitsComposesAdditively)
{
    RateSet r(4);
    EpochSchedule e(EpochSchedule::kPaperEpoch0, 4);
    // 32 (ORAM) + 62 (termination) = 94 bits — the §9.3 total.
    EXPECT_DOUBLE_EQ(LeakageAccountant::totalBits(r, e), 94.0);
}

TEST(Leakage, StaticSchemeLeaksZeroOramBits)
{
    EXPECT_DOUBLE_EQ(LeakageAccountant::oramTimingBits(1, 1000), 0.0);
}

TEST(Leakage, UnprotectedIsAstronomical)
{
    // Even a modest run dwarfs any protected configuration.
    const double bits = LeakageAccountant::unprotectedBits(1'000'000, 1488);
    EXPECT_GT(bits, 1000.0);
    // And it grows with time.
    EXPECT_GT(LeakageAccountant::unprotectedBits(2'000'000, 1488), bits);
}

TEST(Leakage, UnprotectedDegenerateCase)
{
    // With OLAT ~ t, only a handful of traces exist.
    const double bits = LeakageAccountant::unprotectedBits(10, 10);
    EXPECT_LT(bits, 8.0);
    EXPECT_GE(bits, 0.0);
}

/** lg C(t - i*(olat-1), i): the i-th trace-count term, computed as
 *  unprotectedBits computes it. */
double
unprotectedTerm(Cycles t, Cycles olat, std::uint64_t i)
{
    const double ln2 = std::numbers::ln2_v<double>;
    auto ln_gamma = [](double x) {
        int sign = 0;
        return ::lgamma_r(x, &sign);
    };
    auto lg_choose = [&](double n, double k) {
        if (k < 0 || k > n)
            return -std::numeric_limits<double>::infinity();
        return (ln_gamma(n + 1) - ln_gamma(k + 1) - ln_gamma(n - k + 1)) /
               ln2;
    };
    const auto i_d = static_cast<double>(i);
    return lg_choose(static_cast<double>(t) -
                         i_d * static_cast<double>(olat - 1),
                     i_d);
}

/** unprotectedBits as it was first written: every log-term kept in a
 *  vector, then one log-sum-exp over them with the final max. */
double
unprotectedBitsTwoPass(Cycles t, Cycles olat)
{
    const auto t_d = static_cast<double>(t);
    const std::uint64_t imax = t / olat;
    double max_term = -std::numeric_limits<double>::infinity();
    std::vector<double> terms;
    for (std::uint64_t i = 0; i <= imax; ++i) {
        const double term = unprotectedTerm(t, olat, i);
        terms.push_back(term);
        max_term = std::max(max_term, term);
        if (term < max_term - 64 && i > imax / 2)
            break;
    }
    double sum = 0.0;
    for (double term : terms)
        sum += std::exp2(term - max_term);
    return max_term + std::log2(sum) + std::log2(t_d);
}

TEST(Leakage, UnprotectedTermsAreUnimodal)
{
    // unprotectedBits bisects for the mode on the sign of
    // term(i + 1) - term(i) and sums outward from it; that finds the
    // mode only if the terms rise and then never rise again. Same grid
    // as UnprotectedOnlineSumMatchesTwoPassForm below.
    for (const Cycles t : {Cycles{1}, Cycles{10}, Cycles{1000},
                           Cycles{123'457}, Cycles{1'000'000},
                           Cycles{1} << 22}) {
        for (const Cycles olat : {Cycles{1}, Cycles{2}, Cycles{7},
                                  Cycles{100}, Cycles{1488}}) {
            if (olat > t)
                continue;
            bool falling = false;
            double prev = unprotectedTerm(t, olat, 0);
            for (std::uint64_t i = 1; i <= t / olat; ++i) {
                const double cur = unprotectedTerm(t, olat, i);
                if (cur > prev)
                    ASSERT_FALSE(falling) << "t " << t << " olat " << olat
                                          << " rises again at i " << i;
                else
                    falling = true;
                prev = cur;
            }
        }
    }
}

TEST(Leakage, UnprotectedOnlineSumMatchesTwoPassForm)
{
    // The online log-sum-exp rescales its running sum as the max
    // rises; over long increasing runs (OLAT 1 sums C(t, i) up to
    // t / 2) that must stay within rounding of the two-pass form.
    for (const Cycles t : {Cycles{1}, Cycles{10}, Cycles{1000},
                           Cycles{123'457}, Cycles{1'000'000},
                           Cycles{1} << 22}) {
        for (const Cycles olat : {Cycles{1}, Cycles{2}, Cycles{7},
                                  Cycles{100}, Cycles{1488}}) {
            if (olat > t)
                continue;
            const double want = unprotectedBitsTwoPass(t, olat);
            const double got = LeakageAccountant::unprotectedBits(t, olat);
            EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
                << "t " << t << " olat " << olat << ": " << got << " vs "
                << want;
        }
    }
}

TEST(LeakageMonitor, EnforcesBudget)
{
    LeakageMonitor mon(4.0, 4); // 4 bits, 2 bits/decision
    EXPECT_TRUE(mon.canDecide());
    EXPECT_TRUE(mon.recordDecision(true));
    EXPECT_TRUE(mon.canDecide());
    EXPECT_TRUE(mon.recordDecision(true));
    EXPECT_FALSE(mon.canDecide());
    // Forced (pinned) decisions remain free.
    EXPECT_TRUE(mon.recordDecision(false));
    EXPECT_DOUBLE_EQ(mon.bitsConsumed(), 4.0);
    // An out-of-budget free decision is flagged.
    EXPECT_FALSE(mon.recordDecision(true));
}

} // namespace
} // namespace tcoram::timing
