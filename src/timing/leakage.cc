#include "timing/leakage.hh"

#include <cmath>
#include <limits>
#include <numbers>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram::timing {

namespace {
/** ln|Γ(x)| via the reentrant lgamma_r: std::lgamma writes libm's
 *  global signgam, a data race when parallel ExperimentEngine workers
 *  account leakage at the same time. */
double
lnGamma(double x)
{
    int sign = 0;
    return ::lgamma_r(x, &sign);
}
} // namespace

double
LeakageAccountant::oramTimingBits(std::size_t num_rates, unsigned num_epochs)
{
    tcoram_assert(num_rates >= 1, "rate set cannot be empty");
    return static_cast<double>(num_epochs) *
           std::log2(static_cast<double>(num_rates));
}

double
LeakageAccountant::composedOramTimingBits(std::size_t num_rates,
                                          unsigned num_epochs,
                                          std::size_t streams)
{
    tcoram_assert(streams >= 1, "composition needs at least one stream");
    return static_cast<double>(streams) *
           oramTimingBits(num_rates, num_epochs);
}

double
LeakageAccountant::terminationBits(Cycles tmax)
{
    tcoram_assert(tmax > 0, "Tmax must be positive");
    return std::log2(static_cast<double>(tmax));
}

double
LeakageAccountant::terminationBitsDiscretized(Cycles tmax, Cycles quantum)
{
    tcoram_assert(quantum > 0 && quantum <= tmax, "bad quantum");
    return std::log2(static_cast<double>(tmax) /
                     static_cast<double>(quantum));
}

double
LeakageAccountant::totalBits(const RateSet &rates,
                             const EpochSchedule &schedule)
{
    return oramTimingBits(rates.size(), schedule.epochsToTmax()) +
           terminationBits(schedule.tmax());
}

double
LeakageAccountant::unprotectedBits(Cycles t, Cycles olat)
{
    tcoram_assert(olat >= 1, "OLAT must be at least one cycle");
    // Trace count for a fixed termination time t is
    //   sum_{i=0}^{floor(t/olat)} C(t - i*(olat-1), i),
    // the number of t-bit strings where every 1 is followed by at
    // least olat-1 zeros. Work in log2 space with lgamma; combine with
    // log-sum-exp. The full Example 6.1 expression also sums over
    // termination times, which adds < lg(t) bits; we fold that in.
    const double ln2 = std::numbers::ln2_v<double>;
    auto lg_choose = [&](double n, double k) {
        if (k < 0 || k > n)
            return -std::numeric_limits<double>::infinity();
        return (lnGamma(n + 1) - lnGamma(k + 1) - lnGamma(n - k + 1)) /
               ln2;
    };

    const auto t_d = static_cast<double>(t);
    const auto gap = static_cast<double>(olat - 1);
    const std::uint64_t imax = t / olat;
    auto term = [&](std::uint64_t i) {
        const auto i_d = static_cast<double>(i);
        return lg_choose(t_d - i_d * gap, i_d);
    };

    // The terms are unimodal in i (test-checked on a grid), so the mode
    // is the first i whose successor is no larger: bisect on that sign.
    std::uint64_t lo = 0, hi = imax;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (term(mid + 1) > term(mid))
            lo = mid + 1;
        else
            hi = mid;
    }
    // Log-sum-exp outward from the mode; each side stops once its terms
    // fall 64 bits below the peak, where they no longer move the sum.
    const double max_term = term(lo);
    double sum = 1.0;
    for (std::uint64_t i = lo; i-- > 0;) {
        const double a = term(i);
        if (a < max_term - 64)
            break;
        sum += std::exp2(a - max_term);
    }
    for (std::uint64_t i = lo + 1; i <= imax; ++i) {
        const double a = term(i);
        if (a < max_term - 64)
            break;
        sum += std::exp2(a - max_term);
    }
    const double per_termination = max_term + std::log2(sum);
    // Sum over termination times 1..t adds at most lg t bits.
    return per_termination + std::log2(t_d);
}

double
LeakageAccountant::paperConfigBits(std::size_t num_rates, unsigned growth)
{
    const EpochSchedule sched(EpochSchedule::kPaperEpoch0, growth,
                              EpochSchedule::kPaperTmax);
    return oramTimingBits(num_rates, sched.epochsToTmax());
}

LeakageMonitor::LeakageMonitor(double limit_bits, std::size_t num_rates)
    : limit_(limit_bits),
      bitsPerDecision_(std::log2(static_cast<double>(num_rates)))
{
    tcoram_assert(limit_bits >= 0, "leakage limit must be non-negative");
    tcoram_assert(num_rates >= 1, "rate set cannot be empty");
}

double
LeakageMonitor::bitsAfterNextDecision() const
{
    return bitsConsumed_ + bitsPerDecision_;
}

bool
LeakageMonitor::canDecide() const
{
    return bitsAfterNextDecision() <= limit_ + 1e-9;
}

bool
LeakageMonitor::recordDecision(bool free_choice)
{
    ++decisions_;
    if (!free_choice)
        return true;
    bitsConsumed_ += bitsPerDecision_;
    return bitsConsumed_ <= limit_ + 1e-9;
}

} // namespace tcoram::timing
