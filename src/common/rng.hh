/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**) used by
 * every stochastic component. A seeded Rng makes whole-system runs
 * reproducible, which the test suite and the replay-attack experiments
 * rely on.
 */

#ifndef TCORAM_COMMON_RNG_HH
#define TCORAM_COMMON_RNG_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace tcoram {

/**
 * xoshiro256** generator. Not cryptographic; crypto-grade randomness
 * (leaf remapping, nonces) is drawn from crypto::Prf instead when the
 * security experiments need it, but the simulator's workload and
 * placement randomness uses this.
 */
class Rng
{
  public:
    /** Seed with SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);

        return result;
    }

    /** Uniform value in [0, bound). @p bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1): the 53-bit draw next() >> 11, times
     *  2^-53. nextBool and nextGeometric consume exactly this draw. */
    double nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool nextBool(double p);

    /**
     * Geometric-ish gap: number of trials until success with
     * probability 1/mean (mean >= 1). Used for compute-gap synthesis.
     */
    std::uint64_t nextGeometric(double mean);

    /**
     * The gap nextGeometric returns for the 53-bit draw @p x, where
     * @p denom is log1p(-1/mean): the one expression both
     * nextGeometric and GeometricTable evaluate.
     */
    static std::uint64_t geometricGap(std::uint64_t x, double denom);

    /** Raw generator state — checkpoint/restart support. A restored
     *  generator continues the exact draw stream of the saved one. */
    std::array<std::uint64_t, 4> state() const { return s_; }
    void setState(const std::array<std::uint64_t, 4> &s) { s_ = s; }

    bool operator==(const Rng &) const = default;

  private:
    std::array<std::uint64_t, 4> s_;
};

/**
 * Rng::nextBool(p) for a fixed p, as an integer compare on the 53-bit
 * draw. nextDouble() is x * 2^-53 exactly, so x * 2^-53 < p holds iff
 * x < ceil(p * 2^53): the same outcome from the same single draw.
 */
class BernoulliCut
{
  public:
    /** One past the largest 53-bit draw (p >= 1 accepts every draw). */
    static constexpr std::uint64_t kAll = std::uint64_t{1} << 53;

    BernoulliCut() = default;

    explicit BernoulliCut(double p)
    {
        if (!(p > 0.0)) // also NaN: nextBool(NaN) is always false
            return;
        if (p >= 1.0) {
            cut_ = kAll;
            return;
        }
        const double scaled = p * 0x1.0p53; // exact: a power-of-two scale
        cut_ = static_cast<std::uint64_t>(scaled);
        if (static_cast<double>(cut_) < scaled)
            ++cut_;
    }

    /** The outcome nextBool(p) gives for the 53-bit draw @p x. */
    bool test(std::uint64_t x) const { return x < cut_; }
    /** Same draw and outcome as rng.nextBool(p). */
    bool draw(Rng &rng) const { return test(rng.next() >> 11); }
    std::uint64_t cut() const { return cut_; }

  private:
    std::uint64_t cut_ = 0;
};

/**
 * Rng::nextBounded(bound) for a fixed bound, with the rejection
 * threshold hoisted and a mask in place of the modulus when the bound
 * is a power of two (whose threshold is 0: every draw is accepted).
 * A zero bound dies on the first draw, as nextBounded(0) does.
 */
class BoundedDraw
{
  public:
    BoundedDraw() = default;
    explicit BoundedDraw(std::uint64_t bound);

    /** Same draws and value as rng.nextBounded(bound). */
    std::uint64_t draw(Rng &rng) const
    {
        if (pow2_)
            return rng.next() & (bound_ - 1);
        tcoram_assert(bound_ != 0, "nextBounded(0)");
        for (;;) {
            const std::uint64_t r = rng.next();
            if (r >= threshold_)
                return r % bound_;
        }
    }

  private:
    std::uint64_t bound_ = 1;
    std::uint64_t threshold_ = 0;
    bool pow2_ = true;
};

/**
 * Rng::nextGeometric(mean) for a fixed mean, as a table lookup. The
 * gap is a step function of the 53-bit draw x: gap 1 below cuts()[0],
 * and cuts()[k] is the smallest x at which the exact expression
 * (Rng::geometricGap) reaches k + 2, found by binary search on that
 * expression when the table is built. A bucket index on the top bits
 * of x finds the step in O(1).
 *
 * The exact expression is still evaluated for any x within kGuard of
 * a cut, past the last cut (the tail, where cuts crowd together) and
 * for mean 1 (whose denominator is -inf). log1p's few-ulp error can
 * move a computed step by a few draws at most, far less than kGuard,
 * so on a draw farther than that from every cut the table cannot
 * disagree with the expression.
 *
 * Construction is free; the table is built on the first draw.
 */
class GeometricTable
{
  public:
    /** Distance from a cut inside which the exact expression runs. */
    static constexpr std::uint64_t kGuard = std::uint64_t{1} << 16;
    /** Top bits of the 53-bit draw that index the bucket array. */
    static constexpr unsigned kBucketBits = 10;
    /** Most cuts kept; the rest of the range is tail. */
    static constexpr std::size_t kMaxCuts = 4096;

    explicit GeometricTable(double mean) : mean_(mean) {}

    /** The gap nextGeometric(mean) gives for the 53-bit draw @p x. */
    std::uint64_t gap(std::uint64_t x)
    {
        if (!built_)
            build();
        std::size_t k = bucket_[x >> (53 - kBucketBits)];
        while (k < cuts_.size() && cuts_[k] <= x)
            ++k;
        if (k == cuts_.size() || cuts_[k] - x <= kGuard ||
            (k > 0 && x - cuts_[k - 1] <= kGuard))
            return Rng::geometricGap(x, denom_);
        return k + 1;
    }

    /** Same draw and value as rng.nextGeometric(mean). */
    std::uint64_t draw(Rng &rng) { return gap(rng.next() >> 11); }

    /** The cuts, building the table if needed (tests walk them). */
    const std::vector<std::uint64_t> &cuts()
    {
        if (!built_)
            build();
        return cuts_;
    }

  private:
    void build();

    double mean_;
    double denom_ = 0.0;
    bool built_ = false;
    std::vector<std::uint64_t> cuts_;
    /** Per bucket: the number of cuts below its first draw. */
    std::array<std::uint16_t, std::size_t{1} << kBucketBits> bucket_{};
};

/**
 * Deterministically derive a sub-seed from a base seed and a stream
 * index (SplitMix64 finalizer over both words). The experiment engine
 * uses this to give every (config, workload) grid cell its own
 * reproducible seed independent of which thread runs the cell.
 */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t stream);

} // namespace tcoram

#endif // TCORAM_COMMON_RNG_HH
