#include "common/rng.hh"

#include <bit>
#include <cmath>
#include <limits>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram {

namespace {

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** One past the largest 53-bit draw. */
constexpr std::uint64_t kDrawEnd = std::uint64_t{1} << 53;

/** Cuts closer together than this end the table: the tail. */
constexpr std::uint64_t kMinCutSpacing = std::uint64_t{1} << 20;

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &w : s_)
        w = splitMix64(x);
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    tcoram_assert(bound != 0, "nextBounded(0)");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t stream)
{
    // Two SplitMix64 steps keyed by base, advanced by the stream index,
    // so nearby (base, stream) pairs land far apart.
    std::uint64_t x = base ^ (stream * 0xd1342543de82ef95ull);
    std::uint64_t a = splitMix64(x);
    std::uint64_t b = splitMix64(x);
    return a ^ std::rotl(b, 32);
}

std::uint64_t
Rng::geometricGap(std::uint64_t x, double denom)
{
    // Inverse-CDF of geometric with success prob 1/mean.
    const double u = static_cast<double>(x) * 0x1.0p-53;
    const double v = std::log1p(-u) / denom;
    return static_cast<std::uint64_t>(v) + 1;
}

std::uint64_t
Rng::nextGeometric(double mean)
{
    tcoram_assert(mean >= 1.0, "geometric mean must be >= 1");
    const std::uint64_t x = next() >> 11;
    return geometricGap(x, std::log1p(-(1.0 / mean)));
}

BoundedDraw::BoundedDraw(std::uint64_t bound)
    : bound_(bound), threshold_(bound ? -bound % bound : 0),
      pow2_(isPow2(bound))
{
}

void
GeometricTable::build()
{
    tcoram_assert(mean_ >= 1.0, "geometric mean must be >= 1");
    built_ = true;
    denom_ = std::log1p(-(1.0 / mean_));
    // Mean 1 divides by -inf: every draw is gap 1, all of it "tail".
    if (!(denom_ > -std::numeric_limits<double>::infinity()))
        return;

    // cuts_[k]: the smallest x whose gap is at least k + 2. Each
    // search starts at the previous cut.
    std::uint64_t lo = 0;
    while (cuts_.size() < kMaxCuts) {
        const std::uint64_t want = cuts_.size() + 2;
        std::uint64_t hi = kDrawEnd - 1;
        if (Rng::geometricGap(hi, denom_) < want)
            break;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (Rng::geometricGap(mid, denom_) >= want)
                hi = mid;
            else
                lo = mid + 1;
        }
        if (!cuts_.empty() && lo - cuts_.back() < kMinCutSpacing)
            break;
        cuts_.push_back(lo);
    }

    std::size_t k = 0;
    for (std::size_t b = 0; b < bucket_.size(); ++b) {
        const std::uint64_t first = std::uint64_t{b} << (53 - kBucketBits);
        while (k < cuts_.size() && cuts_[k] < first)
            ++k;
        bucket_[b] = static_cast<std::uint16_t>(k);
    }
}

} // namespace tcoram
