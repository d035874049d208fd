/**
 * @file
 * Unit tests for the common substrate: bit utilities, RNG, the stat
 * registry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/bitutils.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace tcoram {
namespace {

TEST(BitUtils, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 62));
    EXPECT_FALSE(isPow2((1ull << 62) + 1));
}

TEST(BitUtils, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
}

TEST(BitUtils, RoundUpPow2)
{
    EXPECT_EQ(roundUpPow2(1), 1u);
    EXPECT_EQ(roundUpPow2(3), 4u);
    EXPECT_EQ(roundUpPow2(4), 4u);
    EXPECT_EQ(roundUpPow2(5), 8u);
    // Paper Algorithm 1 semantics: exact powers are doubled.
    EXPECT_EQ(roundUpPow2(4, true), 8u);
    EXPECT_EQ(roundUpPow2(1, true), 2u);
    EXPECT_EQ(roundUpPow2(5, true), 8u);
}

TEST(BitUtils, BitsExtraction)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffull);
    EXPECT_EQ(bits(0xff00, 7, 0), 0x00ull);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

TEST(BitUtils, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, BoundedRoughlyUniform)
{
    Rng r(11);
    std::array<int, 8> counts{};
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        counts[r.nextBounded(8)]++;
    for (int c : counts) {
        EXPECT_GT(c, n / 8 - n / 80);
        EXPECT_LT(c, n / 8 + n / 80);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanClose)
{
    Rng r(5);
    const double mean = 20.0;
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.nextGeometric(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05);
}

/** One past the largest 53-bit draw. */
constexpr std::uint64_t kDrawEnd = std::uint64_t{1} << 53;

/** nextGeometric's libm expression for the 53-bit draw @p x, written
 *  out independently of Rng. */
std::uint64_t
geometricReference(std::uint64_t x, double mean)
{
    const double u = static_cast<double>(x) * 0x1.0p-53;
    const double p = 1.0 / mean;
    const double v = std::log1p(-u) / std::log1p(-p);
    return static_cast<std::uint64_t>(v) + 1;
}

TEST(Rng, GeometricIsTheReferenceOnTheSameDraw)
{
    Rng r(17), raw(17);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(r.nextGeometric(4.5), geometricReference(raw.next() >> 11, 4.5));
}

TEST(GeometricTable, MatchesTheLibmExpression)
{
    for (const double mean : {1.0, 1.5, 3.0, 4.0, 5.0, 10.0, 64.0, 400.0}) {
        SCOPED_TRACE(mean);
        GeometricTable table(mean);
        auto check = [&](std::uint64_t x) {
            ASSERT_EQ(table.gap(x), geometricReference(x, mean)) << "x " << x;
        };
        const std::vector<std::uint64_t> cuts = table.cuts();
        if (mean == 1.0)
            EXPECT_TRUE(cuts.empty());
        else
            EXPECT_GT(cuts.size(), 8u);

        // Each cut is where the expression steps to the next gap.
        const std::uint64_t g = GeometricTable::kGuard;
        for (std::size_t k = 0; k < cuts.size(); ++k) {
            const std::uint64_t c = cuts[k];
            ASSERT_GT(c, 0u);
            ASSERT_EQ(geometricReference(c, mean), k + 2);
            ASSERT_EQ(geometricReference(c - 1, mean), k + 1);
            if (k > 0) {
                ASSERT_GT(c, cuts[k - 1]);
            }
            for (const std::uint64_t d : {g + 1, g, std::uint64_t{1}}) {
                check(c - std::min(c, d));
                if (c + d < kDrawEnd)
                    check(c + d);
            }
            check(c);
        }

        // Every bucket edge, from both sides.
        for (std::uint64_t b = 0; b < (1u << GeometricTable::kBucketBits);
             ++b) {
            const std::uint64_t first = b << (53 - GeometricTable::kBucketBits);
            check(first);
            if (first > 0)
                check(first - 1);
        }
        check(kDrawEnd - 1);

        Rng r(static_cast<std::uint64_t>(mean * 1000));
        for (int i = 0; i < 1'000'000; ++i)
            check(r.next() >> 11);

        // draw() consumes one Rng step, exactly as nextGeometric does.
        Rng a(99), b(99);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(table.draw(a), b.nextGeometric(mean));
        EXPECT_EQ(a.state(), b.state());
    }
}

TEST(BernoulliCut, MatchesNextBoolAtTheBoundary)
{
    const double ps[] = {0.0, 0x1.0p-60, 0.3, 0.5, 1.0 - 0x1.0p-53,
                         1.0, 1.5, -0.5,
                         std::numeric_limits<double>::quiet_NaN()};
    for (const double p : ps) {
        SCOPED_TRACE(p);
        const BernoulliCut cut(p);
        std::vector<std::uint64_t> xs = {0, 1, 2, kDrawEnd - 2, kDrawEnd - 1};
        for (std::uint64_t d = 0; d < 3; ++d) {
            if (cut.cut() >= d + 1)
                xs.push_back(cut.cut() - d - 1);
            if (cut.cut() + d < kDrawEnd)
                xs.push_back(cut.cut() + d);
        }
        for (const std::uint64_t x : xs)
            ASSERT_EQ(cut.test(x), static_cast<double>(x) * 0x1.0p-53 < p)
                << "x " << x;

        Rng a(5), b(5);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(cut.draw(a), b.nextBool(p));
        EXPECT_EQ(a.state(), b.state());
    }
}

TEST(BoundedDraw, MatchesNextBounded)
{
    // Powers of two take the mask; the others keep the rejection loop,
    // which 2^63 + 1 exercises about half the time.
    for (const std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
          std::uint64_t{7}, std::uint64_t{8}, std::uint64_t{1000},
          (std::uint64_t{1} << 32) + 1, (std::uint64_t{1} << 63) + 1}) {
        SCOPED_TRACE(bound);
        const BoundedDraw draw(bound);
        Rng a(21), b(21);
        for (int i = 0; i < 10000; ++i)
            ASSERT_EQ(draw.draw(a), b.nextBounded(bound));
        EXPECT_EQ(a.state(), b.state());
    }
}

TEST(StatDump, SetGetHas)
{
    StatDump d;
    d.set("ipc", 0.25);
    EXPECT_TRUE(d.has("ipc"));
    EXPECT_FALSE(d.has("watts"));
    EXPECT_DOUBLE_EQ(d.get("ipc"), 0.25);
    EXPECT_NE(d.toString().find("ipc"), std::string::npos);
}

} // namespace
} // namespace tcoram
