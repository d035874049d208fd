/**
 * @file
 * Unit tests for the common substrate: bit utilities, RNG, the stat
 * registry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

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
