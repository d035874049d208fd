/**
 * @file
 * Functional-datapath tests: served payloads against a plain block
 * model, saveState digests pinned byte for byte (mixed load and
 * background eviction), the 2·(H+1) crypto-call budget across
 * recursion depths, the phase-split label helpers (load64le/
 * store64le), the fused FlatPositionMap::update, the stash/tree
 * invariant after load, and the allocation-free steady state of the
 * recursive access (counting global new/delete).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/bitutils.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "crypto/sha256.hh"
#include "oram/path_oram.hh"
#include "oram/position_map.hh"

// ---------------------------------------------------------------------
// Counting allocator hook (same pattern as test_pipeline.cc): every
// global new/delete in this binary is counted so a test can assert a
// code region performs zero heap allocations.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocCount{0};
} // namespace

static std::uint64_t
allocationCount()
{
    return g_allocCount.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return ::operator new(n, al);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tcoram {
namespace {

oram::OramConfig
recursiveConfig(unsigned levels, std::uint64_t blocks = 128)
{
    oram::OramConfig c;
    c.numBlocks = blocks;
    c.recursionLevels = levels;
    c.stashCapacity = 400;
    return c;
}

/** Drive @p o through a deterministic mixed workload (writes, reads,
 *  dummies), checking every served payload against a plain block
 *  model. */
void
driveMixed(oram::RecursivePathOram &o, const oram::OramConfig &c,
           BlockId blocks, int rounds)
{
    std::vector<std::vector<std::uint8_t>> model(blocks);
    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes);
    auto fill = [&](std::uint8_t tag) {
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(tag * 131 + i);
    };
    std::uint64_t mismatches = 0;
    for (BlockId id = 0; id < blocks; ++id) {
        fill(static_cast<std::uint8_t>(id));
        o.accessInto(id, oram::Op::Write, data, out);
        model[id] = data;
    }
    Rng rng(2026);
    for (int round = 0; round < rounds; ++round) {
        const BlockId id = rng.nextBounded(blocks);
        if (rng.nextBool(0.4)) {
            fill(static_cast<std::uint8_t>(rng.next()));
            o.accessInto(id, oram::Op::Write, data, out);
            model[id] = data;
        } else if (rng.nextBool(0.1)) {
            o.dummyAccess();
            continue;
        } else {
            o.accessInto(id, oram::Op::Read, {}, out);
        }
        mismatches += out != model[id];
    }
    EXPECT_EQ(mismatches, 0u) << "served payloads diverged from the model";
}

/** SHA-256 of the full serialized state (every tree's DRAM image,
 *  nonces, PRF counters, stash, and the innermost flat map). */
std::string
stateDigest(const oram::RecursivePathOram &o)
{
    ByteWriter w;
    o.saveState(w);
    return crypto::toHex(crypto::Sha256::hash(w.data()));
}

// ---------------------------------------------------------------------
// Byte-identity pins: the serialized state after a fixed mixed
// workload is a pure function of (geometry, seed, access sequence).
// These digests were recorded before the functional datapath was
// collapsed to one structure; any change to the PRF draw order, the
// bucket encoding or the write-back keying moves them.
// ---------------------------------------------------------------------

TEST(FusedDatapath, SaveStateMatchesPinnedDigest)
{
    const std::pair<unsigned, const char *> pinned[] = {
        {0u, "9210ad1b36a672c9eed7f1dad51f38e870ca6301640f17cdcc588c594207067e"},
        {2u, "6732a1ca76d1181fbe1b8adad62f8722a41d6aa9c05d7b65fb1c87ae52ee2b24"},
    };
    for (const auto &[levels, digest] : pinned) {
        const oram::OramConfig c = recursiveConfig(levels);
        oram::RecursivePathOram o(c, 909);
        driveMixed(o, c, 48, 1500);
        EXPECT_EQ(stateDigest(o), digest) << "levels=" << levels;
    }
}

TEST(FusedDatapath, BackgroundEvictionMatchesPinnedDigest)
{
    const oram::OramConfig c = recursiveConfig(2);
    oram::RecursivePathOram o(c, 909);
    driveMixed(o, c, 48, 1500);
    for (std::uint64_t g = 0; g < 64; ++g)
        o.backgroundEvict(g);
    EXPECT_EQ(o.evictionCount(), 64u * o.treeCount());
    EXPECT_EQ(stateDigest(o),
              "69342415a4457ca8612fa039f0a9528338d759e8f4312da2ad2f381cf6ddaf42");
}

// ---------------------------------------------------------------------
// The 2·(H+1) crypto budget, pinned across recursion depths: every
// logical access (real or dummy, first-touch or steady-state) costs
// one whole-path read decrypt plus one whole-path write-back encrypt
// per tree.
// ---------------------------------------------------------------------

TEST(FusedDatapath, CryptoCallsPerAccessIsTwoPerTree)
{
    for (unsigned levels : {0u, 1u, 2u, 3u}) {
        const oram::OramConfig c = recursiveConfig(levels, 256);
        oram::RecursivePathOram o(c, 31 + levels);
        const std::uint64_t per_access = 2 * o.treeCount();

        std::vector<std::uint8_t> out(c.blockBytes);
        std::vector<std::uint8_t> data(c.blockBytes, 0x5a);
        std::uint64_t before = o.cryptoCalls();
        for (int i = 0; i < 64; ++i)
            o.accessInto(static_cast<BlockId>(i % 96),
                         i % 2 == 0 ? oram::Op::Write : oram::Op::Read,
                         i % 2 == 0 ? std::span<const std::uint8_t>(data)
                                    : std::span<const std::uint8_t>{},
                         out);
        EXPECT_EQ(o.cryptoCalls() - before, 64u * per_access)
            << "levels=" << levels;

        before = o.cryptoCalls();
        for (int i = 0; i < 32; ++i)
            o.dummyAccess();
        EXPECT_EQ(o.cryptoCalls() - before, 32u * per_access)
            << "levels=" << levels << " (dummy)";
    }
}

TEST(FusedDatapath, InvariantHoldsAfterMixedLoad)
{
    const oram::OramConfig c = recursiveConfig(2);
    oram::RecursivePathOram o(c, 77);
    driveMixed(o, c, 48, 2000);
    std::vector<BlockId> ids(48);
    for (BlockId i = 0; i < 48; ++i)
        ids[i] = i;
    // checkInvariant consults the recursive position map (Stage::get,
    // a full path access per stage) between direct bucket unseals.
    EXPECT_TRUE(o.dataOram().checkInvariant(ids));
    EXPECT_TRUE(o.dataOram().checkInvariant(ids)) << "re-entrant";
}

// ---------------------------------------------------------------------
// Satellite units: the fused position-map update and the label
// (de)serialization helpers.
// ---------------------------------------------------------------------

TEST(FlatPositionMap, UpdateSwapsInOneTouch)
{
    oram::FlatPositionMap m(8);
    m.set(3, 41);
    EXPECT_EQ(m.update(3, 99), 41u);
    EXPECT_EQ(m.get(3), 99u);
    // Must agree with the get+set decomposition.
    oram::FlatPositionMap ref(8);
    ref.set(3, 41);
    const Leaf old = ref.get(3);
    ref.set(3, 99);
    EXPECT_EQ(old, 41u);
    EXPECT_EQ(ref.get(3), m.get(3));
}

TEST(BitUtils, Load64Store64RoundTrip)
{
    std::uint8_t buf[16] = {};
    const std::uint64_t v = 0x0123456789abcdefULL;
    store64le(buf + 3, v);
    EXPECT_EQ(load64le(buf + 3), v);
    // Little-endian byte layout is part of the on-disk/in-tree label
    // format (Stage blocks), not just a round-trip property.
    EXPECT_EQ(buf[3], 0xefu);
    EXPECT_EQ(buf[10], 0x01u);
    EXPECT_EQ(buf[0], 0x00u);
    EXPECT_EQ(buf[11], 0x00u);
}

// ---------------------------------------------------------------------
// Allocation-free steady state: once warm, the fused recursive access
// performs zero heap allocations per access.
// ---------------------------------------------------------------------

TEST(AllocationFree, FusedRecursiveSteadyStateAccess)
{
    const oram::OramConfig c = recursiveConfig(2, 256);
    oram::RecursivePathOram o(c, 55);

    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0xa5);
    Rng rng(9);
    for (int i = 0; i < 400; ++i) {
        const BlockId id = rng.nextBounded(96);
        if (i % 2 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
        if (i % 7 == 0)
            o.dummyAccess();
    }

    const std::uint64_t before = allocationCount();
    for (int i = 0; i < 500; ++i) {
        const BlockId id = rng.nextBounded(96);
        if (i % 3 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
        if (i % 11 == 0)
            o.dummyAccess();
    }
    EXPECT_EQ(allocationCount() - before, 0u)
        << "fused recursive access allocated in steady state";
}

} // namespace
} // namespace tcoram
