/**
 * @file
 * Path ORAM tests: geometry arithmetic, bucket serialization and
 * sealing, stash behaviour, functional read/write correctness, the
 * tree-path invariant, recursion, ciphertext freshness, and the
 * timing device's calibration.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/bitutils.hh"
#include "common/rng.hh"
#include "common/serial.hh"
#include "crypto/sha256.hh"
#include "dram/dram_model.hh"
#include "oram/oram_config.hh"
#include "oram/integrity.hh"
#include "oram/oram_device.hh"
#include "oram/path_oram.hh"

namespace tcoram::oram {
namespace {

OramConfig
tinyConfig(std::uint64_t blocks = 256)
{
    OramConfig c;
    c.numBlocks = blocks;
    c.recursionLevels = 0;
    c.stashCapacity = 400;
    return c;
}

std::vector<std::uint8_t>
pattern(std::uint64_t tag, std::size_t n = 64)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(tag * 131 + i);
    return v;
}

TEST(OramConfig, GeometryArithmetic)
{
    OramConfig c = tinyConfig(256);
    // 256 blocks / Z=3 -> 86 leaves -> round to 128 -> depth 7.
    EXPECT_EQ(c.treeDepth(), 7u);
    EXPECT_EQ(c.numLeaves(), 128u);
    EXPECT_EQ(c.numBuckets(), 255u);
    EXPECT_EQ(c.bucketBytes(), 3u * 80u);
    EXPECT_EQ(c.pathBytes(), 8u * 240u);
}

TEST(OramConfig, PaperScaleTraffic)
{
    // The 4 GB paper configuration should move roughly 24.2 KB per
    // access (path read + write across data + recursive ORAMs).
    const OramConfig c = OramConfig::paperConfig();
    const double kb =
        static_cast<double>(c.totalBytesPerAccess()) / 1024.0;
    EXPECT_GT(kb, 18.0);
    EXPECT_LT(kb, 32.0);
}

TEST(OramConfig, RecursionChainShrinks)
{
    OramConfig c = OramConfig::paperConfig();
    const auto chain = c.recursionChain();
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_LT(chain[0].numBlocks, c.numBlocks);
    EXPECT_LT(chain[1].numBlocks, chain[0].numBlocks);
    EXPECT_LT(chain[2].numBlocks, chain[1].numBlocks);
    for (const auto &r : chain)
        EXPECT_EQ(r.blockBytes, 32u);
}

TEST(Bucket, InsertAndOccupancy)
{
    Bucket b(3, 64);
    EXPECT_EQ(b.occupancy(), 0u);
    BlockSlot s;
    s.id = 7;
    s.leaf = 3;
    s.payload = pattern(7);
    EXPECT_TRUE(b.insert(s));
    EXPECT_EQ(b.occupancy(), 1u);
    s.id = 8;
    EXPECT_TRUE(b.insert(s));
    s.id = 9;
    EXPECT_TRUE(b.insert(s));
    EXPECT_TRUE(b.full());
    s.id = 10;
    EXPECT_FALSE(b.insert(s));
}

TEST(Bucket, SerializeRoundTrip)
{
    Bucket b(3, 64);
    BlockSlot s;
    s.id = 42;
    s.leaf = 13;
    s.payload = pattern(42);
    b.insert(s);
    const Bucket r = Bucket::deserialize(b.serialize(), 3, 64);
    EXPECT_EQ(r.occupancy(), 1u);
    EXPECT_EQ(r.slots()[0].id, 42u);
    EXPECT_EQ(r.slots()[0].leaf, 13u);
    EXPECT_EQ(r.slots()[0].payload, pattern(42));
}

TEST(Bucket, SealUnsealRoundTrip)
{
    crypto::CtrCipher cipher(crypto::keyFromSeed(5));
    Bucket b(3, 64);
    BlockSlot s;
    s.id = 1;
    s.leaf = 2;
    s.payload = pattern(1);
    b.insert(s);
    const auto ct = b.seal(cipher, 99);
    const Bucket r = Bucket::unseal(ct, cipher, 3, 64);
    EXPECT_EQ(r.slots()[0].id, 1u);
    EXPECT_EQ(r.slots()[0].payload, pattern(1));
}

TEST(Bucket, SealIsProbabilistic)
{
    crypto::CtrCipher cipher(crypto::keyFromSeed(6));
    Bucket b(3, 64);
    EXPECT_FALSE(b.seal(cipher, 1) == b.seal(cipher, 2));
}

TEST(Stash, PutFindTake)
{
    Stash st(10);
    BlockSlot s;
    s.id = 5;
    s.leaf = 1;
    s.payload = pattern(5);
    st.put(s.id, s.leaf, s.payload);
    EXPECT_TRUE(st.contains(5));
    EXPECT_NE(st.find(5), nullptr);
    const BlockSlot t = st.take(5);
    EXPECT_EQ(t.payload, pattern(5));
    EXPECT_FALSE(st.contains(5));
}

TEST(Stash, PutReplacesSameId)
{
    Stash st(10);
    BlockSlot s;
    s.id = 5;
    s.leaf = 1;
    s.payload = pattern(5);
    st.put(s.id, s.leaf, s.payload);
    s.payload = pattern(6);
    st.put(s.id, s.leaf, s.payload);
    EXPECT_EQ(st.size(), 1u);
    EXPECT_EQ(st.find(5)->payload, pattern(6));
}

TEST(Stash, HighWaterTracks)
{
    Stash st(10);
    for (BlockId i = 0; i < 5; ++i) {
        BlockSlot s;
        s.id = i;
        s.leaf = 0;
        s.payload = pattern(i);
        st.put(s.id, s.leaf, s.payload);
    }
    st.take(0);
    st.take(1);
    EXPECT_EQ(st.highWater(), 5u);
    EXPECT_EQ(st.size(), 3u);
}

/** Reference heap walk: from the root, step to child 2i+1+bit for
 *  each leaf bit below it, most significant first. */
std::uint64_t
bitWalkIndex(Leaf leaf, unsigned level, unsigned depth)
{
    std::uint64_t idx = 0;
    for (unsigned l = 0; l < level; ++l)
        idx = 2 * idx + 1 + ((leaf >> (depth - 1 - l)) & 1);
    return idx;
}

TEST(PathOram, BucketIndexOnPathIsHeapWalk)
{
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 1);
    // Root is always bucket 0.
    EXPECT_EQ(oram.bucketIndexOnPath(0, 0), 0u);
    EXPECT_EQ(oram.bucketIndexOnPath(c.numLeaves() - 1, 0), 0u);
    // Leaf 0 descends the left spine.
    EXPECT_EQ(oram.bucketIndexOnPath(0, 1), 1u);
    EXPECT_EQ(oram.bucketIndexOnPath(0, 2), 3u);
    // Max leaf descends the right spine.
    EXPECT_EQ(oram.bucketIndexOnPath(c.numLeaves() - 1, 1), 2u);
    EXPECT_EQ(oram.bucketIndexOnPath(c.numLeaves() - 1, 2), 6u);

    // The closed form against the bit walk for every (leaf, level) of
    // real trees of depth 0..12, and the integrity tree's path too.
    for (unsigned depth = 0; depth <= 12; ++depth) {
        OramConfig d = tinyConfig(std::uint64_t{3} << depth);
        d.z = 3;
        d.blockBytes = 8;
        ASSERT_EQ(d.treeDepth(), depth);
        FlatPositionMap m(d.numBlocks);
        PathOram o(d, m, 2);
        ASSERT_EQ(o.depth(), depth);
        ASSERT_EQ(o.numLeaves(), d.numLeaves());
        IntegrityVerifier verifier(o);
        for (Leaf leaf = 0; leaf < o.numLeaves(); ++leaf) {
            const std::vector<std::uint64_t> path =
                verifier.pathIndices(leaf);
            ASSERT_EQ(path.size(), depth + 1u);
            for (unsigned level = 0; level <= depth; ++level) {
                const std::uint64_t want = bitWalkIndex(leaf, level, depth);
                ASSERT_EQ(o.bucketIndexOnPath(leaf, level), want)
                    << "depth " << depth << " leaf " << leaf << " level "
                    << level;
                ASSERT_EQ(path[level], want);
            }
        }
    }

    // Deep trees (too large to build) through the same closed form,
    // on sampled leaves including both spines.
    Rng rng(20);
    for (const unsigned depth : {20u, 24u, 31u, 32u, 40u, 48u, 63u}) {
        const Leaf max_leaf = (Leaf{1} << depth) - 1;
        for (int k = 0; k < 200; ++k) {
            const Leaf leaf = k == 0   ? 0
                              : k == 1 ? max_leaf
                                       : rng.next() & max_leaf;
            for (unsigned level = 0; level <= depth; ++level)
                ASSERT_EQ(PathOram::heapIndexOnPath(leaf, level, depth),
                          bitWalkIndex(leaf, level, depth))
                    << "depth " << depth << " leaf " << leaf << " level "
                    << level;
        }
    }
}

TEST(PathOram, WriteThenReadBack)
{
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 2);
    oram.access(3, Op::Write, pattern(3));
    EXPECT_EQ(oram.access(3, Op::Read), pattern(3));
}

TEST(PathOram, ManyBlocksSurviveChurn)
{
    OramConfig c = tinyConfig(128);
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 3);
    for (BlockId id = 0; id < 64; ++id)
        oram.access(id, Op::Write, pattern(id));
    // Churn with interleaved reads/writes.
    Rng rng(17);
    for (int round = 0; round < 500; ++round) {
        const BlockId id = rng.nextBounded(64);
        if (rng.nextBool(0.3))
            oram.access(id, Op::Write, pattern(id));
        else
            EXPECT_EQ(oram.access(id, Op::Read), pattern(id))
                << "block " << id << " round " << round;
    }
}

TEST(PathOram, InvariantHoldsAfterChurn)
{
    OramConfig c = tinyConfig(128);
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 4);
    std::vector<BlockId> touched;
    for (BlockId id = 0; id < 40; ++id) {
        oram.access(id, Op::Write, pattern(id));
        touched.push_back(id);
    }
    Rng rng(23);
    for (int i = 0; i < 200; ++i)
        oram.access(rng.nextBounded(40), Op::Read);
    EXPECT_TRUE(oram.checkInvariant(touched));
}

TEST(PathOram, UntouchedBlockReadsZero)
{
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 5);
    const auto v = oram.access(9, Op::Read);
    EXPECT_EQ(v, std::vector<std::uint8_t>(64, 0));
}

TEST(PathOram, AccessRewritesRootCiphertext)
{
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 6);
    // An owning copy: the view aliases the image the access rewrites.
    const auto before =
        crypto::Ciphertext::copyOf(oram.bucketCiphertext(0));
    oram.access(0, Op::Read);
    EXPECT_FALSE(before == oram.bucketCiphertext(0));
}

TEST(PathOram, DummyAccessAlsoRewritesRoot)
{
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 7);
    // An owning copy: the view aliases the image the access rewrites.
    const auto before =
        crypto::Ciphertext::copyOf(oram.bucketCiphertext(0));
    oram.dummyAccess();
    EXPECT_FALSE(before == oram.bucketCiphertext(0));
}

/** Owning snapshot of every bucket ciphertext of @p oram's image. */
std::vector<crypto::Ciphertext>
imageSnapshot(const PathOram &oram)
{
    std::vector<crypto::Ciphertext> image;
    for (std::uint64_t i = 0; i < oram.config().numBuckets(); ++i)
        image.push_back(crypto::Ciphertext::copyOf(oram.bucketCiphertext(i)));
    return image;
}

/** A leaf whose path passes through bucket @p index (heap-numbered). */
Leaf
leafThrough(const PathOram &oram, std::uint64_t index)
{
    unsigned level = 0;
    while ((std::uint64_t{2} << level) - 1 <= index)
        ++level;
    const std::uint64_t pos = index - ((std::uint64_t{1} << level) - 1);
    return pos << (oram.depth() - level);
}

TEST(PathOram, TamperStaysInsideItsBucket)
{
    // Every bucket shares one contiguous image, so an indexing
    // off-by-one would corrupt a neighbour. Flipping the first and the
    // last byte of bucket i must change bucket i's bytes only — at
    // exactly those two offsets — and leave every other bucket's nonce
    // and bytes equal to a snapshot; a tag store latched over the image
    // must then see exactly one bad bucket.
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 11);
    for (BlockId id = 0; id < 40; ++id)
        oram.access(id, Op::Write, pattern(id));
    const std::uint64_t buckets = c.numBuckets();
    const std::uint64_t sb = oram.bucketCiphertext(0).data.size();
    ASSERT_GT(sb, 1u);

    BucketAuthenticator auth(0x15, buckets);
    for (std::uint64_t i = 0; i < buckets; ++i)
        auth.commit(i, oram.bucketCiphertext(i));

    for (const std::uint64_t victim :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          buckets / 2, buckets - 2, buckets - 1}) {
        const auto before = imageSnapshot(oram);
        oram.tamperCiphertext(victim, 0);
        oram.tamperCiphertext(victim, sb - 1);
        for (std::uint64_t i = 0; i < buckets; ++i) {
            const crypto::CiphertextView now = oram.bucketCiphertext(i);
            if (i != victim) {
                ASSERT_TRUE(now == before[i])
                    << "bucket " << i << " changed by tampering " << victim;
                continue;
            }
            ASSERT_EQ(now.nonce, before[i].nonce);
            for (std::uint64_t b = 0; b < sb; ++b) {
                const std::uint8_t flip = (b == 0 || b == sb - 1) ? 1 : 0;
                ASSERT_EQ(now.data[b], before[i].data[b] ^ flip)
                    << "bucket " << i << " byte " << b;
            }
        }
        std::uint64_t detections = 0;
        for (std::uint64_t i = 0; i < buckets; ++i) {
            if (!auth.verify(i, oram.bucketCiphertext(i))) {
                ++detections;
                EXPECT_EQ(i, victim);
            }
        }
        EXPECT_EQ(detections, 1u) << "victim " << victim;
        // A flip is its own inverse: restore for the next victim.
        oram.tamperCiphertext(victim, 0);
        oram.tamperCiphertext(victim, sb - 1);
        ASSERT_TRUE(imageSnapshot(oram) == before);
    }
}

TEST(PathOram, VerifiedReadFlagsTheVictimNotItsArenaNeighbours)
{
    // With integrity on and a one-retry budget, a tampered bucket's
    // arena neighbours (i - 1 and i + 1, on other paths) still verify:
    // reading their paths reports no detection. Reading the victim's
    // own path fails verification on the read and on its one retry
    // (the DRAM copy stays tampered) and dies naming the victim bucket
    // as the one that failed.
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 12);
    oram.enableIntegrity(0x77, 1);
    for (BlockId id = 0; id < 40; ++id)
        oram.access(id, Op::Write, pattern(id));
    ASSERT_EQ(oram.faultsDetected(), 0u);

    const std::uint64_t victim = c.numBuckets() / 2;
    oram.tamperCiphertext(victim, 0);
    for (const std::uint64_t neighbour : {victim - 1, victim + 1}) {
        oram.evictPath(leafThrough(oram, neighbour));
        EXPECT_EQ(oram.lastFaultsDetected(), 0u) << "neighbour " << neighbour;
    }
    EXPECT_EQ(oram.faultsDetected(), 0u);
    EXPECT_DEATH(oram.evictPath(leafThrough(oram, victim)),
                 "integrity violation on bucket " + std::to_string(victim) +
                     " .*persists after 1 retries");
}

/** SHA-256 over every bucket's nonce and ciphertext, in index order. */
std::string
imageDigest(const PathOram &oram)
{
    crypto::Sha256 h;
    for (std::uint64_t i = 0; i < oram.config().numBuckets(); ++i) {
        const crypto::CiphertextView ct = oram.bucketCiphertext(i);
        std::uint8_t nonce[8];
        store64le(nonce, ct.nonce);
        h.update(nonce, sizeof(nonce));
        h.update(ct.data.data(), ct.data.size());
    }
    return crypto::toHex(h.finish());
}

/** SHA-256 of @p oram's serialized checkpoint. */
template <class Oram>
std::string
saveDigest(const Oram &oram)
{
    ByteWriter w;
    oram.saveState(w);
    return crypto::toHex(crypto::Sha256::hash(w.data()));
}

TEST(PathOram, LazyImageMatchesTheEagerImage)
{
    // A tree whose buckets are encrypted on first use must expose the
    // same bytes as one encrypted in full at construction. The digests
    // were recorded on the eager build: (a) every bucket of a fresh
    // tree, (b) the checkpoint of a fresh tree and of one where ~300
    // mixed accesses left most deep buckets unwritten. Then (c) the
    // root probe still sees the first access, and (d) a never-written
    // bucket is tagged by enableIntegrity, so tampering with it is
    // caught by the verified read.
    const OramConfig flat = tinyConfig(1024);
    OramConfig rec = flat;
    rec.recursionLevels = 2;

    auto drive = [](auto &oram, std::uint64_t blocks) {
        Rng rng(0x1a2e);
        for (int i = 0; i < 300; ++i) {
            const BlockId id = rng.next() % blocks;
            switch (rng.next() % 3) {
            case 0:
                oram.access(id, Op::Write, pattern(id));
                break;
            case 1:
                oram.access(id, Op::Read);
                break;
            default:
                oram.dummyAccess();
            }
        }
    };

    // Checkpoints first: reading every bucket through bucketCiphertext
    // would fill the whole image, so the image digests come from a
    // second, identically seeded instance.
    {
        FlatPositionMap map(flat.numBlocks);
        PathOram oram(flat, map, 0x5e1);
        EXPECT_EQ(saveDigest(oram),
                  "5be59f1239d9874816a64b2d815c0a79963cb8f2ade5c6f6a26e785791091b1b")
            << "fresh flat checkpoint";
        drive(oram, flat.numBlocks);
        EXPECT_EQ(saveDigest(oram),
                  "674031219a87c46ba63f757ec2e31aa8a7f6465b4561ebc3aa63bfbc876331cb")
            << "driven flat checkpoint";

        FlatPositionMap map2(flat.numBlocks);
        const PathOram fresh(flat, map2, 0x5e1);
        EXPECT_EQ(imageDigest(fresh),
                  "8e89a3cb2e618cbe2e61b77484b786d7154792441a1567b48c4fb800629caaf8")
            << "fresh flat image";
    }
    {
        RecursivePathOram oram(rec, 0x5e2);
        EXPECT_EQ(saveDigest(oram),
                  "cbea657ceb4f35f9d38ceb3ebbfafe8c2cf5030153e1b2bcc204514c1cd40647")
            << "fresh recursive checkpoint";
        drive(oram, rec.numBlocks);
        EXPECT_EQ(saveDigest(oram),
                  "88f96933a42a952794e89841c245ffe7a8102c45cc37614887ef367de9ddd16a")
            << "driven recursive checkpoint";

        const RecursivePathOram fresh(rec, 0x5e2);
        ASSERT_EQ(fresh.treeCount(), 3u);
        const char *images[] = {
            "7a83a071095d96941f33e335116afe44bfd9826460dfc3b854bca3c87c6743b6",
            "84a946cd58383213e3922ed5ae75338c5b64f51ae084e495342cd4afa6194628",
            "33d26d267040d4c3c5017ef9321e4d5cd0ef98783ca79411dc5d9913f393f59a",
        };
        for (std::size_t t = 0; t < fresh.treeCount(); ++t)
            EXPECT_EQ(imageDigest(fresh.tree(t)), images[t]) << "tree " << t;
    }

    // (c) The §3.2 probe: the root read before any access differs from
    // the root after the first.
    FlatPositionMap map(flat.numBlocks);
    PathOram oram(flat, map, 0x5e3);
    const auto root = crypto::Ciphertext::copyOf(oram.bucketCiphertext(0));
    oram.access(3, Op::Write, pattern(3));
    EXPECT_FALSE(root == oram.bucketCiphertext(0));

    // (d) Partly write the tree, enable integrity, then tamper with a
    // leaf bucket no access has written.
    std::set<Leaf> written{oram.lastAccessedLeaf()};
    for (BlockId id = 0; id < 40; ++id) {
        oram.access(id, Op::Write, pattern(id));
        written.insert(oram.lastAccessedLeaf());
    }
    Leaf cold = 0;
    while (written.count(cold) != 0)
        ++cold;
    ASSERT_LT(cold, oram.numLeaves());
    oram.enableIntegrity(0x99, 1);
    const std::uint64_t victim = oram.bucketIndexOnPath(cold, oram.depth());
    oram.tamperCiphertext(victim, 7);
    EXPECT_DEATH(oram.evictPath(cold),
                 "integrity violation on bucket " + std::to_string(victim) +
                     " .*persists after 1 retries");
}

TEST(PathOram, TraceTouchesFullPathTwice)
{
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 8);
    oram.access(0, Op::Read);
    const AccessTrace &t = oram.lastTrace();
    EXPECT_EQ(t.reads.size(), c.treeDepth() + 1);
    EXPECT_EQ(t.writes.size(), c.treeDepth() + 1);
    EXPECT_EQ(t.totalBytes(), 2 * c.pathBytes());
}

TEST(PathOram, RemapChangesLeafDistribution)
{
    OramConfig c = tinyConfig();
    FlatPositionMap map(c.numBlocks);
    PathOram oram(c, map, 9);
    oram.access(0, Op::Write, pattern(0));
    std::set<Leaf> leaves;
    for (int i = 0; i < 50; ++i) {
        oram.access(0, Op::Read);
        leaves.insert(map.get(0));
    }
    // 50 remaps over 128 leaves: expect many distinct values.
    EXPECT_GT(leaves.size(), 20u);
}

TEST(RecursivePathOram, FunctionalRoundTrip)
{
    OramConfig c;
    c.numBlocks = 128;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    RecursivePathOram oram(c, 11);
    for (BlockId id = 0; id < 32; ++id)
        oram.access(id, Op::Write, pattern(id));
    for (BlockId id = 0; id < 32; ++id)
        EXPECT_EQ(oram.access(id, Op::Read), pattern(id)) << id;
}

TEST(RecursivePathOram, TreeCountMatchesConfig)
{
    OramConfig c;
    c.numBlocks = 4096;
    c.recursionLevels = 3;
    c.stashCapacity = 400;
    RecursivePathOram oram(c, 12);
    EXPECT_EQ(oram.treeCount(), 1 + c.recursionChain().size());
    EXPECT_GE(oram.treeCount(), 2u);
}

TEST(TimingOramDevice, CalibratedLatencyScalesWithDepth)
{
    Rng rng(1);
    dram::DramModel mem_small(dram::DramConfig{});
    dram::DramModel mem_big(dram::DramConfig{});
    OramConfig small = tinyConfig(1 << 10);
    OramConfig big = tinyConfig(1 << 16);
    TimingOramDevice c_small(small, mem_small, rng);
    TimingOramDevice c_big(big, mem_big, rng);
    EXPECT_GT(c_big.accessLatency(), c_small.accessLatency());
}

TEST(TimingOramDevice, PaperScaleLatencyNearPaperValue)
{
    // The 4 GB configuration should land in the neighbourhood of the
    // paper's 1488 cycles (we accept a generous band; the shape, not
    // the point value, is what downstream results rely on).
    Rng rng(2);
    dram::DramModel mem(dram::DramConfig{});
    TimingOramDevice dev(OramConfig::paperConfig(), mem, rng);
    EXPECT_GT(dev.accessLatency(), 700u);
    EXPECT_LT(dev.accessLatency(), 3200u);
}

TEST(TimingOramDevice, SerializesAccesses)
{
    Rng rng(3);
    dram::DramModel mem(dram::DramConfig{});
    TimingOramDevice dev(tinyConfig(1 << 12), mem, rng);
    const Cycles t1 = dev.submit(0, timing::OramTransaction::real(0)).done;
    const Cycles t2 = dev.submit(0, timing::OramTransaction::real(0)).done;
    EXPECT_EQ(t2 - t1, dev.accessLatency());
    EXPECT_EQ(dev.realAccesses(), 2u);
}

TEST(TimingOramDevice, DummySameCostAsReal)
{
    Rng rng(4);
    dram::DramModel mem(dram::DramConfig{});
    TimingOramDevice dev(tinyConfig(1 << 12), mem, rng);
    const Cycles r =
        dev.submit(10000, timing::OramTransaction::real(0)).done - 10000;
    const Cycles start = dev.busyUntil() + 5000;
    const Cycles d =
        dev.submit(start, timing::OramTransaction::dummy()).done - start;
    EXPECT_EQ(r, d);
    EXPECT_EQ(dev.dummyAccesses(), 1u);
}

TEST(TimingOramDevice, SyncModeOccupancyEqualsLatency)
{
    Rng rng(5);
    dram::DramModel mem(dram::DramConfig{});
    TimingOramDevice dev(tinyConfig(1 << 12), mem, rng, PathMode::Sync);
    EXPECT_EQ(dev.pathMode(), PathMode::Sync);
    EXPECT_EQ(dev.occupancyPerAccess(), dev.accessLatency());
}

TEST(TimingOramDevice, PipelinedShrinksOlatBelowSync)
{
    // Same geometry, same calibration seed: the split-transaction
    // controller returns the requested line once the path read
    // completes, with the write-back tail overlapped — OLAT must drop
    // well below the blocking controller's, while the full path
    // occupancy stays between the read phase and the sync total (the
    // pipeline moves the same bytes; it removes the phase barrier).
    const OramConfig cfg = tinyConfig(1 << 14);
    dram::DramModel mem_s(dram::DramConfig{});
    dram::DramModel mem_p(dram::DramConfig{});
    Rng rng_s(6), rng_p(6);
    TimingOramDevice sync(cfg, mem_s, rng_s, PathMode::Sync);
    TimingOramDevice pipe(cfg, mem_p, rng_p, PathMode::Pipelined);

    EXPECT_LT(pipe.accessLatency(), sync.accessLatency());
    EXPECT_GE(pipe.occupancyPerAccess(), pipe.accessLatency());
    EXPECT_LE(pipe.occupancyPerAccess(), sync.accessLatency());
    // Cost attribution is geometry-derived, not schedule-derived.
    EXPECT_EQ(pipe.bytesPerAccess(), sync.bytesPerAccess());
    EXPECT_EQ(pipe.cryptoCallsPerAccess(), sync.cryptoCallsPerAccess());
    // Both calibrations consumed identical RNG draws.
    EXPECT_EQ(rng_s.next(), rng_p.next());
}

TEST(TimingOramDevice, PipelinedServeGatesOnOccupancy)
{
    Rng rng(7);
    dram::DramModel mem(dram::DramConfig{});
    TimingOramDevice dev(tinyConfig(1 << 12), mem, rng, PathMode::Pipelined);
    const Cycles lat = dev.accessLatency();
    const Cycles occ = dev.occupancyPerAccess();
    ASSERT_GT(occ, lat) << "pipelined mode must have a write-back tail";

    // First access: line available after OLAT, path busy through occ.
    const Cycles t1 = dev.submit(0, timing::OramTransaction::real(0)).done;
    EXPECT_EQ(t1, lat);
    EXPECT_EQ(dev.busyUntil(), occ);

    // A back-to-back access waits for the tail, not just the line.
    const Cycles t2 = dev.submit(t1, timing::OramTransaction::real(0)).done;
    EXPECT_EQ(t2, occ + lat);
    EXPECT_EQ(dev.busyUntil(), 2 * occ);

    // Dummies pay the identical schedule.
    const Cycles t3 = dev.submit(0, timing::OramTransaction::dummy()).done;
    EXPECT_EQ(t3, 2 * occ + lat);
}

} // namespace
} // namespace tcoram::oram
