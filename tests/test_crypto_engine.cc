/**
 * @file
 * Batched crypto engine tests: FIPS-197 known answers across every
 * available backend (scalar / T-table / AES-NI), differential fuzz of
 * the batched CTR against a faithful replay of the seed scalar CTR,
 * the fused ctrXor kernel at its length and nonce edges, segment
 * batching, batched PRF evaluation, the bucket wire-format
 * golden vector that pins ciphertext bit-compatibility across
 * backends, the arena<->stash path codec against its Bucket-based
 * reference, and cross-backend equality of whole ORAM DRAM images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "crypto/crypto_engine.hh"
#include "crypto/ctr.hh"
#include "crypto/prf.hh"
#include "crypto/sha256.hh"
#include "oram/bucket.hh"
#include "oram/bucket_codec.hh"
#include "oram/path_buffer.hh"
#include "oram/path_oram.hh"
#include "oram/stash.hh"

namespace tcoram {
namespace {

using crypto::Block128;
using crypto::CryptoBackend;
using crypto::Key128;

std::vector<CryptoBackend>
availableBackends()
{
    std::vector<CryptoBackend> v = {CryptoBackend::Scalar,
                                    CryptoBackend::TTable};
    if (crypto::aesniAvailable())
        v.push_back(CryptoBackend::AesNi);
    return v;
}

/** The seed (pre-PR) CTR loop: per-block scalar AES, per-byte XOR. */
void
seedCtrReference(const crypto::Aes128 &aes, std::uint64_t nonce,
                 std::span<const std::uint8_t> in,
                 std::span<std::uint8_t> out)
{
    Block128 counter{};
    for (int i = 0; i < 8; ++i)
        counter[i] = static_cast<std::uint8_t>(nonce >> (8 * i));
    std::uint64_t block_index = 0;
    std::size_t off = 0;
    while (off < in.size()) {
        for (int i = 0; i < 8; ++i)
            counter[8 + i] =
                static_cast<std::uint8_t>(block_index >> (8 * i));
        const Block128 ks = aes.encryptBlockScalar(counter);
        const std::size_t n = std::min<std::size_t>(16, in.size() - off);
        for (std::size_t i = 0; i < n; ++i)
            out[off + i] = static_cast<std::uint8_t>(in[off + i] ^ ks[i]);
        off += n;
        ++block_index;
    }
}

TEST(CryptoEngine, Fips197AcrossBackends)
{
    // FIPS-197 Appendix C.1 vector, checked through the batched entry
    // point at sizes that exercise the AES-NI 8-block main loop, the
    // remainder loop, and the single-block path.
    Key128 key{};
    Block128 plain{};
    for (int i = 0; i < 16; ++i) {
        key[i] = static_cast<std::uint8_t>(i);
        plain[i] = static_cast<std::uint8_t>(i * 0x11);
    }
    const Block128 expect = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                             0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
    for (const auto be : availableBackends()) {
        const auto engine = crypto::makeCryptoEngine(key, be);
        for (const std::size_t n : {1u, 7u, 8u, 9u, 64u}) {
            std::vector<Block128> blocks(n, plain);
            engine->encryptBlocks(blocks);
            for (const auto &b : blocks)
                EXPECT_EQ(b, expect) << engine->name() << " n=" << n;
        }
    }
}

TEST(CryptoEngine, BatchedMatchesSingleBlock)
{
    const Key128 key = crypto::keyFromSeed(11);
    Rng rng(3);
    for (const auto be : availableBackends()) {
        const auto engine = crypto::makeCryptoEngine(key, be);
        std::vector<Block128> blocks(37);
        for (auto &b : blocks)
            for (auto &x : b)
                x = static_cast<std::uint8_t>(rng.next());
        std::vector<Block128> expect;
        for (const auto &b : blocks)
            expect.push_back(engine->encryptBlock(b));
        engine->encryptBlocks(blocks);
        EXPECT_EQ(blocks, expect) << engine->name();
    }
}

TEST(CryptoEngine, TTableMatchesScalarRounds)
{
    // Aes128::encryptBlock (T-tables) must equal the byte-wise
    // reference rounds for arbitrary inputs.
    const crypto::Aes128 aes(crypto::keyFromSeed(123));
    Rng rng(9);
    for (int trial = 0; trial < 200; ++trial) {
        Block128 b;
        for (auto &x : b)
            x = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(aes.encryptBlock(b), aes.encryptBlockScalar(b));
    }
}

TEST(CryptoEngine, BackendKnobRoundTrip)
{
    EXPECT_EQ(crypto::parseCryptoBackend("scalar"), CryptoBackend::Scalar);
    EXPECT_EQ(crypto::parseCryptoBackend("ttable"), CryptoBackend::TTable);
    EXPECT_EQ(crypto::parseCryptoBackend("aesni"), CryptoBackend::AesNi);
    EXPECT_EQ(crypto::parseCryptoBackend("auto"), CryptoBackend::Auto);
    EXPECT_STREQ(crypto::backendName(CryptoBackend::TTable), "ttable");

    const Key128 key = crypto::keyFromSeed(5);
    EXPECT_STREQ(
        crypto::makeCryptoEngine(key, CryptoBackend::Scalar)->name(),
        "scalar");
    EXPECT_STREQ(
        crypto::makeCryptoEngine(key, CryptoBackend::TTable)->name(),
        "ttable");
    // Requesting AES-NI always yields a working engine: hardware when
    // available, the T-table fallback otherwise.
    const auto ni = crypto::makeCryptoEngine(key, CryptoBackend::AesNi);
    if (crypto::aesniAvailable())
        EXPECT_STREQ(ni->name(), "aesni");
    else
        EXPECT_STREQ(ni->name(), "ttable");
}

TEST(CryptoEngine, DefaultBackendPinnable)
{
    crypto::setDefaultCryptoBackend(CryptoBackend::Scalar);
    const crypto::CtrCipher pinned(crypto::keyFromSeed(6));
    EXPECT_STREQ(pinned.backendName(), "scalar");
    crypto::setDefaultCryptoBackend(CryptoBackend::Auto);
}

TEST(CtrBatched, DifferentialFuzzVsSeedScalar)
{
    // Random lengths and nonces: the batched CTR of every backend must
    // produce byte-identical output to the seed per-block scalar loop.
    const Key128 key = crypto::keyFromSeed(77);
    const crypto::Aes128 ref_aes(key);
    Rng rng(1234);
    for (const auto be : availableBackends()) {
        const crypto::CtrCipher cipher(key, be);
        for (int trial = 0; trial < 60; ++trial) {
            const std::size_t len = rng.nextBounded(600);
            const std::uint64_t nonce = rng.next();
            std::vector<std::uint8_t> msg(len);
            for (auto &b : msg)
                b = static_cast<std::uint8_t>(rng.next());
            std::vector<std::uint8_t> expect(len), got(len);
            seedCtrReference(ref_aes, nonce, msg, expect);
            cipher.xcrypt(nonce, msg, got);
            ASSERT_EQ(got, expect)
                << cipher.backendName() << " len=" << len;
        }
    }
}

TEST(CtrBatched, InPlaceMatchesOutOfPlace)
{
    for (const auto be : availableBackends()) {
        const crypto::CtrCipher cipher(crypto::keyFromSeed(8), be);
        std::vector<std::uint8_t> msg(213);
        for (std::size_t i = 0; i < msg.size(); ++i)
            msg[i] = static_cast<std::uint8_t>(i * 7);
        std::vector<std::uint8_t> out(msg.size());
        cipher.xcrypt(99, msg, out);
        std::vector<std::uint8_t> inplace = msg;
        cipher.xcrypt(99, inplace, inplace);
        EXPECT_EQ(inplace, out) << cipher.backendName();
    }
}

TEST(CtrBatched, SegmentsMatchPerSegmentCalls)
{
    // One xcryptSegments call over N independently-nonced buffers must
    // equal N separate xcrypt calls — this is the whole-path batching
    // the ORAM read/write paths rely on.
    const Key128 key = crypto::keyFromSeed(21);
    for (const auto be : availableBackends()) {
        const crypto::CtrCipher cipher(key, be);
        Rng rng(55);
        std::vector<std::vector<std::uint8_t>> ins(7), sep, batch;
        std::vector<std::uint64_t> nonces;
        for (auto &v : ins) {
            v.resize(17 + rng.nextBounded(300));
            for (auto &b : v)
                b = static_cast<std::uint8_t>(rng.next());
            nonces.push_back(rng.next());
        }
        sep = ins;
        batch = ins;
        for (std::size_t i = 0; i < ins.size(); ++i)
            cipher.xcrypt(nonces[i], sep[i], sep[i]);
        std::vector<crypto::CtrSegment> segs;
        for (std::size_t i = 0; i < ins.size(); ++i)
            segs.push_back({nonces[i], batch[i], batch[i]});
        cipher.xcryptSegments(segs);
        EXPECT_EQ(batch, sep) << cipher.backendName();
    }
}

TEST(CtrXor, KernelEdgesMatchSeedScalar)
{
    // The fused kernel at its edges, against the seed per-block loop:
    // empty, partial first block, exact block, one past, just under,
    // at and past the 8-block pipeline width, a partial last block
    // after several full pipelines, and one whole KV path (1920 B);
    // the extreme nonces (the nonce lane must not carry into the
    // index lane); in place and out of place.
    const Key128 key = crypto::keyFromSeed(0xc7e);
    const crypto::Aes128 ref_aes(key);
    Rng rng(4321);
    for (const auto be : availableBackends()) {
        const auto engine = crypto::makeCryptoEngine(key, be);
        for (const std::size_t len :
             {0u, 1u, 15u, 16u, 17u, 127u, 128u, 129u, 255u, 1920u}) {
            for (const std::uint64_t nonce :
                 {std::uint64_t{0}, ~std::uint64_t{0}}) {
                std::vector<std::uint8_t> msg(len);
                for (auto &b : msg)
                    b = static_cast<std::uint8_t>(rng.next());
                std::vector<std::uint8_t> expect(len), out(len, 0xee);
                seedCtrReference(ref_aes, nonce, msg, expect);
                engine->ctrXor(nonce, msg, out);
                EXPECT_EQ(out, expect) << engine->name() << " len=" << len
                                       << " nonce=" << nonce;
                std::vector<std::uint8_t> inplace = msg;
                engine->ctrXor(nonce, inplace, inplace);
                EXPECT_EQ(inplace, expect)
                    << engine->name() << " in place, len=" << len
                    << " nonce=" << nonce;
            }
        }
    }
}

TEST(CtrBatched, EmptySegmentsAreSafe)
{
    // Zero-length segments anywhere in the batch, including trailing
    // ones, must be no-ops that don't disturb their neighbors.
    const crypto::CtrCipher cipher(crypto::keyFromSeed(22));
    std::vector<std::uint8_t> msg(40, 0xab), expect(40);
    cipher.xcrypt(5, msg, expect);
    std::vector<std::uint8_t> got = msg, empty;
    const std::vector<crypto::CtrSegment> segs = {
        {1, empty, empty}, {5, got, got}, {2, empty, empty}};
    cipher.xcryptSegments(segs);
    EXPECT_EQ(got, expect);
    cipher.xcryptSegments({}); // and a fully empty batch
}

TEST(PrfBatched, EvalManyMatchesEval)
{
    const crypto::Prf prf(crypto::keyFromSeed(31));
    std::vector<std::uint64_t> got(40);
    prf.evalMany(1000, got);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], prf.eval(1000 + i));
}

TEST(PrfBatched, NextManyMatchesNext64Stream)
{
    crypto::Prf a(crypto::keyFromSeed(32)), b(crypto::keyFromSeed(32));
    std::vector<std::uint64_t> batch(25);
    a.nextMany(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_EQ(batch[i], b.next64());
    // Streams stay in sync afterwards.
    EXPECT_EQ(a.next64(), b.next64());
}

/** Deterministic test bucket: two real slots + one dummy, Z = 3. */
oram::Bucket
goldenBucket()
{
    oram::Bucket b(3, 64);
    oram::BlockSlot s;
    s.id = 0x0123456789abcdefull;
    s.leaf = 42;
    s.payload.resize(64);
    for (int i = 0; i < 64; ++i)
        s.payload[i] = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(b.insert(s));
    s.id = 7;
    s.leaf = 0xfedcba98ull;
    for (int i = 0; i < 64; ++i)
        s.payload[i] = static_cast<std::uint8_t>(255 - i);
    EXPECT_TRUE(b.insert(s));
    return b;
}

TEST(BucketWireFormat, GoldenVectorAcrossBackends)
{
    // Pins the serialized-bucket CTR ciphertext bit-for-bit: the same
    // bucket, key, and nonce must produce this exact ciphertext under
    // every backend, today and after any future crypto change. (The
    // seed scalar implementation produced exactly these bytes.)
    const oram::Bucket bucket = goldenBucket();
    const auto plain = bucket.serialize();
    const std::uint64_t nonce = 0x0011223344556677ull;
    const char *expect_sha =
        "05c727e60c56f9c858c24d95d010491ed964535090962cde08c889efe4357f7c";
    for (const auto be : availableBackends()) {
        const crypto::CtrCipher cipher(crypto::keyFromSeed(0xdeadbeef), be);
        const auto ct = cipher.encrypt(plain, nonce);
        EXPECT_EQ(crypto::toHex(crypto::Sha256::hash(ct.data)), expect_sha)
            << cipher.backendName();
        // And the inverse direction round-trips.
        EXPECT_EQ(cipher.decrypt(ct), plain) << cipher.backendName();
    }
}

/**
 * Reference form of the path codec: per-level Bucket objects filled by
 * Bucket::insert (carried blocks first, then the level's own
 * residents, deepest level first) and serialized with the whole-bucket
 * BucketCodec::encode; the read side decodes whole buckets and puts
 * their real slots level by level.
 */
void
referenceEvict(oram::Stash &st, const oram::BucketCodec &codec, Leaf leaf,
               unsigned levels, std::vector<std::uint8_t> &arena)
{
    const unsigned depth = levels - 1;
    std::vector<std::uint32_t> pending, placed;
    for (unsigned l = levels; l-- > 0;) {
        oram::Bucket b(codec.z(), codec.blockBytes());
        std::vector<std::uint32_t> candidates = pending;
        for (const std::uint32_t idx : st.activeIndices()) {
            // Deepest common level of the two paths, by a bit walk.
            const Leaf own = st.poolSlot(idx).leaf;
            unsigned dl = 0;
            while (dl < depth &&
                   ((leaf >> (depth - 1 - dl)) & 1) ==
                       ((own >> (depth - 1 - dl)) & 1))
                ++dl;
            if (dl == l)
                candidates.push_back(idx);
        }
        pending.clear();
        for (const std::uint32_t idx : candidates) {
            if (b.insert(st.poolSlot(idx)))
                placed.push_back(idx);
            else
                pending.push_back(idx);
        }
        codec.encode(b, std::span<std::uint8_t>(arena).subspan(
                            l * codec.serializedBytes(),
                            codec.serializedBytes()));
    }
    st.releaseMany(placed);
}

void
referenceUnpack(const std::vector<std::uint8_t> &arena,
                const oram::BucketCodec &codec, unsigned levels,
                oram::Stash &st)
{
    oram::Bucket b(codec.z(), codec.blockBytes());
    for (unsigned l = 0; l < levels; ++l) {
        codec.decode(std::span<const std::uint8_t>(arena).subspan(
                         l * codec.serializedBytes(),
                         codec.serializedBytes()),
                     b);
        for (const oram::BlockSlot &s : b.slots())
            if (!s.isDummy())
                st.put(s.id, s.leaf, s.payload);
    }
}

/** Residents in visit order, with leaves and payloads. */
std::vector<std::tuple<BlockId, Leaf, std::vector<std::uint8_t>>>
stashContents(const oram::Stash &st)
{
    std::vector<std::tuple<BlockId, Leaf, std::vector<std::uint8_t>>> out;
    for (const std::uint32_t idx : st.activeIndices()) {
        const oram::BlockSlot &s = st.poolSlot(idx);
        out.emplace_back(s.id, s.leaf, s.payload);
    }
    return out;
}

TEST(PathCodec, ArenaCodecMatchesBucketReference)
{
    // The arena writer (PathBuffer::evictFrom) and reader
    // (PathBuffer::unpackInto) against the Bucket-based reference, on
    // random stash states: the serialized plaintext and the stash's
    // visit order afterwards must be equal byte for byte.
    struct Geometry
    {
        unsigned z;
        std::uint64_t blockBytes;
        unsigned depth;
    };
    const Geometry geometries[] = {
        {3, 64, 0}, {1, 32, 0}, {1, 64, 4}, {3, 32, 5},
        {4, 64, 3}, {4, 32, 6}, {3, 64, 7},
    };
    constexpr std::size_t kCapacity = 600;
    for (const Geometry &g : geometries) {
        const unsigned levels = g.depth + 1;
        const std::uint64_t leaves = std::uint64_t{1} << g.depth;
        oram::PathBuffer buf(g.z, g.blockBytes, levels, kCapacity);
        const oram::BucketCodec &codec = buf.codec;
        std::vector<std::uint8_t> ref_arena(buf.pathPlain.size());
        oram::Stash fast(kCapacity, g.blockBytes);
        oram::Stash ref(kCapacity, g.blockBytes);
        Rng rng(1000 + g.z * 100 + g.blockBytes + g.depth);
        BlockId next_id = 0;
        std::vector<std::uint8_t> payload(g.blockBytes);
        const std::string where = "Z=" + std::to_string(g.z) + " B=" +
                                  std::to_string(g.blockBytes) +
                                  " depth=" + std::to_string(g.depth);

        for (int round = 0; round < 60; ++round) {
            const Leaf leaf = rng.nextBounded(leaves);
            // Round 0 sweeps an empty stash: an all-dummy path. Every
            // fifth round piles blocks onto the swept leaf itself, more
            // than its whole path holds, forcing the overflow carry
            // (and leaving the surplus resident).
            std::size_t fresh = round == 0 ? 0 : rng.nextBounded(12);
            if (round > 0 && round % 5 == 0)
                fresh = g.z * levels + 3;
            for (std::size_t k = 0; k < fresh; ++k) {
                if (fast.size() + 1 >= kCapacity)
                    break;
                const Leaf own = (round % 5 == 0) ? leaf
                                                  : rng.nextBounded(leaves);
                for (auto &x : payload)
                    x = static_cast<std::uint8_t>(rng.next());
                fast.put(next_id, own, payload);
                ref.put(next_id, own, payload);
                ++next_id;
            }
            // Stale bytes in both arenas: every byte must be rewritten.
            for (std::size_t i = 0; i < ref_arena.size(); ++i)
                buf.pathPlain[i] = ref_arena[i] =
                    static_cast<std::uint8_t>(rng.next());

            buf.evictFrom(fast, leaf);
            referenceEvict(ref, codec, leaf, levels, ref_arena);
            ASSERT_EQ(buf.pathPlain, ref_arena) << where << " round " << round;
            ASSERT_EQ(stashContents(fast), stashContents(ref))
                << where << " round " << round;
            if (round == 0) {
                for (unsigned l = 0; l < levels; ++l)
                    for (unsigned i = 0; i < g.z; ++i)
                        EXPECT_TRUE(
                            codec.readSlot(buf.levelBytes(l), i).isDummy());
            }

            // Read the written path back (about half the time), so
            // later rounds sweep a reshuffled visit order.
            if (rng.nextBounded(2) == 0) {
                buf.unpackInto(fast);
                referenceUnpack(ref_arena, codec, levels, ref);
                ASSERT_EQ(stashContents(fast), stashContents(ref))
                    << where << " round " << round;
            }
        }
        EXPECT_GT(next_id, 0u) << where;
    }
}

TEST(PathOramCrossBackend, IdenticalDramImages)
{
    // The whole functional ORAM must be backend-transparent: identical
    // DRAM images (every bucket ciphertext) after an identical access
    // sequence under pinned scalar vs fastest-available backends.
    oram::OramConfig c;
    c.numBlocks = 256;
    c.recursionLevels = 0;
    c.stashCapacity = 400;

    auto run = [&](CryptoBackend be) {
        auto map = std::make_unique<oram::FlatPositionMap>(c.numBlocks);
        auto o = std::make_unique<oram::PathOram>(c, *map, 4242, 0, be);
        std::vector<std::uint8_t> out(c.blockBytes);
        std::vector<std::uint8_t> data(c.blockBytes);
        Rng rng(99);
        for (int i = 0; i < 120; ++i) {
            const BlockId id = rng.nextBounded(64);
            for (auto &x : data)
                x = static_cast<std::uint8_t>(rng.next());
            if (i % 3 == 0)
                o->accessInto(id, oram::Op::Write, data, out);
            else
                o->accessInto(id, oram::Op::Read, {}, out);
        }
        std::vector<crypto::Ciphertext> image;
        for (std::uint64_t i = 0; i < c.numBuckets(); ++i)
            image.push_back(
                crypto::Ciphertext::copyOf(o->bucketCiphertext(i)));
        // Keep the position map alive until the image is captured.
        return image;
    };

    const auto scalar_image = run(CryptoBackend::Scalar);
    for (const auto be : availableBackends()) {
        if (be == CryptoBackend::Scalar)
            continue;
        EXPECT_EQ(run(be), scalar_image)
            << "backend " << crypto::backendName(be);
    }
}

TEST(StashSweep, ReleaseManyCompactsStably)
{
    oram::Stash st(8);
    for (BlockId id = 0; id < 6; ++id) {
        oram::BlockSlot s;
        s.id = id;
        s.leaf = id * 10;
        s.payload = {static_cast<std::uint8_t>(id)};
        st.put(s.id, s.leaf, s.payload);
    }
    // Release the pool slots holding ids 1 and 4.
    std::vector<std::uint32_t> victims;
    for (const std::uint32_t idx : st.activeIndices())
        if (st.poolSlot(idx).id == 1 || st.poolSlot(idx).id == 4)
            victims.push_back(idx);
    ASSERT_EQ(victims.size(), 2u);
    st.releaseMany(victims);

    EXPECT_EQ(st.size(), 4u);
    EXPECT_FALSE(st.contains(1));
    EXPECT_FALSE(st.contains(4));
    for (BlockId id : {0u, 2u, 3u, 5u})
        EXPECT_TRUE(st.contains(id));
    // Released slots are reusable.
    oram::BlockSlot s;
    s.id = 100;
    s.leaf = 1;
    s.payload = {9};
    st.put(s.id, s.leaf, s.payload);
    EXPECT_EQ(st.size(), 5u);
}

} // namespace
} // namespace tcoram
