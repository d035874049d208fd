/**
 * @file
 * Million-session scheduler scale-out: SPSC ring wrap-around and
 * backpressure, lane-monotonic token/fence retirement, the
 * N-thread == 1-thread bit-identity contract of the phased-round
 * RingScheduler (per-shard observable streams, session stats, CSV
 * rows), digests pinned from the removed O(sessions) scheduler,
 * exact-count steps, checkpoint/restore across worker counts, the
 * pinned round-robin attribution order, and the nearest-rank latency
 * percentile against a fully-sorted reference.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/serial.hh"
#include "crypto/sha256.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/session_ring.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

using namespace tcoram;

namespace {

oram::OramConfig
tinyConfig()
{
    oram::OramConfig c;
    c.numBlocks = 1 << 10;
    c.recursionLevels = 2;
    c.stashCapacity = 400;
    return c;
}

protocol::LeakageParams
leakParams(std::size_t rate_count)
{
    protocol::LeakageParams p;
    p.rateCount = rate_count;
    return p;
}

constexpr Cycles kDrainHorizon = Cycles{1} << 18;

/** (sid, arrival, block) programs, interleaved by arrival the way a
 *  real multi-client front end would see them; per-session arrivals
 *  stay non-decreasing (stable sort). */
struct Arrival
{
    std::uint32_t sid;
    Cycles at;
    std::uint64_t block;
};

std::vector<Arrival>
makeWorkload(std::size_t sessions, std::uint64_t seed)
{
    std::vector<Arrival> w;
    for (std::uint32_t sid = 0; sid < sessions; ++sid) {
        const Cycles stride = 500 + 300 * ((sid + seed) % 5);
        for (Cycles t = 40 * sid; t < 30'000; t += stride)
            w.push_back({sid, t, (seed * 7919 + sid * 131 + t) % 1024});
    }
    std::stable_sort(w.begin(), w.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.at < b.at;
                     });
    return w;
}

/** Everything the bit-identity contract pins, in one comparable bag. */
using StatsTuple = std::tuple<std::uint64_t, std::uint64_t, Cycles, Cycles,
                              Cycles, Cycles, Cycles>;

StatsTuple
statsOf(const sim::SessionStats &s, bool with_last_completion)
{
    return {s.submitted,
            s.completed,
            s.firstArrival,
            with_last_completion ? s.lastCompletion : Cycles{0},
            s.totalLatency,
            s.totalSlotWait,
            s.maxLatency};
}

struct RingSetup
{
    std::uint32_t shards = 1;
    unsigned threads = 1;
    bool dynamic = false;
    std::size_t sessions = 1;
    std::uint64_t seed = 1;
    std::size_t lanes = 1;
    std::size_t capacity = 4096;
    oram::PathMode pathMode = oram::PathMode::Sync;
    oram::EvictionPolicy evictionPolicy = oram::EvictionPolicy::Off;
    std::uint32_t evictionBudget = 0;
    /** Serve with runUntilServed(k), k = 1, 2, ... instead of
     *  runUntilIdle(). */
    bool stepped = false;
};

struct RingResult
{
    std::vector<std::vector<Cycles>> streams; ///< per-shard start cycles
    std::vector<StatsTuple> stats;
    std::string csv;
    Cycles last = 0;
    std::uint64_t served = 0;
    /** Completions in pop order, lane-major. */
    std::vector<sim::SessionRing::Completion> completions;
    std::vector<std::uint64_t> fences;
    std::uint64_t evictions = 0;
};

std::vector<Cycles>
ringRates(bool dynamic)
{
    return dynamic ? std::vector<Cycles>{400, 800, 1600, 3200}
                   : std::vector<Cycles>{500};
}

RingResult
runRing(const RingSetup &setup)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner; // timing
    inner.pathMode = setup.pathMode;
    inner.evictionPolicy = setup.evictionPolicy;
    inner.evictionBudget = setup.evictionBudget;
    oram::ShardedOramDevice dev(inner, tinyConfig(), setup.shards,
                                /*route_seed=*/5, mem, rng,
                                /*record=*/true);
    const timing::RateSet rates{ringRates(setup.dynamic)};
    const timing::EpochSchedule sched{setup.dynamic ? Cycles{1} << 14
                                                    : Cycles{1} << 30,
                                      2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler::Options o;
    o.lanes = setup.lanes;
    o.ringCapacity = setup.capacity;
    o.threads = setup.threads;
    sim::RingScheduler rs(dev, rates, sched, learner,
                          setup.dynamic ? 3200 : 500,
                          leakParams(rates.size()), o);

    RingResult r;
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        rs.openSession(100 + sid, -1.0,
                       static_cast<std::uint16_t>(sid % setup.lanes));

    auto drain = [&] {
        for (std::size_t l = 0; l < setup.lanes; ++l) {
            sim::SessionRing::Completion c;
            while (rs.lane(l).popCompletion(c))
                r.completions.push_back(c);
        }
    };
    for (const auto &a : makeWorkload(setup.sessions, setup.seed)) {
        auto tok =
            rs.trySubmit(a.sid, a.at, timing::OramTransaction::real(a.block));
        while (!tok) {
            // In-flight bound hit: pump the scheduler, drain the
            // completion rings, resubmit — the documented contract.
            rs.runUntilIdle();
            drain();
            tok = rs.trySubmit(a.sid, a.at,
                               timing::OramTransaction::real(a.block));
        }
    }
    if (setup.stepped) {
        for (std::uint64_t k = rs.servedTotal() + 1;
             rs.runUntilServed(k) == k; ++k) {
        }
    } else {
        rs.runUntilIdle();
    }
    rs.drainUntil(kDrainHorizon);
    drain();

    for (std::uint32_t s = 0; s < setup.shards; ++s)
        r.streams.push_back(dev.recorder(s)->startCycles());
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        r.stats.push_back(statsOf(rs.stats(sid), true));
    r.csv = rs.csv();
    r.last = rs.lastCompletion();
    r.served = rs.servedTotal();
    for (std::size_t l = 0; l < setup.lanes; ++l)
        r.fences.push_back(rs.lane(l).retiredFence());
    r.evictions = dev.evictionsIssued();
    return r;
}

void
expectSameRun(const RingResult &a, const RingResult &b, const char *what)
{
    EXPECT_EQ(a.streams, b.streams) << what;
    EXPECT_EQ(a.stats, b.stats) << what;
    EXPECT_EQ(a.csv, b.csv) << what;
    EXPECT_EQ(a.last, b.last) << what;
    EXPECT_EQ(a.served, b.served) << what;
    EXPECT_EQ(a.fences, b.fences) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
    ASSERT_EQ(a.completions.size(), b.completions.size()) << what;
    for (std::size_t i = 0; i < a.completions.size(); ++i) {
        const auto &ca = a.completions[i];
        const auto &cb = b.completions[i];
        ASSERT_EQ(ca.token, cb.token) << what << " completion " << i;
        ASSERT_EQ(ca.sessionId, cb.sessionId) << what << " completion " << i;
        ASSERT_EQ(ca.arrival, cb.arrival) << what << " completion " << i;
        ASSERT_EQ(ca.completion.start, cb.completion.start)
            << what << " completion " << i;
        ASSERT_EQ(ca.completion.done, cb.completion.done)
            << what << " completion " << i;
    }
}

/** Per-session completion latencies (done - arrival), sorted. */
std::vector<std::vector<Cycles>>
sortedLatencies(const RingResult &r, std::size_t sessions)
{
    std::vector<std::vector<Cycles>> out(sessions);
    for (const auto &c : r.completions)
        out[c.sessionId].push_back(c.completion.done - c.arrival);
    for (auto &v : out)
        std::sort(v.begin(), v.end());
    return out;
}

std::string
digest(const ByteWriter &w)
{
    return crypto::toHex(crypto::Sha256::hash(w.data()));
}

/** SHA-256 over length-prefixed u64 lists (streams, latencies). */
std::string
digestLists(const std::vector<std::vector<Cycles>> &lists)
{
    ByteWriter w;
    for (const auto &list : lists) {
        w.u64(list.size());
        for (const Cycles c : list)
            w.u64(c);
    }
    return digest(w);
}

std::string
digestStats(const std::vector<StatsTuple> &stats)
{
    ByteWriter w;
    for (const auto &t : stats)
        std::apply([&](auto... v) { (w.u64(v), ...); }, t);
    return digest(w);
}

/** Nearest-rank quantile over a fully sorted copy — the reference the
 *  nth_element implementations must reproduce exactly. */
Cycles
sortedReference(std::vector<Cycles> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[rank == 0 ? 0 : rank - 1];
}

constexpr double kQuantiles[] = {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0};

} // namespace

// --- rings ---

TEST(SpscRing, WrapAroundKeepsFifoOrderForever)
{
    sim::SpscRing<int> ring(4);
    EXPECT_EQ(ring.capacity(), 4u);

    int v = -1;
    EXPECT_FALSE(ring.tryPop(v));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(99)) << "full ring must refuse";

    int next_pop = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPop(v));
        EXPECT_EQ(v, next_pop++);
    }
    EXPECT_FALSE(ring.tryPop(v));

    // Many times around the buffer with a varying backlog: indices are
    // monotonic uint64s, only the masked slot wraps.
    int next_push = 4;
    for (int round = 0; round < 64; ++round) {
        const int burst = 1 + round % 4;
        for (int i = 0; i < burst; ++i)
            ASSERT_TRUE(ring.tryPush(next_push++));
        for (int i = 0; i < burst; ++i) {
            ASSERT_TRUE(ring.tryPop(v));
            ASSERT_EQ(v, next_pop++);
        }
    }
    EXPECT_EQ(ring.size(), 0u);
}

TEST(SessionRing, TokensAreMonotonicAndInFlightBoundBackpressures)
{
    sim::SessionRing ring(4);
    EXPECT_EQ(ring.capacity(), 4u);

    const auto txn = timing::OramTransaction::real(7);
    for (std::uint64_t t = 1; t <= 4; ++t) {
        const auto tok = ring.trySubmit(0, 10 * t, txn);
        ASSERT_TRUE(tok.has_value());
        EXPECT_EQ(*tok, t) << "lane tokens count 1, 2, 3, ...";
    }
    EXPECT_FALSE(ring.trySubmit(0, 50, txn).has_value())
        << "at the in-flight bound the lane must refuse";
    EXPECT_EQ(ring.inFlight(), 4u);

    // The scheduler retiring a transaction is not enough: the bound is
    // producer-observed, so it opens only when the COMPLETION is popped.
    sim::SessionRing::Submission sub;
    ASSERT_TRUE(ring.popSubmission(sub));
    EXPECT_EQ(sub.token, 1u);
    EXPECT_EQ(sub.arrival, 10u);
    ring.pushCompletion({sub.token, sub.sessionId, sub.arrival, {}});
    EXPECT_FALSE(ring.trySubmit(0, 60, txn).has_value());

    sim::SessionRing::Completion c;
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_TRUE(ring.isRetired(1));
    EXPECT_FALSE(ring.isRetired(2));
    const auto tok = ring.trySubmit(0, 60, txn);
    ASSERT_TRUE(tok.has_value());
    EXPECT_EQ(*tok, 5u);
}

TEST(SessionRing, FenceAdvancesOnlyThroughContiguousRetirement)
{
    sim::SessionRing ring(8);
    const auto txn = timing::OramTransaction::real(3);
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.trySubmit(0, 0, txn).has_value());
    sim::SessionRing::Submission subs[3];
    for (auto &sub : subs)
        ASSERT_TRUE(ring.popSubmission(sub));

    // Shards retire out of order: token 2 first. The fence must hold
    // at 0 until token 1 retires, then jump over the marked window.
    ring.pushCompletion({2, 0, 0, {}});
    ring.pushCompletion({1, 0, 0, {}});
    ring.pushCompletion({3, 0, 0, {}});

    sim::SessionRing::Completion c;
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 2u);
    EXPECT_EQ(ring.retiredFence(), 0u);
    EXPECT_FALSE(ring.isRetired(1));

    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_EQ(ring.retiredFence(), 2u) << "fence jumps the retired window";
    EXPECT_TRUE(ring.isRetired(2));
    EXPECT_FALSE(ring.isRetired(3));

    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 3u);
    EXPECT_EQ(ring.retiredFence(), 3u);
    EXPECT_EQ(ring.inFlight(), 0u);
}

TEST(SessionRing, FenceGatesResubmissionAfterOutOfOrderDrain)
{
    // Regression: completions push in shard-fold order, not token
    // order, so a producer that pops out-of-order completions and
    // resubmits (the documented backpressure contract) drives the
    // drain count ahead of the fence. Submission must be gated by the
    // FENCE — an in-flight (drain-count) gate would admit a token that
    // aliases a live token's retirement-window slot (token 5 & 3 ==
    // token 1 & 3 at capacity 4).
    sim::SessionRing ring(4);
    const auto txn = timing::OramTransaction::real(1);
    for (std::uint64_t t = 1; t <= 4; ++t)
        ASSERT_TRUE(ring.trySubmit(0, 10 * t, txn).has_value());
    sim::SessionRing::Submission sub;
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.popSubmission(sub));

    // A fast shard retires tokens 2..4 while a slow shard still owns
    // token 1.
    ring.pushCompletion({2, 0, 20, {}});
    ring.pushCompletion({3, 0, 30, {}});
    ring.pushCompletion({4, 0, 40, {}});
    sim::SessionRing::Completion c;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(ring.retiredFence(), 0u) << "token 1 still outstanding";
    EXPECT_EQ(ring.inFlight(), 1u);

    EXPECT_FALSE(ring.trySubmit(0, 50, txn).has_value())
        << "the fence, not the drain count, must gate submission";

    // Retiring token 1 snaps the fence to 4 and reopens the lane.
    ring.pushCompletion({1, 0, 10, {}});
    ASSERT_TRUE(ring.popCompletion(c));
    EXPECT_EQ(c.token, 1u);
    EXPECT_EQ(ring.retiredFence(), 4u);
    const auto tok = ring.trySubmit(0, 50, txn);
    ASSERT_TRUE(tok.has_value());
    EXPECT_EQ(*tok, 5u);
    EXPECT_TRUE(ring.isRetired(4));
    EXPECT_FALSE(ring.isRetired(5));
}

// --- determinism ---

TEST(RingScheduler, WorkerCountIsBitIdentical)
{
    // The tentpole contract: per-shard observable streams, session
    // stats, CSV rows, completion order and fences are a pure function
    // of the submission sequence — never of the worker count. 3 is a
    // deliberate non-divisor stripe width; shards-many workers is the
    // intended deployment.
    struct Case
    {
        std::uint32_t shards;
        std::uint64_t seed;
    };
    const std::vector<Case> cases = {
        {1, 1}, {1, 2}, {4, 1}, {4, 2}, {16, 1}, {16, 2},
    };
    for (const auto &c : cases) {
        RingSetup s;
        s.shards = c.shards;
        s.dynamic = true; // epoch transitions exercise the serial step
        s.sessions = 6;
        s.seed = c.seed;
        s.lanes = 2;

        s.threads = 1;
        const RingResult ref = runRing(s);
        for (const unsigned threads : {3u, c.shards}) {
            if (threads <= 1)
                continue;
            s.threads = threads;
            const RingResult got = runRing(s);
            const std::string what =
"shards=" + std::to_string(c.shards) +
                " seed=" + std::to_string(c.seed) +
                " threads=" + std::to_string(threads);
            expectSameRun(ref, got, what.c_str());
        }
    }
}

TEST(RingScheduler, EvictionEngineKeepsWorkerCountBitIdentical)
{
    // The background eviction engine must not break the N == 1 worker
    // contract: evictions fire at identical sequence points on the
    // bounded and unbounded enforcer paths, so the per-shard streams,
    // stats and eviction counts stay a pure function of the submission
    // sequence. Pipelined mode is required (evictions retire deferred
    // write-back tails); the dynamic schedule exercises the
    // transition-capped eviction horizon.
    for (const std::uint32_t shards : {1u, 4u}) {
        RingSetup s;
        s.shards = shards;
        s.dynamic = true;
        s.sessions = 6;
        s.lanes = 2;
        s.pathMode = oram::PathMode::Pipelined;
        s.evictionPolicy = oram::EvictionPolicy::Gap;
        s.evictionBudget = 32;

        s.threads = 1;
        const RingResult ref = runRing(s);
        EXPECT_GT(ref.evictions, 0u)
            << "the case must actually exercise the engine";
        for (const unsigned threads : {3u, shards}) {
            if (threads <= 1)
                continue;
            s.threads = threads;
            const RingResult got = runRing(s);
            const std::string what = "eviction shards=" +
                                     std::to_string(shards) + " threads=" +
                                     std::to_string(threads);
            expectSameRun(ref, got, what.c_str());
        }
    }
}

TEST(RingScheduler, SmallRingBackpressureAndWrapAroundStayDeterministic)
{
    // An 8-deep lane under a 100-transaction workload wraps the rings
    // a dozen times and forces the pump-drain-resubmit path; the run
    // must retire every token and stay worker-count independent.
    RingSetup s;
    s.shards = 4;
    s.dynamic = true;
    s.sessions = 3;
    s.seed = 4;
    s.capacity = 8;

    s.threads = 1;
    const RingResult ref = runRing(s);
    s.threads = 4;
    const RingResult got = runRing(s);
    expectSameRun(ref, got, "capacity=8");

    const std::size_t total = makeWorkload(s.sessions, s.seed).size();
    ASSERT_GT(total, 8u * 4u) << "workload must overflow the ring";
    EXPECT_EQ(ref.completions.size(), total);
    EXPECT_EQ(ref.served, total);
    EXPECT_EQ(ref.fences.at(0), total) << "every token retired";

    // Single lane: completion tokens pop in fold order, which for a
    // fully drained run covers exactly 1..N.
    std::vector<std::uint64_t> tokens;
    for (const auto &c : ref.completions)
        tokens.push_back(c.token);
    std::sort(tokens.begin(), tokens.end());
    for (std::size_t i = 0; i < tokens.size(); ++i)
        ASSERT_EQ(tokens[i], i + 1);
}

TEST(RingScheduler, PopOneResubmitBackpressureStaysInWindow)
{
    // The harsher client: on every backpressure stall, pop a SINGLE
    // completion — in shard-fold order, not token order — and resubmit
    // immediately. The drain count runs ahead of the fence whenever
    // the popped token is not the oldest outstanding one; throughout,
    // the fence must equal EXACTLY the contiguous prefix of tokens the
    // producer has popped (a drain-count submission gate lets a
    // resubmitted token alias a live retirement-window slot, which
    // shows up here as the fence jumping over a token never popped),
    // every token must retire exactly once, and the shard streams must
    // stay worker-count independent.
    for (const std::uint64_t seed : {4ull, 9ull}) {
        std::vector<std::vector<Cycles>> streamsByThreads;
        for (const unsigned threads : {1u, 4u}) {
            dram::DramModel mem{dram::DramConfig{}};
            Rng rng(11);
            oram::OramDeviceSpec inner; // timing
            oram::ShardedOramDevice dev(inner, tinyConfig(), /*shards=*/4,
                                        /*route_seed=*/5, mem, rng,
                                        /*record=*/true);
            const timing::RateSet rates{ringRates(true)};
            const timing::EpochSchedule sched{Cycles{1} << 14, 2,
                                              Cycles{1} << 40};
            const timing::RateLearner learner{rates};
            sim::RingScheduler::Options o;
            o.ringCapacity = 8; // many stalls over ~100 transactions
            o.threads = threads;
            sim::RingScheduler rs(dev, rates, sched, learner, 3200,
                                  leakParams(rates.size()), o);
            const std::size_t sessions = 3;
            for (std::uint32_t sid = 0; sid < sessions; ++sid)
                rs.openSession(100 + sid);

            const auto workload = makeWorkload(sessions, seed);
            ASSERT_GT(workload.size(), 8u * 4u) << "must overflow the lane";
            std::vector<std::uint8_t> popped(workload.size() + 2, 0);
            std::uint64_t expectFence = 0;
            std::size_t nPopped = 0;
            bool sawLag = false;
            sim::SessionRing::Completion c;
            const auto notePop = [&] {
                ASSERT_GE(c.token, 1u);
                ASSERT_LE(c.token, workload.size()) << "unknown token";
                ASSERT_FALSE(popped[c.token]) << "token retired twice";
                popped[c.token] = 1;
                ++nPopped;
                while (popped[expectFence + 1])
                    ++expectFence;
                ASSERT_EQ(rs.lane(0).retiredFence(), expectFence)
                    << "fence must track the popped prefix exactly";
                sawLag = sawLag || expectFence + 1 < c.token;
            };
            for (const auto &a : workload) {
                auto tok = rs.trySubmit(
                    a.sid, a.at, timing::OramTransaction::real(a.block));
                while (!tok) {
                    rs.runUntilIdle();
                    if (rs.lane(0).popCompletion(c))
                        notePop();
                    tok = rs.trySubmit(
                        a.sid, a.at, timing::OramTransaction::real(a.block));
                }
            }
            rs.runUntilIdle();
            while (rs.lane(0).popCompletion(c))
                notePop();

            EXPECT_TRUE(sawLag)
                << "workload never drove the fence behind the drain "
                   "count — the scenario under test did not occur";
            EXPECT_EQ(nPopped, workload.size());
            EXPECT_EQ(expectFence, workload.size());
            EXPECT_EQ(rs.lane(0).retiredFence(), workload.size())
                << "fence must reach the last token, threads=" << threads;

            std::vector<Cycles> flat;
            for (std::uint32_t s = 0; s < 4; ++s) {
                const auto &st = dev.recorder(s)->startCycles();
                flat.insert(flat.end(), st.begin(), st.end());
                flat.push_back(0); // shard separator
            }
            streamsByThreads.push_back(std::move(flat));
        }
        EXPECT_EQ(streamsByThreads[0], streamsByThreads[1])
            << "partial-drain backpressure must stay worker-count blind, "
               "seed=" << seed;
    }
}

// --- pinned reference streams ---
//
// The digests below were recorded from the removed O(sessions) dense
// scheduler (global shard round-robin, per-session FIFOs scanned by
// session id) over this exact workload and device setup. Streams are
// SHA-256 over each shard's u64 start cycles, stats over the per-
// session StatsTuples (lastCompletion = the session's max completion),
// latencies over each session's sorted (done - arrival) samples.

TEST(RingScheduler, ReproducesPinnedLegacyRuns)
{
    // Static rate, 5 sessions: |R| = 1 closes the decision channel, so
    // the per-shard streams must equal the reference whatever the
    // dispatch order. Session ATTRIBUTION may differ on several shards
    // (the activation ring and the dense scan break ties differently),
    // so its stats and latencies are pinned only at M = 1.
    // Dynamic rate, 1 session: dispatch is FIFO, so the bounded serve
    // must replay the reference enforcer sequence exactly — streams
    // (hence epoch transitions), stats and the latency samples.
    struct Pin
    {
        std::uint32_t shards;
        bool dynamic;
        std::size_t sessions;
        std::uint64_t seed;
        std::uint64_t served;
        const char *streams;
        const char *stats; ///< nullptr: attribution-dependent
        const char *latencies;
    };
    const Pin pins[] = {
        {1, false, 5, 3, 166,
         "f218344ffb8e37ad84da10cc0bcc570aa4e8ea44108c469242d7c786419d711d",
         "0135e6f9bdd515a83dde961572c20fb3226eda412e9076394ae16dd63c70f349",
         "ec77188a6d9b938f9f4cb601e081f0d3c1a607e119ae19f64ddb4f7ed0e1ad1b"},
        {4, false, 5, 3, 166,
         "42f13e34958ef0456acc7aa0abd6273e0bf4a1b5feb732b4b4345296285aa3a4",
         nullptr, nullptr},
        {1, true, 1, 9, 18,
         "e81d835464966b6149352d8643221184efe4861e7de660601d42e40cbdbf6a83",
         "203c29e0743523772a44e1c35469e9e038199f681ffaeb47436c30ac7abd3486",
         "30650aebeec382adc9d55be764a807a43b291bd57d8e265e7f217392f0d87856"},
        {4, true, 1, 9, 18,
         "2718791b72c65f3ac89a5c0b7f822cd986c542edeb380511dbad440b4c8ca02c",
         "ac7a8a667fc48e62354e6ed025c36b31864493082745a31411feff4972f32f58",
         "8a0e7a38c28242f75a57a0e7a049e3f594b61c43d756e1b1e0f301f9c0031e67"},
    };
    for (const Pin &pin : pins) {
        RingSetup s;
        s.shards = pin.shards;
        s.dynamic = pin.dynamic;
        s.sessions = pin.sessions;
        s.seed = pin.seed;
        const RingResult ring = runRing(s);
        const std::string what = "shards=" + std::to_string(pin.shards) +
                                 " dynamic=" + std::to_string(pin.dynamic);
        EXPECT_EQ(ring.served, pin.served) << what;
        EXPECT_EQ(digestLists(ring.streams), pin.streams) << what;
        if (pin.stats == nullptr)
            continue;
        EXPECT_EQ(digestStats(ring.stats), pin.stats) << what;
        EXPECT_EQ(digestLists(sortedLatencies(ring, s.sessions)),
                  pin.latencies)
            << what;
    }
}

// --- exact-count steps ---

TEST(RingScheduler, SteppedRunMatchesUnboundedRunAtStaticRate)
{
    // runUntilServed(k) for k = 1..N serves in global shard round-robin
    // order, one transaction per round; runUntilIdle() lets every shard
    // run ahead. Each shard's pick sequence is the same either way, so
    // at |R| = 1 everything but the completion fold order matches.
    RingSetup s;
    s.shards = 4;
    s.lanes = 2;
    s.sessions = 5;
    s.seed = 8;
    const RingResult unbounded = runRing(s);
    s.stepped = true;
    const RingResult stepped = runRing(s);
    EXPECT_GT(stepped.served, 100u);
    EXPECT_EQ(stepped.streams, unbounded.streams);
    EXPECT_EQ(stepped.stats, unbounded.stats);
    EXPECT_EQ(stepped.csv, unbounded.csv);
    EXPECT_EQ(stepped.last, unbounded.last);
    EXPECT_EQ(stepped.served, unbounded.served);
    EXPECT_EQ(stepped.fences, unbounded.fences);
    EXPECT_EQ(sortedLatencies(stepped, s.sessions),
              sortedLatencies(unbounded, s.sessions));

    // The deal is serial, so stepping is worker-count blind too —
    // completion order included.
    s.threads = 4;
    expectSameRun(stepped, runRing(s), "stepped threads=4");
}

// --- checkpoints ---

namespace {

/** A recorded 4-lane-capable stack for the checkpoint tests: dynamic
 *  rates and short epochs (transitions and rate decisions on every
 *  shard), session 0 with a finite budget so the shared monitor's
 *  ledger runs. */
struct SnapStack
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng{11};
    oram::ShardedOramDevice dev;
    timing::RateSet rates{ringRates(true)};
    timing::EpochSchedule sched{Cycles{1} << 14, 2, Cycles{1} << 40};
    timing::RateLearner learner{rates};
    sim::RingScheduler rs;

    SnapStack(std::uint32_t shards, std::size_t lanes, unsigned threads,
              std::size_t sessions)
        : dev(oram::OramDeviceSpec{}, tinyConfig(), shards,
              /*route_seed=*/5, mem, rng, /*record=*/true),
          rs(dev, rates, sched, learner, 3200, leakParams(rates.size()),
             options(lanes, threads))
    {
        for (std::uint32_t sid = 0; sid < sessions; ++sid)
            rs.openSession(100 + sid, sid == 0 ? 1e6 : -1.0,
                           static_cast<std::uint16_t>(sid % lanes));
    }

    static sim::RingScheduler::Options
    options(std::size_t lanes, unsigned threads)
    {
        sim::RingScheduler::Options o;
        o.lanes = lanes;
        o.threads = threads;
        return o;
    }

    void
    submit(const Arrival &a)
    {
        ASSERT_TRUE(rs.trySubmit(a.sid, a.at,
                                 timing::OramTransaction::real(a.block))
                        .has_value());
    }
};

struct SnapRun
{
    RingResult run;
    std::vector<Cycles> quantiles; ///< per (session, kQuantiles)
    std::vector<std::uint8_t> snapshot;
};

/**
 * 4 shards, 2 lanes, 6 sessions. Half the workload is served
 * halfway, lane 0's completions are popped (lane 1's stay ringed), and
 * the other half is submitted but not yet ingested. With @p interrupt
 * the stack is snapshotted there and the run finishes in a fresh stack
 * restored from it at @p threads_after workers.
 */
SnapRun
runSnapshotted(unsigned threads_before, unsigned threads_after,
               bool interrupt)
{
    constexpr std::size_t kSessions = 6;
    const auto work = makeWorkload(kSessions, 7);
    const std::size_t half = work.size() / 2;

    SnapRun out;
    auto popLane = [&](sim::RingScheduler &rs, std::size_t l) {
        sim::SessionRing::Completion c;
        while (rs.lane(l).popCompletion(c))
            out.run.completions.push_back(c);
    };
    auto st = std::make_unique<SnapStack>(4, 2, threads_before, kSessions);
    for (std::size_t i = 0; i < half; ++i)
        st->submit(work[i]);
    EXPECT_EQ(st->rs.runUntilServed(half / 2), half / 2);
    popLane(st->rs, 0);
    for (std::size_t i = half; i < work.size(); ++i)
        st->submit(work[i]);
    EXPECT_FALSE(st->rs.idle()) << "the snapshot must be mid-backlog";
    EXPECT_GT(st->rs.lane(1).completionBacklog(), 0u);

    ByteWriter w;
    st->dev.saveState(w);
    st->rs.saveState(w);
    out.snapshot = w.data();
    if (interrupt) {
        st = std::make_unique<SnapStack>(4, 2, threads_after, kSessions);
        ByteReader r(out.snapshot);
        st->dev.restoreState(r);
        st->rs.restoreState(r);
        EXPECT_TRUE(r.atEnd());
    }
    st->rs.runUntilIdle();
    st->rs.drainUntil(kDrainHorizon);
    popLane(st->rs, 0);
    popLane(st->rs, 1);

    for (std::uint32_t s = 0; s < 4; ++s)
        out.run.streams.push_back(st->dev.recorder(s)->startCycles());
    for (std::uint32_t sid = 0; sid < kSessions; ++sid) {
        out.run.stats.push_back(statsOf(st->rs.stats(sid), true));
        for (const double q : kQuantiles)
            out.quantiles.push_back(st->rs.latencyPercentile(sid, q));
    }
    out.run.csv = st->rs.csv();
    out.run.last = st->rs.lastCompletion();
    out.run.served = st->rs.servedTotal();
    for (std::size_t l = 0; l < 2; ++l)
        out.run.fences.push_back(st->rs.lane(l).retiredFence());
    EXPECT_EQ(out.run.served, work.size());
    return out;
}

} // namespace

TEST(RingScheduler, SnapshotRestoresAcrossWorkerCounts)
{
    // A mid-backlog snapshot (queued shard work, ringed submissions,
    // unpopped completions, a live monitor ledger)
    // saved at 4 workers and restored at 1 — and the reverse — must
    // finish bit-identical to the uninterrupted run.
    const SnapRun ref = runSnapshotted(1, 1, false);
    const SnapRun four_to_one = runSnapshotted(4, 1, true);
    const SnapRun one_to_four = runSnapshotted(1, 4, true);

    EXPECT_EQ(four_to_one.snapshot, ref.snapshot)
        << "snapshot bytes must not depend on the worker count";
    EXPECT_EQ(one_to_four.snapshot, ref.snapshot);
    expectSameRun(ref.run, four_to_one.run, "saved at 4, restored at 1");
    expectSameRun(ref.run, one_to_four.run, "saved at 1, restored at 4");
    EXPECT_EQ(four_to_one.quantiles, ref.quantiles);
    EXPECT_EQ(one_to_four.quantiles, ref.quantiles);
}

TEST(RingScheduler, RestoreRejectsMismatchedConfiguration)
{
    std::vector<std::uint8_t> bytes;
    {
        SnapStack st(2, 2, 1, 3);
        for (const auto &a : makeWorkload(3, 2))
            st.submit(a);
        st.rs.runUntilServed(10);
        ByteWriter w;
        st.rs.saveState(w);
        bytes = w.data();
    }
    // The pristine snapshot restores into an identical scheduler.
    {
        SnapStack twin(2, 2, 1, 3);
        ByteReader r(bytes);
        twin.rs.restoreState(r);
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(twin.rs.servedTotal(), 10u);
    }
    auto restoreInto = [&](std::uint32_t shards, std::size_t lanes,
                           std::size_t sessions) {
        SnapStack other(shards, lanes, 1, sessions);
        ByteReader r(bytes);
        other.rs.restoreState(r);
    };
    EXPECT_DEATH(restoreInto(2, 1, 3), "lane count");
    EXPECT_DEATH(restoreInto(4, 2, 3), "shard count");
    EXPECT_DEATH(restoreInto(2, 2, 4), "session count");
}

// --- dispatch order ---

namespace {

struct Submit
{
    std::uint32_t sid;
    Cycles at;
};

/**
 * Serve a single-shard slate at a pinned rate and return the session
 * attribution order. Each batch is submitted in order; every batch but
 * the last is followed by exactly one more served transaction, so a
 * later batch lands between two picks. The last batch is served to
 * idle.
 */
std::vector<std::uint32_t>
attributionOrder(std::size_t sessions,
                 const std::vector<std::vector<Submit>> &batches)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, tinyConfig(), 1, 5, mem, rng);
    const timing::RateSet rates{std::vector<Cycles>{500}};
    const timing::EpochSchedule sched{Cycles{1} << 30, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler rs(dev, rates, sched, learner, 500, leakParams(1));

    for (std::size_t sid = 0; sid < sessions; ++sid)
        rs.openSession(100 + sid);
    for (std::size_t b = 0; b < batches.size(); ++b) {
        for (const Submit &s : batches[b])
            EXPECT_TRUE(rs.trySubmit(s.sid, s.at,
                                     timing::OramTransaction::real(s.sid))
                            .has_value());
        if (b + 1 < batches.size())
            rs.runUntilServed(rs.servedTotal() + 1);
        else
            rs.runUntilIdle();
    }

    std::vector<std::uint32_t> order;
    sim::SessionRing::Completion c;
    while (rs.lane(0).popCompletion(c))
        order.push_back(c.sessionId);
    return order;
}

} // namespace

TEST(RingScheduler, RoundRobinAttributionIsPinned)
{
    // Which queued session rides a slot never reaches the observable
    // stream, but it is still a pure function of the submission
    // sequence. The scan starts after the cursor (the last-served
    // session); sessions join just before the cursor, i.e. at the back
    // of the round.

    // All heads tied at cycle 0, session-major submission: session 0
    // activates first, so the first scan opens at session 1 and a
    // drained session drops out of the round.
    EXPECT_EQ(attributionOrder(3, {{{0, 0}, {0, 0}, {0, 0},
                                    {1, 0}, {1, 0},
                                    {2, 0}}}),
              (std::vector<std::uint32_t>{1, 2, 0, 1, 0, 0}));

    // Staggered future arrivals: each pick finds every head still in
    // the future, so the earliest head goes first and a tie goes to
    // scan order — session 2 ahead of session 0 at 300000.
    EXPECT_EQ(attributionOrder(3, {{{0, 300'000}, {0, 900'000},
                                    {1, 100'000}, {1, 700'000},
                                    {2, 300'000}, {2, 500'000}}}),
              (std::vector<std::uint32_t>{1, 2, 0, 2, 1, 0}));

    // Session 1 is served, drains and rejoins before the next pick. It
    // takes back its vacated place at the end of the scan, so session
    // 2 and then session 0 go before it.
    EXPECT_EQ(attributionOrder(3, {{{0, 0}, {0, 0}, {1, 0}, {2, 0}, {2, 0}},
                                   {{1, 0}, {1, 0}}}),
              (std::vector<std::uint32_t>{1, 2, 0, 1, 2, 0, 1}));
}

// --- latency percentiles ---

TEST(LatencyPercentile, RingSchedulerAgreesWithItsOwnCompletions)
{
    RingSetup setup;
    setup.shards = 4;
    setup.dynamic = true;
    setup.sessions = 3;
    setup.seed = 6;

    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(11);
    oram::OramDeviceSpec inner;
    oram::ShardedOramDevice dev(inner, tinyConfig(), setup.shards, 5, mem,
                                rng);
    const timing::RateSet rates{ringRates(true)};
    const timing::EpochSchedule sched{Cycles{1} << 14, 2, Cycles{1} << 40};
    const timing::RateLearner learner{rates};
    sim::RingScheduler rs(dev, rates, sched, learner, 3200, leakParams(4));
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid)
        rs.openSession(100 + sid);
    for (const auto &a : makeWorkload(setup.sessions, setup.seed))
        ASSERT_TRUE(rs.trySubmit(a.sid, a.at,
                                 timing::OramTransaction::real(a.block))
                        .has_value());
    rs.runUntilIdle();

    std::vector<std::vector<Cycles>> samples(setup.sessions);
    sim::SessionRing::Completion c;
    while (rs.lane(0).popCompletion(c))
        samples[c.sessionId].push_back(c.completion.done - c.arrival);

    // Every quantile against the fully-sorted reference — twice,
    // because the reused scratch must not disturb the samples.
    for (std::uint32_t sid = 0; sid < setup.sessions; ++sid) {
        ASSERT_GT(samples[sid].size(), 10u);
        for (const double q : kQuantiles) {
            const Cycles want = sortedReference(samples[sid], q);
            EXPECT_EQ(rs.latencyPercentile(sid, q), want)
                << "sid " << sid << " q " << q;
            EXPECT_EQ(rs.latencyPercentile(sid, q), want)
                << "repeat must not disturb the samples, sid " << sid;
        }
    }
}
