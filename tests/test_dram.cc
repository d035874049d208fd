/**
 * @file
 * DRAM model tests: bank row-buffer state machine, address decoding,
 * channel parallelism, closed-page policy, the flat baseline, the
 * split-transaction core (issue / nextEventAt / drainRetired) with its
 * blocking adapters, the batch-vs-loop differential contract, and
 * resetTiming() across every backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dram/differential.hh"
#include "dram/dram_model.hh"
#include "dram/flat_memory.hh"

namespace tcoram::dram {
namespace {

DramConfig
testConfig()
{
    DramConfig c;
    c.channels = 2;
    c.banksPerChannel = 8;
    c.rowBytes = 8192;
    return c;
}

TEST(Bank, RowHitCheaperThanMiss)
{
    const DramConfig cfg = testConfig();
    Bank bank(cfg);
    const std::uint64_t burst = 4;

    const std::uint64_t t1 = bank.access(0, 5, burst); // cold miss
    const std::uint64_t start2 = t1 + 10;
    const std::uint64_t t2 = bank.access(start2, 5, burst); // row hit
    const std::uint64_t start3 = t2 + 10;
    const std::uint64_t t3 = bank.access(start3, 6, burst); // row miss

    const std::uint64_t hit_lat = t2 - start2;
    const std::uint64_t miss_lat = t3 - start3;
    EXPECT_LT(hit_lat, miss_lat);
    EXPECT_EQ(hit_lat, cfg.tCAS + burst);
    EXPECT_EQ(bank.rowHits(), 1u);
    EXPECT_EQ(bank.rowMisses(), 2u);
}

TEST(Bank, ColdMissLatency)
{
    const DramConfig cfg = testConfig();
    Bank bank(cfg);
    const std::uint64_t burst = 4;
    const std::uint64_t t = bank.access(0, 0, burst);
    EXPECT_EQ(t, cfg.tRCD + cfg.tCAS + burst);
}

TEST(Bank, ConflictRespectsTrasAndTrp)
{
    const DramConfig cfg = testConfig();
    Bank bank(cfg);
    bank.access(0, 0, 1);
    // Immediately conflicting access: must wait tRAS from activation,
    // then tRP + tRCD + tCAS.
    const std::uint64_t t = bank.access(0, 1, 1);
    EXPECT_GE(t, cfg.tRAS + cfg.tRP + cfg.tRCD + cfg.tCAS + 1);
}

TEST(Bank, ClosedPageNeverHits)
{
    DramConfig cfg = testConfig();
    cfg.closedPage = true;
    Bank bank(cfg);
    bank.access(0, 3, 1);
    bank.access(200, 3, 1); // same row, but auto-precharged
    EXPECT_EQ(bank.rowHits(), 0u);
    EXPECT_EQ(bank.rowMisses(), 2u);
    EXPECT_EQ(bank.openRow(), kInvalidId);
}

TEST(DramModel, DecodeChannelInterleaving)
{
    DramModel m(testConfig());
    // Consecutive cache lines alternate channels.
    EXPECT_NE(m.decode(0).channel, m.decode(64).channel);
    EXPECT_EQ(m.decode(0).channel, m.decode(128).channel);
}

TEST(DramModel, DecodeDistinctRows)
{
    DramModel m(testConfig());
    const auto a = m.decode(0);
    // Same channel, 8 KB * 2 channels * 8 banks further on: next row
    // in the same bank.
    const auto b = m.decode(2ull * 8 * 8192);
    EXPECT_EQ(a.channel, b.channel);
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_NE(a.row, b.row);
}

TEST(DramModel, SequentialAccessesHitRowBuffer)
{
    DramModel m(testConfig());
    Cycles now = 0;
    for (int i = 0; i < 64; ++i)
        now = m.access(now, {static_cast<Addr>(i) * 64, 64, false});
    EXPECT_GT(m.rowHitRate(), 0.8);
}

TEST(DramModel, RandomAccessesMissMore)
{
    DramModel m(testConfig());
    Cycles now = 0;
    Addr a = 12345;
    for (int i = 0; i < 200; ++i) {
        a = a * 6364136223846793005ull + 13;
        now = m.access(now, {(a % (1ull << 30)) & ~63ull, 64, false});
    }
    EXPECT_LT(m.rowHitRate(), 0.5);
}

TEST(DramModel, CountsRequestsAndBytes)
{
    DramModel m(testConfig());
    m.access(0, {0, 64, false});
    m.access(100, {4096, 128, true});
    EXPECT_EQ(m.requestCount(), 2u);
    EXPECT_EQ(m.bytesMoved(), 192u);
}

TEST(DramModel, CompletionMonotonicPerBank)
{
    DramModel m(testConfig());
    Cycles prev = 0;
    for (int i = 0; i < 20; ++i) {
        const Cycles done = m.access(prev, {0, 64, false});
        EXPECT_GT(done, prev);
        prev = done;
    }
}

TEST(FlatMemory, FixedLatency)
{
    FlatMemory m(40);
    EXPECT_EQ(m.access(100, {0, 64, false}), 140u);
    EXPECT_EQ(m.latency(), 40u);
}

TEST(FlatMemory, SerializesBackToBack)
{
    FlatMemory m(40);
    const Cycles t1 = m.access(0, {0, 64, false});
    const Cycles t2 = m.access(0, {64, 64, false});
    EXPECT_EQ(t1, 40u);
    EXPECT_EQ(t2, 80u);
}

TEST(FlatMemory, IdleGapResets)
{
    FlatMemory m(40);
    m.access(0, {0, 64, false});
    EXPECT_EQ(m.access(1000, {0, 64, false}), 1040u);
}

TEST(FlatMemory, Counters)
{
    FlatMemory m(40);
    m.access(0, {0, 64, false});
    m.access(0, {0, 64, true});
    EXPECT_EQ(m.requestCount(), 2u);
    EXPECT_EQ(m.bytesMoved(), 128u);
}

TEST(DramConfig, CycleConversion)
{
    DramConfig c;
    // 1.334 DRAM cycles per CPU cycle: 1334 DRAM cycles ~= 1000 CPU.
    EXPECT_NEAR(static_cast<double>(c.toCpuCycles(1334)), 1000.0, 2.0);
    EXPECT_EQ(c.burstCycles(64), 4u);
    EXPECT_EQ(c.burstCycles(1), 1u);
    EXPECT_EQ(c.burstCycles(240), 15u);
}

// ---------------------------------------------------------------------------
// Split-transaction core.
// ---------------------------------------------------------------------------

namespace {

/** A deterministic pseudo-random request stream (mixed sizes, rw). */
std::vector<MemRequest>
randomStream(std::size_t n, std::uint64_t seed)
{
    std::vector<MemRequest> reqs;
    reqs.reserve(n);
    std::uint64_t x = seed;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        MemRequest r;
        r.addr = (x % (1ull << 28)) & ~63ull;
        r.bytes = 64 * (1 + (x >> 32) % 4);
        r.isWrite = ((x >> 40) & 1) != 0;
        reqs.push_back(r);
    }
    return reqs;
}

/** The two base backends, freshly constructed. */
std::vector<std::pair<const char *, std::unique_ptr<MemoryIf>>>
allBackends()
{
    std::vector<std::pair<const char *, std::unique_ptr<MemoryIf>>> out;
    out.emplace_back("flat", std::make_unique<FlatMemory>(40));
    out.emplace_back("banked", std::make_unique<DramModel>(testConfig()));
    return out;
}

} // namespace

TEST(SplitTransaction, IssueDrainMatchesBlockingAccess)
{
    // The same stream through a blocking twin and the async core must
    // retire with identical completion cycles, on every backend.
    const auto reqs = randomStream(64, 0xfeed);
    for (auto &[name, mem] : allBackends()) {
        auto twin = [&]() -> std::unique_ptr<MemoryIf> {
            if (std::string(name) == "flat")
                return std::make_unique<FlatMemory>(40);
            return std::make_unique<DramModel>(testConfig());
        }();
        Cycles now = 0;
        for (const auto &r : reqs) {
            const TxnToken tok = mem->issue(now, r);
            const Cycles at = mem->nextEventAt();
            ASSERT_NE(at, kNoPendingEvent) << name;
            Cycles async_done = 0;
            for (const Retired &ret : mem->drainRetired(at))
                if (ret.token == tok)
                    async_done = ret.completed;
            const Cycles sync_done = twin->access(now, r);
            ASSERT_EQ(async_done, sync_done) << name;
            now = sync_done / 2; // overlapping presentation cycles
        }
    }
}

TEST(SplitTransaction, NextEventAtTracksEarliestRetirement)
{
    DramModel m(testConfig());
    // Two transactions to distinct channels issued at the same cycle:
    // nextEventAt is the earlier completion, and draining up to it
    // retires exactly that transaction.
    const TxnToken t0 = m.issue(0, {0, 64, false});
    const TxnToken t1 = m.issue(0, {64, 256, false});
    ASSERT_NE(m.decode(0).channel, m.decode(64).channel);

    const Cycles first = m.nextEventAt();
    ASSERT_NE(first, kNoPendingEvent);
    const auto batch = m.drainRetired(first);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].completed, first);
    EXPECT_TRUE(batch[0].token == t0 || batch[0].token == t1);

    const Cycles second = m.nextEventAt();
    ASSERT_NE(second, kNoPendingEvent);
    EXPECT_GE(second, first);
    ASSERT_EQ(m.drainRetired(second).size(), 1u);
    EXPECT_EQ(m.nextEventAt(), kNoPendingEvent);
}

TEST(SplitTransaction, DrainReturnsCompletionOrderAndCarriesRequests)
{
    FlatMemory m(40);
    const MemRequest a{0, 64, false};
    const MemRequest b{128, 64, true};
    const TxnToken ta = m.issue(0, a);
    const TxnToken tb = m.issue(0, b);
    const auto batch = m.drainRetired(m.nextEventAt() + 1000);
    ASSERT_EQ(batch.size(), 2u);
    // Flat memory serializes: a completes at 40, b at 80.
    EXPECT_EQ(batch[0].token, ta);
    EXPECT_EQ(batch[0].completed, 40u);
    EXPECT_EQ(batch[0].issued, 0u);
    EXPECT_EQ(batch[0].req.addr, a.addr);
    EXPECT_EQ(batch[1].token, tb);
    EXPECT_EQ(batch[1].completed, 80u);
    EXPECT_TRUE(batch[1].req.isWrite);
    EXPECT_GT(tb, ta) << "tokens are monotonic";
}

TEST(SplitTransaction, BlockingAdapterDiscardsForeignRetirements)
{
    // An async issue left in flight is drained (and dropped) by a
    // later blocking call — the documented mixing semantics.
    FlatMemory m(40);
    m.issue(0, {0, 64, false});
    const Cycles done = m.access(0, {64, 64, false});
    EXPECT_EQ(done, 80u) << "serialized behind the in-flight txn";
    EXPECT_EQ(m.nextEventAt(), kNoPendingEvent);
}

namespace {

/** Drain everything left in flight, as comparable tuples. */
std::vector<std::tuple<TxnToken, Addr, Cycles, Cycles>>
drainAll(MemoryIf &mem)
{
    std::vector<std::tuple<TxnToken, Addr, Cycles, Cycles>> out;
    for (const Retired &r : mem.drainRetired(kNoPendingEvent - 1))
        out.emplace_back(r.token, r.req.addr, r.issued, r.completed);
    return out;
}

} // namespace

TEST(MemoryIf, OnePassAdaptersMatchTheEventLoop)
{
    // Twin instances, one driven by the backend's own blocking adapters
    // and one by the base MemoryIf event loop (called without virtual
    // dispatch, so it runs over the twin's issue/drain). Before every blocking call an
    // async transaction is left in flight: issued just ahead of the
    // call it completes before the batch does (the blocking call
    // retires it); issued far in the future on channel 0, which the
    // blocking calls never use, it completes after (it stays queued).
    auto batch = randomStream(92, 0x9e);
    for (auto &r : batch)
        r.addr |= 64; // odd line: channel 1 of testConfig()
    const MemRequest lone{(1ull << 20) | 64, 64, false};
    const MemRequest early_req{64, 64, true};
    const MemRequest late_req{0, 64, false};

    for (const bool flat : {true, false}) {
        for (const bool late : {false, true}) {
            auto make = [flat]() -> std::unique_ptr<MemoryIf> {
                if (flat)
                    return std::make_unique<FlatMemory>(40);
                return std::make_unique<DramModel>(testConfig());
            };
            const auto one_pass = make();
            const auto loop = make();
            const std::string what = std::string(flat ? "flat" : "banked") +
                                     (late ? " late" : " early");
            Cycles now = 1000;
            bool stayed = false;
            for (int round = 0; round < 4; ++round) {
                const Cycles at = late ? now + 5'000'000 : now;
                const MemRequest &left = late ? late_req : early_req;
                EXPECT_EQ(one_pass->issue(at, left), loop->issue(at, left));
                Cycles got, want;
                if (round % 2 == 0) {
                    got = one_pass->accessBatch(now, batch);
                    want = loop->MemoryIf::accessBatch(now, batch);
                } else {
                    got = one_pass->access(now, lone);
                    want = loop->MemoryIf::access(now, lone);
                }
                EXPECT_EQ(got, want) << what << " round " << round;
                EXPECT_EQ(one_pass->nextEventAt(), loop->nextEventAt())
                    << what << " round " << round;
                stayed |= loop->nextEventAt() != kNoPendingEvent;
                now = want + 10;
            }
            EXPECT_EQ(drainAll(*one_pass), drainAll(*loop)) << what;
            EXPECT_EQ(one_pass->requestCount(), loop->requestCount());
            // A flat controller serializes everything, so only the
            // banked model can complete a leftover after the batch.
            EXPECT_EQ(stayed, late && !flat) << what;
        }
    }
}

// ---------------------------------------------------------------------------
// Differential contract: accessBatch == per-request loop == async core.
// ---------------------------------------------------------------------------

TEST(Differential, EveryBackendBatchMatchesLoop)
{
    const auto reqs = randomStream(96, 0xbeef);
    for (auto &[name, mem] : allBackends()) {
        const BatchDivergence d = compareBatchToLoop(*mem, 500, reqs);
        EXPECT_FALSE(d.diverged)
            << name << " diverged at request " << d.index;
        ASSERT_EQ(d.loopDone.size(), reqs.size());
        EXPECT_EQ(d.batchDone,
                  *std::max_element(d.loopDone.begin(), d.loopDone.end()));
    }
}

TEST(Differential, CheckedAccessBatchReturnsBatchCompletion)
{
    FlatMemory m(40);
    const auto reqs = randomStream(8, 0x11);
    const Cycles done = checkedAccessBatch(m, 100, reqs);
    EXPECT_EQ(done, 100u + 40u * reqs.size());
}

TEST(Differential, CalibrationPathStreamIsBatchLoopIdentical)
{
    // The sharded per-shard calibration replays whole ORAM paths
    // through accessBatch; pin the contract on exactly that stream
    // shape (many same-cycle bucket reads, then same-cycle writes).
    DramModel m(testConfig());
    std::vector<MemRequest> path;
    for (unsigned l = 0; l < 20; ++l)
        path.push_back({(1ull << l) * 240, 240, false});
    checkedAccessBatch(m, 1000, path); // fatal on divergence
    for (auto &r : path)
        r.isWrite = true;
    checkedAccessBatch(m, 1000, path);
}

// ---------------------------------------------------------------------------
// resetTiming(): calibration-equivalent timing, preserved counters.
// ---------------------------------------------------------------------------

TEST(ResetTiming, FlatMemoryRestoresIdleTimingAndKeepsCounters)
{
    FlatMemory m(40);
    const auto traffic = randomStream(32, 0x3);
    for (const auto &r : traffic)
        m.access(0, r);
    const std::uint64_t reqs_before = m.requestCount();
    const std::uint64_t bytes_before = m.bytesMoved();
    ASSERT_GT(reqs_before, 0u);

    m.resetTiming();
    EXPECT_EQ(m.requestCount(), reqs_before) << "counters preserved";
    EXPECT_EQ(m.bytesMoved(), bytes_before);

    // Replays after the reset must time exactly like a fresh instance.
    FlatMemory fresh(40);
    const auto replay = randomStream(32, 0x7);
    for (const auto &r : replay)
        EXPECT_EQ(m.access(5, r), fresh.access(5, r));
}

TEST(ResetTiming, DramModelRestoresIdleTimingAndKeepsCounters)
{
    DramModel m(testConfig());
    const auto traffic = randomStream(128, 0x5);
    for (const auto &r : traffic)
        m.access(0, r);
    const std::uint64_t reqs_before = m.requestCount();
    const double hit_rate_before = m.rowHitRate();

    m.resetTiming();
    EXPECT_EQ(m.requestCount(), reqs_before) << "counters preserved";
    EXPECT_EQ(m.rowHitRate(), hit_rate_before)
        << "row hit statistics preserved";

    // Per-request completions of a calibration-style replay match a
    // fresh model bit for bit: banks idle, rows closed, buses free.
    DramModel fresh(testConfig());
    const auto replay = randomStream(128, 0x9);
    for (const auto &r : replay)
        ASSERT_EQ(m.access(1000, r), fresh.access(1000, r));
}

TEST(ResetTiming, AbortsInFlightTransactions)
{
    for (auto &[name, mem] : allBackends()) {
        mem->issue(0, {0, 64, false});
        mem->issue(0, {4096, 64, false});
        ASSERT_NE(mem->nextEventAt(), kNoPendingEvent) << name;
        mem->resetTiming();
        EXPECT_EQ(mem->nextEventAt(), kNoPendingEvent)
            << name << ": resetTiming must abort in-flight transactions";
        EXPECT_TRUE(mem->drainRetired(~Cycles{0} - 1).empty()) << name;
    }
}

} // namespace
} // namespace tcoram::dram
