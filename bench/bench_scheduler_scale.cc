/**
 * @file
 * Million-session scheduler scaling bench: the lock-free ring front
 * (sim/shard_worker.hh) on dispatch-bound workloads, plus the
 * million-open-session smoke the descriptor design exists for.
 *
 * Three sections, every one also asserted under --check:
 *
 *  1. DISPATCH THROUGHPUT — S sessions, M = 16 shards, open-loop
 *     backlog; the activation list is O(1) per serve under backlog.
 *     With --baseline <path> the 1-worker transactions/second must
 *     clear the conservative floor in bench/scheduler_baseline.json,
 *     which also records the removed O(S) dense scheduler's rate on
 *     the same point as a reference.
 *  2. WORKER SWEEP — the same point at 1, 4 and min(16, hw) worker
 *     threads. Every worker count must produce a bit-identical
 *     per-shard summary CSV (the determinism contract); wall-clock
 *     speedup is reported, and gated only loosely (>= 0.3x of the
 *     1-thread run) because the phased rounds serialize on few-core
 *     hosts while the barrier overhead stays.
 *  3. MILLION-SESSION SMOKE — open 1,000,000 descriptor sessions
 *     (unlimited budgets), gate the resident-set growth of the opens
 *     at "a few hundred MB" (< 600 MB), then push a spread of real
 *     transactions through and require every one retired (fence ==
 *     tokens issued).
 *
 * Usage:
 *   bench_scheduler_scale [--quick] [--json <path>] [--check]
 *                         [--baseline <path>]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "sim/serving_stack.hh"

using namespace tcoram;

namespace {

constexpr Cycles kRate = 1000;
constexpr std::uint64_t kRouteSeed = 7;
constexpr std::uint32_t kShards = 16;

/**
 * The one public stack every point runs: M = 16 unrecorded timing
 * shards behind the ring scheduler with one lane. The rate is static,
 * so the dispatch order cannot move the learner and every thread count
 * must produce the same observable envelope.
 */
sim::ServingStack::Config
stackConfig(unsigned threads)
{
    sim::ServingStack::Config cfg;
    cfg.shards = kShards;
    cfg.rate = kRate;
    cfg.routeSeed = kRouteSeed;
    cfg.record = false;
    cfg.opts.lanes = 1;
    cfg.opts.ringCapacity = 4096;
    cfg.opts.threads = threads;
    cfg.opts.recordLatencies = false; // samples would dominate the smoke
    return cfg;
}

/** Deterministic per-(session, k) block id, spread for the router. */
std::uint64_t
blockId(std::size_t session, std::uint64_t k)
{
    return session * 1'000'003ull + k * 7919ull;
}

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** VmRSS in KiB (0 when /proc is unavailable). */
std::uint64_t
rssKb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtoull(line.c_str() + 6, nullptr, 10);
    return 0;
}

/** Everything a timed engine run reports. */
struct EnginePoint
{
    std::string engine;
    unsigned threads = 1;
    std::uint64_t served = 0;
    double wallSeconds = 0.0;
    double txnsPerSec = 0.0;
    Cycles lastCompletion = 0;
    std::string csv; ///< per-shard summary (identity check)
};

/**
 * The ONE dispatch workload every point runs: S sessions each queue
 * per-session transactions with arrivals at cycle k — the full
 * backlog the activation list is O(1) under.
 */
EnginePoint
runRing(std::size_t sessions, std::uint64_t total_txns, unsigned threads)
{
    sim::ServingStack stack(stackConfig(threads));
    sim::RingScheduler &sched = stack.scheduler();
    for (std::size_t s = 0; s < sessions; ++s)
        sched.openSession(mixSeed(0x5a7d, s));

    auto drain = [&] {
        sim::SessionRing::Completion c;
        while (sched.lane(0).popCompletion(c)) {
        }
    };
    const std::uint64_t per_session = total_txns / sessions;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k < per_session; ++k)
        for (std::size_t s = 0; s < sessions; ++s) {
            const auto txn = timing::OramTransaction::real(blockId(s, k));
            while (!sched.trySubmit(static_cast<std::uint32_t>(s), k, txn)
                        .has_value()) {
                sched.runUntilIdle();
                drain();
            }
        }
    sched.runUntilIdle();
    drain();
    const auto t1 = std::chrono::steady_clock::now();

    EnginePoint p;
    p.engine = "ring";
    p.threads = threads;
    p.served = sched.servedTotal();
    p.wallSeconds = seconds(t0, t1);
    p.txnsPerSec = p.wallSeconds > 0.0
                       ? static_cast<double>(p.served) / p.wallSeconds
                       : 0.0;
    p.lastCompletion = sched.lastCompletion();
    p.csv = sched.csv();
    return p;
}

/** Million-open-session smoke results. */
struct SmokePoint
{
    std::size_t sessions = 0;
    std::uint64_t txns = 0;
    std::uint64_t retired = 0;
    double openSeconds = 0.0;
    double runSeconds = 0.0;
    std::uint64_t openRssKb = 0; ///< RSS growth across the opens
    bool fenceFinal = false;     ///< fence reached the last token
};

SmokePoint
runMillionSmoke(std::size_t sessions, std::uint64_t txns)
{
    sim::ServingStack stack(stackConfig(1));
    sim::RingScheduler &sched = stack.scheduler();

    SmokePoint p;
    p.sessions = sessions;
    p.txns = txns;
    const std::uint64_t rss0 = rssKb();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < sessions; ++s)
        sched.openSession(mixSeed(0xbeef, s));
    const auto t1 = std::chrono::steady_clock::now();
    p.openSeconds = seconds(t0, t1);
    p.openRssKb = rssKb() - rss0;

    // A sparse spread of real work across the session space (every
    // descriptor stays cold except the ones actually submitting —
    // exactly the long-tail shape a million-session front serves).
    auto drain = [&] {
        sim::SessionRing::Completion c;
        while (sched.lane(0).popCompletion(c)) {
        }
    };
    for (std::uint64_t i = 0; i < txns; ++i) {
        const auto sid =
            static_cast<std::uint32_t>((i * 4099ull) % sessions);
        const auto txn = timing::OramTransaction::real(blockId(sid, i));
        while (!sched.trySubmit(sid, i, txn).has_value()) {
            sched.runUntilIdle();
            drain();
        }
    }
    sched.runUntilIdle();
    drain();
    const auto t2 = std::chrono::steady_clock::now();
    p.runSeconds = seconds(t1, t2);
    p.retired = sched.servedTotal();
    p.fenceFinal = sched.lane(0).retiredFence() ==
                   sched.lane(0).submitted();
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_scheduler.json");
    const char *baseline_path =
        bench::argValue(argc, argv, "--baseline", nullptr);

    const std::size_t sessions = quick ? 2048 : 4096;
    const std::uint64_t total_txns = quick ? 8192 : 16384;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned hw_threads = std::min<unsigned>(kShards, hw);

    bench::banner("million-session scheduler: rings + shard workers");
    std::printf("hardware threads: %u\n", hw);
    std::printf("%-10s %-8s %-10s %-10s %-12s %-10s\n", "engine",
                "threads", "sessions", "served", "wall-ms", "txn/s");

    // --- 1. dispatch throughput: the O(1) activation list
    EnginePoint ring1 = runRing(sessions, total_txns, 1);
    auto row = [](const EnginePoint &p, std::size_t n_sessions) {
        std::printf("%-10s %-8u %-10zu %-10llu %-12.1f %-10.0f\n",
                    p.engine.c_str(), p.threads, n_sessions,
                    (unsigned long long)p.served, 1e3 * p.wallSeconds,
                    p.txnsPerSec);
    };
    row(ring1, sessions);
    double floor = 0.0;
    if (baseline_path != nullptr) {
        floor = bench::baselineNumber(baseline_path, "ring_txn_per_s_floor");
        const double legacy_ref = bench::baselineNumber(
            baseline_path, "reference_legacy_txn_per_s");
        std::printf("ring txn/s vs baseline: floor %.0f, %.1fx the removed "
                    "dense scheduler's %.0f\n",
                    floor, ring1.txnsPerSec / legacy_ref, legacy_ref);
    }

    // --- 2. worker sweep: bit-identity + wall clock
    std::vector<unsigned> worker_counts{1, 4};
    if (hw_threads != 1 && hw_threads != 4)
        worker_counts.push_back(hw_threads);
    std::vector<EnginePoint> workers{ring1};
    bool identical = true;
    for (std::size_t i = 1; i < worker_counts.size(); ++i) {
        EnginePoint p = runRing(sessions, total_txns, worker_counts[i]);
        row(p, sessions);
        if (p.csv != ring1.csv || p.served != ring1.served ||
            p.lastCompletion != ring1.lastCompletion)
            identical = false;
        workers.push_back(std::move(p));
    }
    std::printf("N-worker vs 1-worker shard CSV: %s\n",
                identical ? "bit-identical" : "DIFFERS");

    // --- 3. million-session smoke
    const std::size_t smoke_sessions = 1'000'000;
    const std::uint64_t smoke_txns = quick ? 20'000 : 50'000;
    const SmokePoint smoke = runMillionSmoke(smoke_sessions, smoke_txns);
    std::printf("smoke: %zu sessions opened in %.2fs (+%llu MB RSS), "
                "%llu/%llu txns retired in %.2fs, fence %s\n",
                smoke.sessions, smoke.openSeconds,
                (unsigned long long)(smoke.openRssKb / 1024),
                (unsigned long long)smoke.retired,
                (unsigned long long)smoke.txns, smoke.runSeconds,
                smoke.fenceFinal ? "final" : "NOT FINAL");

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        char buf[64];
        auto num = [&](double v) {
            std::snprintf(buf, sizeof(buf), "%.6g", v);
            return std::string(buf);
        };
        os << "{\n  \"bench\": \"scheduler_scale\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"hardware_threads\": " << hw << ",\n";
        os << "  \"shards\": " << kShards << ",\n";
        os << "  \"sessions\": " << sessions << ",\n";
        os << "  \"total_txns\": " << total_txns << ",\n";
        os << "  \"ring_txn_per_s_floor\": " << num(floor) << ",\n";
        os << "  \"worker_csv_identical\": "
           << (identical ? "true" : "false") << ",\n";
        os << "  \"engines\": [";
        bool first = true;
        auto emit = [&](const EnginePoint &p) {
            os << (first ? "\n    {" : ",\n    {");
            first = false;
            os << "\"engine\": \"" << p.engine << "\"";
            os << ", \"threads\": " << p.threads;
            os << ", \"served\": " << p.served;
            os << ", \"wall_seconds\": " << num(p.wallSeconds);
            os << ", \"txns_per_sec\": " << num(p.txnsPerSec);
            os << ", \"last_completion\": " << p.lastCompletion;
            os << "}";
        };
        for (const auto &p : workers)
            emit(p);
        os << "\n  ],\n";
        os << "  \"million_smoke\": {";
        os << "\"sessions\": " << smoke.sessions;
        os << ", \"txns\": " << smoke.txns;
        os << ", \"retired\": " << smoke.retired;
        os << ", \"open_seconds\": " << num(smoke.openSeconds);
        os << ", \"run_seconds\": " << num(smoke.runSeconds);
        os << ", \"open_rss_mb\": " << smoke.openRssKb / 1024;
        os << ", \"fence_final\": "
           << (smoke.fenceFinal ? "true" : "false");
        os << "}\n}\n";
        std::ofstream f(json_path);
        if (!f)
            tcoram_fatal("cannot write ", json_path);
        f << os.str();
        std::printf("wrote %s\n", json_path.c_str());
    }

    // --- CI gate ---
    if (check) {
        bool ok = true;
        if (ring1.txnsPerSec < floor) {
            std::printf("FAIL: ring dispatch %.0f txn/s below the "
                        "baseline floor %.0f\n",
                        ring1.txnsPerSec, floor);
            ok = false;
        }
        if (!identical) {
            std::printf("FAIL: worker counts disagree on the shard "
                        "summary CSV\n");
            ok = false;
        }
        // Threads can't beat one core; gate only the sanity floor so
        // the barrier overhead never regresses into pathology.
        for (const auto &p : workers) {
            if (p.threads == 1 || ring1.txnsPerSec <= 0.0)
                continue;
            const double rel = p.txnsPerSec / ring1.txnsPerSec;
            if (rel < 0.3) {
                std::printf("FAIL: %u workers run at %.2fx the "
                            "1-worker rate (< 0.3x floor)\n",
                            p.threads, rel);
                ok = false;
            }
        }
        if (smoke.retired != smoke.txns || !smoke.fenceFinal) {
            std::printf("FAIL: million-session smoke retired %llu of "
                        "%llu (fence %s)\n",
                        (unsigned long long)smoke.retired,
                        (unsigned long long)smoke.txns,
                        smoke.fenceFinal ? "final" : "stuck");
            ok = false;
        }
        if (smoke.openRssKb != 0 && smoke.openRssKb / 1024 > 600) {
            std::printf("FAIL: %zu opens grew RSS by %llu MB "
                        "(>= 600 MB)\n",
                        smoke.sessions,
                        (unsigned long long)(smoke.openRssKb / 1024));
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("check OK: %sbit-identical worker sweep, "
                    "million-session smoke within budget\n",
                    baseline_path != nullptr ? "dispatch above the floor, "
                                             : "");
    }
    return 0;
}
