/**
 * @file
 * Functional-datapath throughput bench: the recursive Path ORAM with
 * fused position-map updates (one path access per tree per logical
 * access) and path-level batched crypto (one decrypt and one
 * write-back encrypt per tree: 2·(H+1) engine calls per access for H
 * recursion stages).
 *
 * Geometry mirrors the timing experiments' FunctionalOramDevice: the
 * paper's 2^26-block modeled tree with the functional datapath capped
 * at 2^16 blocks (ids fold modulo the realized capacity), recursion
 * chain included.
 *
 * Usage:
 *   bench_functional_rate [--quick] [--check] [--baseline <path>]
 *                         [--json <path>] [--depth-sweep]
 *
 * --check runs the deterministic, machine-independent gates:
 *   1. fusion: every tree's accessCount() advances by exactly 1 per
 *      logical access (a get+set cascade would cost 3 per stage);
 *   2. crypto-call delta per access == 2·treeCount().
 * --baseline <path> adds the throughput backstop: accesses/s at H = 3
 * must exceed the file's "acc_per_s_h3_floor", a deliberately
 * conservative value (bench/functional_baseline.json).
 * --depth-sweep measures and gates H in {0,1,2,3} (the ASan CI job
 * drives this with --quick).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "oram/path_oram.hh"

using namespace tcoram;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FunctionalOramDevice's realized geometry: paper-modeled tree with
 *  the functional datapath capped at 2^16 blocks. */
oram::OramConfig
paperScaleConfig(unsigned recursion_levels)
{
    oram::OramConfig c = oram::OramConfig::paperConfig();
    c.numBlocks = std::min<std::uint64_t>(c.numBlocks, 1ull << 16);
    c.recursionLevels = recursion_levels;
    c.stashCapacity = std::max<std::size_t>(c.stashCapacity, 1024);
    return c;
}

struct RunResult
{
    double accPerS = 0.0;
    std::uint64_t cryptoCalls = 0; ///< engine calls over the sample
    /** Every tree's accessCount() advanced by exactly one per logical
     *  access over the measured sample. */
    bool onePathPerTree = true;
};

/** Warm up, run @p accesses of the standard mixed workload, measure. */
RunResult
run(const oram::OramConfig &c, std::size_t accesses)
{
    oram::RecursivePathOram o(c, 4242);
    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0x5a);
    Rng rng(7);

    // Trees are built lazily: a bucket is encrypted, and its page
    // faulted in, on first use. Write every bucket once, so the timed
    // window measures the steady state and not the image's set-up.
    for (std::size_t t = 0; t < o.treeCount(); ++t)
        for (std::uint64_t b = 0; b < o.tree(t).config().numBuckets(); ++b)
            (void)o.tree(t).bucketCiphertext(b);
    for (int i = 0; i < 400; ++i)
        o.accessInto(rng.nextBounded(4096), oram::Op::Read, {}, out);

    std::vector<std::uint64_t> paths0(o.treeCount());
    for (std::size_t t = 0; t < o.treeCount(); ++t)
        paths0[t] = o.tree(t).accessCount();
    const std::uint64_t calls0 = o.cryptoCalls();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < accesses; ++i) {
        const BlockId id = rng.nextBounded(4096);
        if (i % 2 == 0) {
            data[0] = static_cast<std::uint8_t>(i);
            o.accessInto(id, oram::Op::Write, data, out);
        } else {
            o.accessInto(id, oram::Op::Read, {}, out);
        }
    }
    RunResult r;
    r.accPerS = static_cast<double>(accesses) / secondsSince(t0);
    r.cryptoCalls = o.cryptoCalls() - calls0;
    for (std::size_t t = 0; t < o.treeCount(); ++t)
        r.onePathPerTree &= o.tree(t).accessCount() - paths0[t] == accesses;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const bool sweep = bench::hasFlag(argc, argv, "--depth-sweep");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_functional.json");
    const char *baseline_path =
        bench::argValue(argc, argv, "--baseline", nullptr);

    const std::size_t accesses = quick ? 2000 : 20000;

    bench::banner("functional datapath: fused map updates + path-level "
                  "batched crypto");

    std::vector<std::pair<std::string, double>> results;
    auto put = [&](const std::string &key, double v) {
        results.emplace_back(key, v);
    };

    bool ok = true;
    auto gate = [&](bool cond, const char *what) {
        if (!cond) {
            std::printf("FAIL: %s\n", what);
            ok = false;
        }
    };

    const std::vector<unsigned> depths =
        sweep ? std::vector<unsigned>{0, 1, 2, 3} : std::vector<unsigned>{3};

    double headline = 0.0;
    for (const unsigned levels : depths) {
        const oram::OramConfig c = paperScaleConfig(levels);
        const std::uint64_t trees = 1 + c.recursionChain().size();
        const RunResult r = run(c, accesses);
        const double calls_per_access =
            static_cast<double>(r.cryptoCalls) / static_cast<double>(accesses);

        std::printf("H=%u (%llu trees): %9.1f acc/s   "
                    "(%.2f crypto calls/access)\n",
                    levels, static_cast<unsigned long long>(trees),
                    r.accPerS, calls_per_access);

        const std::string suffix = "_h" + std::to_string(levels);
        put("acc_per_s" + suffix, r.accPerS);
        put("crypto_calls_per_access" + suffix, calls_per_access);
        if (levels == 3)
            headline = r.accPerS;

        if (check) {
            gate(r.onePathPerTree,
                 "a tree did not run exactly one path access per "
                 "logical access");
            gate(r.cryptoCalls == 2 * trees * accesses,
                 "crypto calls per access != 2 * treeCount()");
        }
    }

    if (baseline_path != nullptr) {
        const double floor =
            bench::baselineNumber(baseline_path, "acc_per_s_h3_floor");
        std::printf("throughput backstop: H=3 %.1f acc/s vs floor %.1f\n",
                    headline, floor);
        gate(headline >= floor, "H=3 accesses/s below the baseline floor");
    }

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os << "{\n";
        os << "  \"bench\": \"functional_rate\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false");
        char buf[64];
        for (const auto &[key, v] : results) {
            std::snprintf(buf, sizeof(buf), "%.6g", v);
            os << ",\n  \"" << key << "\": " << buf;
        }
        os << "\n}\n";
        std::ofstream f(json_path);
        if (!f)
            tcoram_fatal("cannot write ", json_path);
        f << os.str();
        std::printf("wrote %s\n", json_path.c_str());
    }

    if (!ok)
        return 1;
    if (check || baseline_path != nullptr)
        std::printf("check OK%s\n", sweep ? " (depth sweep)" : "");
    return 0;
}
