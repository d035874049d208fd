/**
 * @file
 * Hot-path micro/throughput benchmark for the batched crypto engine
 * and the ORAM datapath it feeds. Measures, per available backend
 * (scalar reference, portable T-tables, AES-NI when the CPU has it):
 *
 *  - AES blocks/s through CryptoEngineIf::encryptBlocks (batched)
 *  - CTR MB/s through CtrCipher::xcrypt on a path-sized buffer
 *  - end-to-end functional PathOram accesses/s (bench geometry)
 *
 * and emits them as BENCH_hotpath.json; CI fails on regressions via
 * --check.
 *
 * Usage:
 *   bench_hotpath [--quick] [--json <path>] [--check <baseline.json>]
 *
 * --check gates against a checked-in baseline, two-tier so it works
 * on heterogeneous CI runners:
 *  - ratio gate (machine-independent, primary): the measured
 *    ttable-vs-scalar ORAM speedup must stay within 20% of baseline
 *    key "speedup_oram_ttable_vs_scalar" — a crypto-path regression
 *    (e.g. falling back to per-block scalar crypto) collapses the
 *    ratio regardless of runner speed;
 *  - absolute floor (backstop): measured ttable ORAM accesses/s must
 *    exceed "oram_accesses_per_s_ttable_floor", a deliberately
 *    conservative value that catches whole-datapath slowdowns (which
 *    a ratio cannot see) without flaking on slower runners.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "crypto/crypto_engine.hh"
#include "crypto/ctr.hh"
#include "crypto/prf.hh"
#include "oram/path_oram.hh"

using namespace tcoram;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** AES throughput: blocks/s through one batched encryptBlocks call. */
double
benchAes(const crypto::CryptoEngineIf &engine, std::size_t iters)
{
    std::vector<crypto::Block128> blocks(4096);
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i][0] = static_cast<std::uint8_t>(i);
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it)
        engine.encryptBlocks(blocks);
    const double dt = secondsSince(t0);
    return static_cast<double>(blocks.size()) * static_cast<double>(iters) /
           dt;
}

/** CTR throughput in MB/s over a path-sized (24 KB) buffer. */
double
benchCtr(const crypto::CtrCipher &cipher, std::size_t iters)
{
    std::vector<std::uint8_t> buf(24 * 1024, 0x5a);
    const auto t0 = Clock::now();
    for (std::size_t it = 0; it < iters; ++it)
        cipher.xcrypt(it, buf, buf);
    const double dt = secondsSince(t0);
    return static_cast<double>(buf.size()) * static_cast<double>(iters) /
           dt / 1e6;
}

/**
 * End-to-end functional ORAM accesses/s: mixed read/write steady
 * state over the bench tree geometry (2^16 64-B blocks, Z = 3), the
 * same shape the fig-5 experiments charge per periodic access.
 */
double
benchOram(crypto::CryptoBackend backend, std::size_t accesses)
{
    oram::OramConfig c;
    c.numBlocks = 1ull << 16;
    c.recursionLevels = 0;
    c.stashCapacity = 400;
    oram::FlatPositionMap map(c.numBlocks);
    oram::PathOram o(c, map, 42, 0, backend);

    std::vector<std::uint8_t> out(c.blockBytes);
    std::vector<std::uint8_t> data(c.blockBytes, 0x5a);
    Rng rng(7);
    for (int i = 0; i < 500; ++i)
        o.accessInto(rng.nextBounded(4096), oram::Op::Read, {}, out);

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < accesses; ++i) {
        const BlockId id = rng.nextBounded(4096);
        if (i % 2 == 0)
            o.accessInto(id, oram::Op::Write, data, out);
        else
            o.accessInto(id, oram::Op::Read, {}, out);
    }
    return static_cast<double>(accesses) / secondsSince(t0);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_hotpath.json");
    const char *baseline_path = bench::argValue(argc, argv, "--check", nullptr);

    // Quick mode still gives the gated scalar/ttable ORAM ratio a few
    // tenths of a second per side — 800-access samples measured a 42%
    // run-to-run spread, far beyond the gate's tolerance.
    const std::size_t aes_iters = quick ? 200 : 2000;
    const std::size_t ctr_iters = quick ? 400 : 4000;
    const std::size_t oram_accesses = quick ? 10000 : 20000;
    const std::size_t scalar_oram_accesses = quick ? 2400 : 4000;

    bench::banner("hot-path: batched AES-CTR engine + ORAM datapath");
    std::printf("aesni available: %s\n",
                crypto::aesniAvailable() ? "yes" : "no");

    std::vector<crypto::CryptoBackend> backends = {
        crypto::CryptoBackend::Scalar, crypto::CryptoBackend::TTable};
    if (crypto::aesniAvailable())
        backends.push_back(crypto::CryptoBackend::AesNi);

    // Preserve key order for a stable JSON artifact.
    std::vector<std::pair<std::string, double>> results;
    auto put = [&](const std::string &key, double v) {
        results.emplace_back(key, v);
    };

    double oram_scalar = 0.0, oram_ttable = 0.0, oram_best = 0.0;
    for (const auto be : backends) {
        const auto key = crypto::keyFromSeed(1);
        const auto engine = crypto::makeCryptoEngine(key, be);
        const crypto::CtrCipher cipher(key, be);
        const char *name = engine->name();

        const double aes = benchAes(*engine, aes_iters);
        const double ctr = benchCtr(cipher, ctr_iters);
        const bool is_scalar = (be == crypto::CryptoBackend::Scalar);
        const double oram =
            benchOram(be, is_scalar ? scalar_oram_accesses : oram_accesses);

        put(std::string("aes_blocks_per_s_") + name, aes);
        put(std::string("ctr_mb_per_s_") + name, ctr);
        put(std::string("oram_accesses_per_s_") + name, oram);
        if (be == crypto::CryptoBackend::Scalar)
            oram_scalar = oram;
        if (be == crypto::CryptoBackend::TTable)
            oram_ttable = oram;
        oram_best = std::max(oram_best, oram);

        std::printf("%-24s aes %10.3e blk/s   ctr %8.1f MB/s   "
                    "oram %9.1f acc/s\n",
                    name, aes, ctr, oram);
    }
    put("oram_accesses_per_s_best", oram_best);
    put("speedup_oram_ttable_vs_scalar", oram_ttable / oram_scalar);
    put("speedup_oram_best_vs_scalar", oram_best / oram_scalar);

    std::printf("portable speedups: oram %.1fx (best %.1fx)\n",
                oram_ttable / oram_scalar, oram_best / oram_scalar);

    // --- JSON artifact ---
    {
        std::ostringstream os;
        os << "{\n";
        os << "  \"bench\": \"hotpath\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"aesni_available\": "
           << (crypto::aesniAvailable() ? "true" : "false");
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

    // --- CI regression gate ---
    if (baseline_path != nullptr) {
        const double ratio_base = bench::baselineNumber(
            baseline_path, "speedup_oram_ttable_vs_scalar");
        const double abs_floor = bench::baselineNumber(
            baseline_path, "oram_accesses_per_s_ttable_floor");
        const double ratio = oram_ttable / oram_scalar;
        const double ratio_floor = 0.8 * ratio_base;
        std::printf("regression check: ttable/scalar oram speedup "
                    "%.2fx vs baseline %.2fx (floor %.2fx); "
                    "ttable %.1f acc/s vs absolute floor %.1f\n",
                    ratio, ratio_base, ratio_floor, oram_ttable,
                    abs_floor);
        bool ok = true;
        if (ratio < ratio_floor) {
            std::printf("FAIL: >20%% crypto-path regression "
                        "(speedup ratio) vs checked-in baseline\n");
            ok = false;
        }
        if (oram_ttable < abs_floor) {
            std::printf("FAIL: ttable ORAM accesses/s below the "
                        "absolute baseline floor\n");
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("OK\n");
    }
    return 0;
}
