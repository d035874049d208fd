/**
 * @file
 * fig6_grid: the paper's Figure 6 grid — the six evaluated schemes x
 * the eleven SPEC profiles, 600K measured + 2.4M fast-forward
 * instructions per cell, epoch0 = 2^18, timing-only ORAM device over
 * sync DRAM — run through sim::ExperimentEngine on a fixed thread
 * count.
 *
 * Measured window: the engine runs one configuration row (11 cells)
 * at a time, rows in grid order, whole grid passes only. A row's
 * host time is the interquartile mean of its repetitions; the grid's
 * host time is the sum over the six rows.
 *
 * Checks: every cell retires exactly its instruction budget; every
 * enforced cell's rate decisions sit on epoch boundaries with rates
 * drawn from R, and its realized leakage stays within |E|*lg|R|;
 * every repetition of a row is byte-identical; the whole grid at a
 * second engine thread count is byte-identical to the row passes.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common.hh"
#include "layers.hh"
#include "oram/oram_config.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/experiment.hh"
#include "sim/experiment_engine.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "timing/epoch_schedule.hh"
#include "timing/leakage.hh"
#include "timing/rate_set.hh"

namespace tcbench {

using namespace tcoram;
using bench::kInsts;
using bench::kWarmup;
using bench::suiteProfiles;

namespace {

/** Engine threads of the measured window: fixed, never nproc or
 *  TCORAM_THREADS, so a run's host figures do not depend on the host's
 *  core count or environment. */
constexpr unsigned kEngineThreads = 2;
/** Thread count of the determinism twin. */
constexpr unsigned kTwinThreads = 1;
constexpr std::size_t kBaseDram = 0;
constexpr std::size_t kDynamic = 2;
/** Set-up passes at entry, and again after every measured row (so
 *  the set-up samples span the run like the rate samples do). */
constexpr int kSetupPasses = 5;
constexpr int kSetupPassesPerRow = 3;
constexpr std::size_t kMinPasses = 3;

/** The Figure 6 grid's configurations (bench::paperConfigs(), the
 *  repository's fig6 bench) at the run's seed. */
std::vector<sim::SystemConfig>
gridConfigs(std::uint64_t seed)
{
    auto configs = bench::paperConfigs();
    for (auto &c : configs)
        c.seed = seed;
    return configs;
}

/** The configuration of grid cell (c, w), seeded as the engine does. */
sim::SystemConfig
cellConfig(const sim::SystemConfig &cfg, std::size_t w)
{
    sim::SystemConfig c = cfg;
    c.seed = sim::ExperimentEngine::cellSeed(cfg, w);
    return c;
}

/** Set-up as the workload pays it: configs, profiles and the stack
 *  of every cell (core, caches, DRAM, calibrated ORAM device, epoch
 *  timer, learner, enforcer). */
double
setupPass(std::uint64_t seed)
{
    const auto t0 = Clock::now();
    const auto configs = gridConfigs(seed);
    const auto profiles = suiteProfiles();
    for (const auto &cfg : configs)
        for (std::size_t w = 0; w < profiles.size(); ++w)
            sim::SecureProcessor sp(cellConfig(cfg, w), profiles[w]);
    return secondsSince(t0);
}

/** Body of a CSV (everything after the header line). */
std::string
csvBody(const std::string &csv)
{
    const auto nl = csv.find('\n');
    return nl == std::string::npos ? std::string() : csv.substr(nl + 1);
}

/** The timing-channel protection of one enforced cell: decisions on
 *  epoch boundaries, rates from R, realized bits within the bound. */
bool
protectionHolds(const sim::SystemConfig &cfg, const sim::SimResult &r,
                std::string &why)
{
    if (cfg.scheme != sim::Scheme::Dynamic &&
        cfg.scheme != sim::Scheme::Static)
        return true;
    const timing::RateSet rates =
        cfg.scheme == sim::Scheme::Static
            ? timing::RateSet(std::vector<Cycles>{cfg.staticRate})
            : timing::RateSet(cfg.rateCount, cfg.rateLo, cfg.rateHi,
                              cfg.linearSpacing
                                  ? timing::RateSet::Spacing::Linear
                                  : timing::RateSet::Spacing::Log);
    const timing::EpochSchedule schedule(cfg.epoch0, cfg.epochGrowth,
                                         cfg.tmax);
    // Epoch 0 runs at the public initial rate; every later rate is a
    // learner decision and must come from R.
    const Cycles initial = cfg.scheme == sim::Scheme::Static
                               ? cfg.staticRate
                               : cfg.initialRate;
    for (const auto &d : r.rateDecisions) {
        const auto &v = rates.values();
        if (d.epoch == 0 ? d.rate != initial
                         : std::find(v.begin(), v.end(), d.rate) == v.end()) {
            why = "rate " + std::to_string(d.rate) + " not in R";
            return false;
        }
        if (d.startCycle != schedule.epochStart(d.epoch)) {
            why = "rate change off an epoch boundary";
            return false;
        }
    }
    const double realized = timing::LeakageAccountant::oramTimingBits(
        rates.size(), r.epochsUsed);
    if (realized > r.paperLeakageBits + 1e-9 ||
        r.simLeakageBits > r.paperLeakageBits + 1e-9) {
        why = "realized leakage " + std::to_string(realized) +
              " bits exceeds |E|*lg|R| = " +
              std::to_string(r.paperLeakageBits);
        return false;
    }
    return true;
}

/** Shared result figures of the grid (sim results, exact per seed). */
struct GridFigures
{
    double slowdown = 0.0;
    double powerW = 0.0;
    double dummyFrac = 0.0;
    double simMcycles = 0.0;
    double leakBits = 0.0;
    std::uint64_t txns = 0;
    std::uint64_t cryptoBytes = 0;
};

GridFigures
figures(const std::vector<std::vector<sim::SimResult>> &rows)
{
    GridFigures f;
    std::vector<double> xs;
    const std::size_t nw = rows[kDynamic].size();
    for (std::size_t w = 0; w < nw; ++w) {
        const auto &dyn = rows[kDynamic][w];
        xs.push_back(sim::perfOverheadX(dyn, rows[kBaseDram][w]));
        f.powerW += dyn.watts / static_cast<double>(nw);
        f.dummyFrac += dyn.dummyFraction() / static_cast<double>(nw);
    }
    f.slowdown = sim::geoMean(xs);
    // Realized leakage: epochs used x lg|R|, the worst cell of the row.
    for (const auto &r : rows[kDynamic])
        f.leakBits = std::max(f.leakBits, r.simLeakageBits);
    for (const auto &row : rows)
        for (const auto &r : row) {
            f.simMcycles += static_cast<double>(r.cycles) * 1e-6;
            f.txns += r.oramReal + r.oramDummy;
            f.cryptoBytes += r.cryptoBytes;
        }
    return f;
}

/** Span names of the cells of each configuration row. */
const char *const kCellSpans[] = {
    "sim.cell.base_dram",  "sim.cell.base_oram",  "sim.cell.dynamic_R4_E4",
    "sim.cell.static_300", "sim.cell.static_500", "sim.cell.static_1300",
};
static_assert(std::size(kCellSpans) == std::size(kGridConfigNames));

/** What a traced row yields: its host time, span sums and results. */
struct TracedRow
{
    double wallS = 0.0;
    double ctorS = 0.0;
    double busyS = 0.0;
    /** Crypto calls the cells' ORAM datapaths really issued. */
    std::uint64_t datapathCryptoCalls = 0;
    std::vector<sim::SimResult> results;
};

std::uint64_t
datapathCryptoCalls(const timing::OramDeviceIf *dev)
{
    if (const auto *f = dynamic_cast<const oram::FunctionalOramDevice *>(dev))
        return f->functionalOram().cryptoCalls();
    if (const auto *s = dynamic_cast<const oram::ShardedOramDevice *>(dev)) {
        std::uint64_t n = 0;
        for (std::uint32_t i = 0; i < s->shardCount(); ++i)
            n += datapathCryptoCalls(&s->shard(i));
        return n;
    }
    return 0; // the timing-only device has no datapath
}

/** Row @p c run the way the engine runs it (kEngineThreads workers
 *  pulling cells), each cell a span around its SecureProcessor ctor +
 *  run, all under one "grid.row" span of @p log. */
TracedRow
tracedRow(const sim::SystemConfig &cfg, std::size_t c,
          const std::vector<workload::Profile> &profiles, SpanLog &log)
{
    TracedRow row;
    const std::size_t nw = profiles.size();
    row.results.resize(nw);
    std::vector<SpanLog> logs(kEngineThreads);
    std::vector<std::uint64_t> calls(kEngineThreads, 0);
    std::atomic<std::size_t> next{0};
    auto worker = [&](std::size_t t) {
        for (;;) {
            const std::size_t w = next.fetch_add(1);
            if (w >= nw)
                return;
            SpanLog::Scope cell(logs[t], kCellSpans[c]);
            const std::size_t ctor = logs[t].open("sim.ctor");
            sim::SecureProcessor sp(cellConfig(cfg, w), profiles[w]);
            logs[t].close(ctor);
            {
                SpanLog::Scope run(logs[t], "sim.run");
                row.results[w] = sp.run(kInsts, kWarmup);
            }
            calls[t] += datapathCryptoCalls(sp.oramDevice());
        }
    };
    const std::size_t span = log.open("grid.row");
    runOnThreads(kEngineThreads, worker);
    log.close(span);
    row.wallS = log.seconds(span);
    for (unsigned t = 0; t < kEngineThreads; ++t) {
        row.datapathCryptoCalls += calls[t];
        for (const auto &s : logs[t].spans()) {
            const double sec = static_cast<double>(s.endNs - s.startNs) * 1e-9;
            if (std::strcmp(s.name, "sim.ctor") == 0)
                row.ctorS += sec;
            if (std::strcmp(s.name, kCellSpans[c]) == 0)
                row.busyS += sec;
        }
        log.merge(logs[t], static_cast<std::int64_t>(span));
    }
    return row;
}

} // namespace

Result
runGrid(const Options &opt)
{
    Result res;
    // --- set-up, repeated; the lower decile of the samples is setup_s
    std::vector<double> setups;
    for (int k = 0; k < kSetupPasses; ++k)
        setups.push_back(setupPass(opt.seed));

    const auto configs = gridConfigs(opt.seed);
    const auto profiles = suiteProfiles();
    for (std::size_t c = 0; c < configs.size(); ++c)
        if (configs[c].name != kGridConfigNames[c])
            res.fail("grid config " + std::to_string(c) + " is " +
                     configs[c].name + ", expected " + kGridConfigNames[c]);
    const std::size_t nc = configs.size(), nw = profiles.size();
    const sim::ExperimentEngine engine(kEngineThreads);

    // Traced runs: spans, the counting DRAM decorator (only the
    // stacks of traced rows get it) and the isolated layer drives.
    DramCounters &dram = countingDram();
    SpanLog log;
    std::vector<LayerDrives> drives;
    std::vector<std::vector<double>> traced_s(nc), cell_s(nc), ctor_s(nc);
    std::vector<double> busy_s;
    std::uint64_t datapath_calls = 0;
    if (opt.trace)
        installCountingDram();

    // --- measured window: one engine run per configuration row, rows
    // in grid order, whole passes only. A traced run follows each
    // engine row with the same row traced, so both see the same host.
    std::vector<std::vector<double>> row_s(nc);
    std::vector<std::vector<sim::SimResult>> rows(nc);
    std::vector<std::string> row_csv(nc);
    bool leak_broken = false;
    const auto t0 = Clock::now();
    const std::size_t root = opt.trace ? log.open("grid.run") : 0;
    std::size_t passes = 0;
    while (passes < kMinPasses || secondsSince(t0) < opt.seconds) {
        double busy = 0.0;
        for (std::size_t c = 0; c < nc; ++c) {
            const auto tr = Clock::now();
            const sim::Grid g =
                engine.run({configs[c]}, profiles, kInsts, kWarmup);
            row_s[c].push_back(secondsSince(tr));
            if (opt.trace)
                log.add("grid.engine_row", tr);
            for (int k = 0; k < kSetupPassesPerRow; ++k)
                setups.push_back(setupPass(opt.seed));
            const std::string csv = sim::toCsv(g);
            res.attempted += nw;
            if (row_csv[c].empty()) {
                row_csv[c] = csv;
                rows[c] = g.results[0];
            } else if (csv != row_csv[c]) {
                res.fail(configs[c].name +
                         " row differs between repetitions");
                res.failed += nw;
            }
            for (std::size_t w = 0; w < nw; ++w) {
                const auto &r = g.results[0][w];
                std::string why;
                if (r.instructions != kInsts) {
                    res.failed += 1;
                    res.fail(configs[c].name + "/" + profiles[w].name +
                             " retired " + std::to_string(r.instructions) +
                             " instructions");
                } else if (!protectionHolds(configs[c], r, why)) {
                    leak_broken = true;
                    res.fail(configs[c].name + "/" + profiles[w].name +
                             ": " + why);
                }
            }
            if (!opt.trace)
                continue;
            dram.enabled.store(true);
            const TracedRow t = tracedRow(configs[c], c, profiles, log);
            dram.enabled.store(false);
            traced_s[c].push_back(t.wallS);
            cell_s[c].push_back(t.busyS);
            ctor_s[c].push_back(t.ctorS);
            busy += t.busyS;
            datapath_calls += t.datapathCryptoCalls;
            for (std::size_t w = 0; w < nw; ++w)
                if (sim::csvRow(t.results[w]) != sim::csvRow(rows[c][w]))
                    res.fail("traced cell " + configs[c].name + "/" +
                             profiles[w].name +
                             " differs from the untraced engine run");
        }
        if (opt.trace) {
            busy_s.push_back(busy);
            const auto td = Clock::now();
            drives.push_back(driveLayers(opt.seed));
            log.add("layer.drives", td);
        }
        ++passes;
    }
    if (opt.trace)
        log.close(root);

    // Determinism twin: the whole grid at another engine thread count
    // must serialize byte-identically to the row passes.
    {
        const sim::Grid twin = sim::ExperimentEngine(kTwinThreads)
                                   .run(configs, profiles, kInsts, kWarmup);
        std::string joined = row_csv[0].substr(0, row_csv[0].find('\n') + 1);
        for (const auto &csv : row_csv)
            joined += csvBody(csv);
        if (sim::toCsv(twin) != joined) {
            res.fail("grid CSV differs between " +
                     std::to_string(kEngineThreads) + " and " +
                     std::to_string(kTwinThreads) + " engine threads");
            res.failed = res.attempted;
        }
    }
    // Sanity of the model: every ORAM cell is slower than base_dram.
    for (std::size_t c = 1; c < nc; ++c)
        for (std::size_t w = 0; w < nw; ++w)
            if (rows[c][w].cycles <= rows[kBaseDram][w].cycles)
                res.fail(configs[c].name + "/" + profiles[w].name +
                         " is not slower than base_dram");
    if (leak_broken)
        res.failed = res.attempted; // protection broken: nothing counts

    double grid_s = 0.0;
    for (const auto &s : row_s)
        grid_s += interquartileMean(s);
    const double insts = static_cast<double>(nc * nw) *
                         static_cast<double>(kInsts + kWarmup);
    const GridFigures f = figures(rows);

    std::printf("fig6_grid seed %llu: %zu x %zu cells, %zu passes, "
                "engine threads %u, grid host %.3f s\n",
                static_cast<unsigned long long>(opt.seed), nc, nw, passes,
                kEngineThreads, grid_s);
    std::printf("dynamic_R4_E4 vs base_dram: slowdown %.4fx (paper 4.03x), "
                "power %.4f W, dummy %.2f%% (paper ~34%%), realized "
                "leakage %.0f bits (budget |E|*lg|R| = %.0f)\n",
                f.slowdown, f.powerW, 100.0 * f.dummyFrac, f.leakBits,
                rows[kDynamic][0].paperLeakageBits);

    if (!opt.trace) {
        res.add("setup_s", lowerDecile(setups), "s");
        res.add("ops_per_s", insts / grid_s, "1/s");
        res.add("oram_txn_per_s", static_cast<double>(f.txns) / grid_s,
                "1/s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        res.add("ok_op_frac", res.okFrac(), "1");
        res.add("dummy_frac", f.dummyFrac, "1");
        res.add("sim_mcycles", f.simMcycles, "Mcycles");
        return res;
    }

    // Fast-forward share: run(1, warmup) against run(insts, warmup),
    // dynamic row, one fresh stack each.
    double ff_s = 0.0, full_s = 0.0;
    for (std::size_t w = 0; w < nw; ++w) {
        const auto cfg = cellConfig(configs[kDynamic], w);
        {
            sim::SecureProcessor sp(cfg, profiles[w]);
            const std::size_t id = log.open("sim.run_warmup_only");
            sp.run(1, kWarmup);
            log.close(id);
            ff_s += log.seconds(id);
        }
        {
            sim::SecureProcessor sp(cfg, profiles[w]);
            const std::size_t id = log.open("sim.run_full");
            sp.run(kInsts, kWarmup);
            log.close(id);
            full_s += log.seconds(id);
        }
    }

    const LayerDrives d = medianOf(drives);
    const double np = static_cast<double>(passes);
    const double dram_req = static_cast<double>(dram.requests.load()) / np;
    const double dram_ns = static_cast<double>(dram.hostNs.load()) / np;
    const double busy = median(busy_s);

    double llc = 0.0, insts_dyn = 0.0, ipc = 0.0, epochs = 0.0, changes = 0.0;
    for (const auto &r : rows[kDynamic]) {
        llc += static_cast<double>(r.llcMisses);
        insts_dyn += static_cast<double>(r.instructions);
        ipc += r.ipc / static_cast<double>(nw);
        epochs += r.epochsUsed / static_cast<double>(nw);
        Cycles prev = configs[kDynamic].initialRate;
        for (const auto &dec : r.rateDecisions) {
            changes += dec.rate != prev ? 1.0 / static_cast<double>(nw) : 0.0;
            prev = dec.rate;
        }
    }

    LayerSheet sheet;
    double ctor = 0.0, traced_grid_s = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
        sheet.set(std::string("sim.cell_host_s.") + kGridConfigNames[c],
                  median(cell_s[c]));
        ctor += median(ctor_s[c]);
        traced_grid_s += interquartileMean(traced_s[c]);
    }
    sheet.set("sim.ctor_s", ctor);
    sheet.set("sim.warmup_host_share", ff_s / full_s);
    sheet.set("sim.slowdown_x", f.slowdown);
    sheet.set("sim.power_w", f.powerW);
    sheet.set("cache.llc_mpki", 1000.0 * llc / insts_dyn);
    sheet.set("cpu.ipc", ipc);
    sheet.set("dram.requests_per_kinst",
              dram_req / (static_cast<double>(nc * nw * kInsts) / 1000.0));
    sheet.set("dram.host_ns_per_request",
              dram_req > 0 ? dram_ns / dram_req : 0.0);
    sheet.set("dram.host_share", dram_ns * 1e-9 / busy);
    sheet.set("timing.epochs_used", epochs);
    sheet.set("timing.rate_changes", changes);
    sheet.set("timing.leak_bits", f.leakBits);
    sheet.set("timing.serve_host_ns", d.timingServeNs);
    sheet.set("oram.real_submit_host_us", d.oramRealSubmitUs);
    sheet.set("oram.dummy_submit_host_us", d.oramDummySubmitUs);
    sheet.set("oram.stash_high_water", d.oramStashHighWater);
    sheet.set("oram.bytes_per_txn", d.oramBytesPerTxn);
    sheet.set("oram.timing_submit_host_ns", d.oramTimingSubmitNs);
    sheet.set("crypto.host_ns_per_block", d.cryptoNsPerBlock);
    const double txns = static_cast<double>(f.txns);
    const double calls = static_cast<double>(datapath_calls) / np;
    sheet.set("crypto.calls_per_txn", calls / txns);
    sheet.set("crypto.bytes_per_txn",
              calls > 0 ? static_cast<double>(f.cryptoBytes) / txns : 0.0);
    sheet.set("crypto.host_share", calls * d.cryptoBlocksPerCall *
                                       d.cryptoNsPerBlock * 1e-9 / busy);
    sheet.set("trace.overhead_frac", 1.0 - grid_s / traced_grid_s);
    sheet.appendTo(res);
    return res;
}

} // namespace tcbench
