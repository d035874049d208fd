/**
 * @file
 * kv_read / kv_write: sim::KvServingRun — 2000 closed-loop sessions x
 * 8 ops (one ORAM transaction in flight each, no think time) against
 * 4 functional, rate-enforced ORAM shards (rate 300, 1 lane, 1
 * scheduler worker: deterministic). Keys: Zipf 0.99 over 1024 keys,
 * 2048 home slots, 2 spill blocks per slot, 48 B mean values.
 * kv_read is 85% get / 5% scan(3) / 10% put; kv_write 10/5/85.
 *
 * A run serves kSubSeeds populations, each from a seed derived from
 * --seed, in whole cycles until the measured window has passed, two
 * at a time on two threads; each repetition builds a fresh stack. The stack's construction (sharded
 * functional trees, calibration, session opens) is set-up; run() is
 * the timed part. Host rates are interquartile means over the
 * repetitions; the simulated figures are pooled or averaged over the
 * sub-seeds.
 *
 * Checks per repetition: zero payload mismatches, zero failed puts,
 * every token retired, every shard's start stream exactly periodic
 * at shardPeriod(i), rate decisions on epoch boundaries from R and
 * realized leakage within budget, and every repetition bit-identical
 * to its sub-seed's first one (stream, stats, latency percentiles).
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "common/rng.hh"
#include "layers.hh"
#include "sim/kv_serving.hh"
#include "timing/epoch_schedule.hh"
#include "timing/leakage.hh"
#include "workload/workload_source.hh"

namespace tcbench {

using namespace tcoram;

namespace {

/** Populations per run, each from its own seed derived from --seed:
 *  the simulated figures are averaged over them, so one population's
 *  hot-key layout does not set a run's numbers. */
constexpr std::size_t kSubSeeds = 8;
/** Whole cycles over the sub-seeds in a window, at least. */
constexpr std::size_t kMinCycles = 2;
/** Stacks served side by side, one per thread. */
constexpr std::size_t kLanes = 2;
static_assert(kSubSeeds % kLanes == 0);

sim::KvServingConfig
kvConfig(std::uint64_t seed, bool write_heavy)
{
    sim::KvServingConfig cfg;
    cfg.shards = kKvShards;
    cfg.lanes = 1;
    cfg.threads = 1;
    cfg.rate = 300;
    cfg.seed = seed;
    cfg.workload.method = "kv";
    cfg.workload.seed = seed;
    cfg.workload.ranks = 2000;
    cfg.workload.opsPerRank = 8;
    cfg.workload.keySpace = 1024;
    cfg.workload.zipfTheta = 0.99;
    cfg.workload.getFraction = write_heavy ? 0.10 : 0.85;
    cfg.workload.scanFraction = 0.05;
    cfg.workload.scanLen = 3;
    cfg.workload.valueBytes = 48;
    cfg.workload.thinkCycles = 0;
    cfg.kv.homeSlots = kKvHomeSlots;
    cfg.kv.spillPerSlot = kKvSpillPerSlot;
    return cfg;
}

/** Latency samples the run will hold: one per get or scan op, one
 *  per put op (read off the generated op stream itself). */
void
countSamples(const workload::WorkloadParams &params, std::uint64_t &gets,
             std::uint64_t &puts)
{
    auto src = workload::loadWorkload(params);
    gets = puts = 0;
    for (std::uint32_t rank = 0; rank < src->ranks(); ++rank) {
        for (;;) {
            const workload::WorkloadOp op = src->getNext(rank);
            if (op.kind == workload::WorkloadOpKind::End)
                break;
            if (op.kind == workload::WorkloadOpKind::Put)
                ++puts;
            else if (op.kind != workload::WorkloadOpKind::Think)
                ++gets;
        }
    }
}

/** The tail rule: the highest percentile with at least ten samples
 *  beyond it (nearest rank, as KvServingRun computes it). */
struct Tail
{
    double q = 0.5;
    std::uint64_t beyond = 0;
};

Tail
tailOf(std::uint64_t n)
{
    for (double q : {0.9999, 0.999, 0.99, 0.9}) {
        const auto idx = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(q * static_cast<double>(n)),
            n ? n - 1 : 0);
        if (n > 0 && n - 1 - idx >= 10)
            return {q, n - 1 - idx};
    }
    return {0.5, n / 2};
}

/** Everything one repetition yields. */
struct Rep
{
    double ctorS = 0.0;
    double runS = 0.0;
    std::uint64_t ops = 0;
    std::uint64_t events = 0;
    std::uint64_t dummies = 0;
    Cycles makespan = 0;
    double epochs = 0.0;
    double rateChanges = 0.0;
    double leakBits = 0.0;
    Cycles getP50 = 0, getTail = 0, putP50 = 0, putTail = 0;
    sim::KVStats stats;
    std::string stream;
    bool protectionOk = true;
    std::uint64_t badOps = 0;
    std::vector<std::string> problems;

    /** Simulated outputs that must repeat exactly. */
    bool
    sameSimAs(const Rep &o) const
    {
        const auto &a = stats, &b = o.stats;
        return stream == o.stream && ops == o.ops && makespan == o.makespan &&
               getP50 == o.getP50 && getTail == o.getTail &&
               putP50 == o.putP50 && putTail == o.putTail &&
               a.gets == b.gets && a.puts == b.puts && a.hits == b.hits &&
               a.misses == b.misses && a.probes == b.probes &&
               a.spillBlocksWritten == b.spillBlocksWritten &&
               a.oramReads == b.oramReads && a.oramWrites == b.oramWrites;
    }
};

Rep
runOnce(const sim::KvServingConfig &cfg, const Tail &get_tail,
        const Tail &put_tail, SpanLog *log)
{
    Rep rep;
    const auto t0 = Clock::now();
    std::size_t ctor_span = log ? log->open("kv.ctor") : 0;
    sim::KvServingRun run(cfg);
    if (log)
        log->close(ctor_span);
    rep.ctorS = secondsSince(t0);

    const auto t1 = Clock::now();
    std::size_t run_span = log ? log->open("kv.run") : 0;
    run.run();
    if (log)
        log->close(run_span);
    rep.runS = secondsSince(t1);

    rep.ops = run.opsCompleted();
    rep.stats = run.stats();
    rep.stream = run.streamCsv();
    rep.makespan = run.scheduler().lastCompletion();
    rep.getP50 = run.getLatencyPercentile(0.5);
    rep.getTail = run.getLatencyPercentile(get_tail.q);
    rep.putP50 = run.putLatencyPercentile(0.5);
    rep.putTail = run.putLatencyPercentile(put_tail.q);

    // Correctness of the served data.
    const std::uint64_t mismatches = run.payloadMismatches();
    if (mismatches != 0)
        rep.problems.push_back(std::to_string(mismatches) +
                               " payload mismatches");
    if (rep.stats.failedPuts != 0)
        rep.problems.push_back(std::to_string(rep.stats.failedPuts) +
                               " failed puts");
    rep.badOps = mismatches + rep.stats.failedPuts;
    if (!run.allTokensRetired()) {
        rep.problems.push_back("not every token retired");
        rep.protectionOk = false;
    }

    // The timing-channel protection: exact per-shard periodicity,
    // decisions on epoch boundaries with rates from R, leakage within
    // the composed budget M*|E|*lg|R|.
    const timing::EpochSchedule schedule(cfg.epoch0, 2, Cycles{1} << 40);
    const auto &sched = run.scheduler();
    for (std::uint32_t i = 0; i < cfg.shards; ++i) {
        const auto stream = run.shardStream(i);
        const Cycles period = run.shardPeriod(i);
        for (std::size_t k = 0; k < stream.size(); ++k) {
            rep.dummies += stream[k].real ? 0 : 1;
            if (k > 0 && stream[k].start - stream[k - 1].start != period) {
                rep.problems.push_back("shard " + std::to_string(i) +
                                       " stream not periodic");
                rep.protectionOk = false;
                break;
            }
        }
        rep.events += stream.size();
        const auto &enf = sched.shard(i).enforcer();
        Cycles prev = cfg.rate;
        for (const auto &d : enf.decisions()) {
            if (d.rate != cfg.rate ||
                d.startCycle != schedule.epochStart(d.epoch)) {
                rep.problems.push_back("shard " + std::to_string(i) +
                                       " rate decision outside R or off "
                                       "an epoch boundary");
                rep.protectionOk = false;
            }
            rep.rateChanges += d.rate != prev ? 1.0 : 0.0;
            prev = d.rate;
        }
        rep.epochs += static_cast<double>(enf.currentEpoch()) / cfg.shards;
        rep.leakBits += timing::LeakageAccountant::oramTimingBits(
            1, enf.currentEpoch());
    }
    if (const auto *mon = sched.monitor())
        rep.leakBits = std::max(rep.leakBits, mon->bitsConsumed());
    const double budget =
        cfg.shards * timing::LeakageAccountant::paperConfigBits(1, 2);
    if (rep.leakBits > budget + 1e-9) {
        rep.problems.push_back("realized leakage " +
                               std::to_string(rep.leakBits) +
                               " bits over budget " + std::to_string(budget));
        rep.protectionOk = false;
    }
    return rep;
}

} // namespace

Result
runKv(const Options &opt, bool write_heavy)
{
    Result res;
    // The scenario set: kSubSeeds populations derived from --seed.
    std::vector<sim::KvServingConfig> cfgs;
    std::uint64_t min_get = ~0ull, min_put = ~0ull;
    for (std::uint64_t k = 0; k < kSubSeeds; ++k) {
        cfgs.push_back(kvConfig(mixSeed(opt.seed, k), write_heavy));
        std::uint64_t g = 0, p = 0;
        countSamples(cfgs.back().workload, g, p);
        min_get = std::min(min_get, g);
        min_put = std::min(min_put, p);
    }
    const Tail get_tail = tailOf(min_get), put_tail = tailOf(min_put);

    // first[k]: sub-seed k's first repetition (its simulated outputs).
    // Host samples, one per repetition: ops and txns per second.
    std::vector<Rep> first(kSubSeeds);
    std::vector<double> setup, ops_rate, txn_rate, traced_rate;
    auto account = [&](std::size_t k, Rep &&rep) {
        res.attempted += rep.ops;
        std::uint64_t bad = rep.protectionOk ? rep.badOps : rep.ops;
        for (const auto &p : rep.problems)
            res.fail(p);
        if (first[k].stream.empty()) {
            first[k] = std::move(rep);
        } else if (!rep.sameSimAs(first[k])) {
            res.fail("sub-seed " + std::to_string(k) +
                     " repetition differs from its first run");
            bad = rep.ops;
        }
        res.failed += std::min(bad, rep.ops);
    };

    // Traced runs: spans, the timed workload method and the isolated
    // layer drives. Each untraced repetition is followed by the same
    // population traced, so both see the same host.
    SpanLog log;
    std::vector<LayerDrives> drives;
    if (opt.trace)
        installTimedKvWorkload();

    // One lane per thread, each serving its own populations on its own
    // stack, side by side: a run's host figures then average two cores
    // of a shared host instead of whichever one the run landed on.
    struct LaneOut
    {
        Rep rep, traced;
        SpanLog log;
    };
    auto lane = [&](std::size_t k, LaneOut &out) {
        out.rep = runOnce(cfgs[k], get_tail, put_tail, nullptr);
        if (!opt.trace)
            return;
        sim::KvServingConfig cfg = cfgs[k];
        cfg.workload.method = kTimedKvMethod;
        setWorkloadSpanLog(&out.log);
        out.traced = runOnce(cfg, get_tail, put_tail, &out.log);
        setWorkloadSpanLog(nullptr);
    };

    // --- measured window: whole cycles over the sub-seeds.
    const auto t0 = Clock::now();
    for (std::size_t cycle = 0;
         cycle < kMinCycles || secondsSince(t0) < opt.seconds; ++cycle) {
        for (std::size_t k = 0; k < kSubSeeds; k += kLanes) {
            std::array<LaneOut, kLanes> outs;
            runOnThreads(kLanes, [&](std::size_t j) { lane(k + j, outs[j]); });
            for (std::size_t j = 0; j < kLanes; ++j) {
                Rep &rep = outs[j].rep;
                ops_rate.push_back(static_cast<double>(rep.ops) / rep.runS);
                txn_rate.push_back(static_cast<double>(rep.events) /
                                   rep.runS);
                setup.push_back(rep.ctorS);
                account(k + j, std::move(rep));
                if (!opt.trace)
                    continue;
                Rep &traced = outs[j].traced;
                traced_rate.push_back(static_cast<double>(traced.ops) /
                                      traced.runS);
                account(k + j, std::move(traced));
                log.merge(outs[j].log);
            }
        }
        if (opt.trace) {
            const auto td = Clock::now();
            drives.push_back(driveLayers(opt.seed));
            log.add("layer.drives", td);
        }
    }

    // Simulated figures, pooled or averaged over the sub-seeds.
    double ops = 0.0, events = 0.0, dummies = 0.0, makespan = 0.0;
    for (std::size_t k = 0; k < kSubSeeds; ++k) {
        ops += static_cast<double>(first[k].ops);
        events += static_cast<double>(first[k].events);
        dummies += static_cast<double>(first[k].dummies);
        makespan += static_cast<double>(first[k].makespan) / kSubSeeds;
    }
    const double dummy_frac = dummies / events;
    auto median_of = [&](auto field) {
        std::vector<double> v;
        for (const Rep &r : first)
            v.push_back(static_cast<double>(field(r)));
        return median(v);
    };
    const double get_p50 = median_of([](const Rep &r) { return r.getP50; });
    const double get_tail_c =
        median_of([](const Rep &r) { return r.getTail; });
    const double put_p50 = median_of([](const Rep &r) { return r.putP50; });
    const double put_tail_c =
        median_of([](const Rep &r) { return r.putTail; });

    std::printf("%s seed %llu: %zu sub-seeds x %zu repetitions, %.0f ops, "
                "%.0f ORAM txns (%.2f%% dummy), mean sim makespan %.0f "
                "cycles\n",
                write_heavy ? "kv_write" : "kv_read",
                static_cast<unsigned long long>(opt.seed), kSubSeeds,
                ops_rate.size() / kSubSeeds, ops, events, 100.0 * dummy_frac,
                makespan);
    std::printf("median over sub-seeds: get p50 %.0f cycles, p%g %.0f "
                "cycles (>= %llu samples, %llu beyond); put p50 %.0f "
                "cycles, p%g %.0f cycles (>= %llu samples, %llu beyond)\n",
                get_p50, 100.0 * get_tail.q, get_tail_c,
                static_cast<unsigned long long>(min_get),
                static_cast<unsigned long long>(get_tail.beyond), put_p50,
                100.0 * put_tail.q, put_tail_c,
                static_cast<unsigned long long>(min_put),
                static_cast<unsigned long long>(put_tail.beyond));

    if (!opt.trace) {
        res.add("setup_s", median(setup), "s");
        res.add("ops_per_s", interquartileMean(ops_rate), "1/s");
        res.add("oram_txn_per_s", interquartileMean(txn_rate), "1/s");
        res.add("peak_rss_mb", peakRssMb(), "MB");
        res.add("ok_op_frac", res.okFrac(), "1");
        res.add("dummy_frac", dummy_frac, "1");
        res.add("sim_mcycles", makespan * 1e-6, "Mcycles");
        return res;
    }

    // --- traced figures: one root span "kv.run" per traced repetition.
    const double traced_reps = static_cast<double>(traced_rate.size());

    const LayerDrives d = medianOf(drives);
    const double kv_run_s = log.totalSeconds("kv.run");
    const double getnext_s = log.totalSeconds("workload.getNext");
    std::uint64_t getnext_calls = 0;
    for (const auto &s : log.spans())
        getnext_calls += std::string(s.name) == "workload.getNext" ? 1 : 0;
    // Per traced repetition on average (every sub-seed equally often).
    const double reps_per_seed = traced_reps / kSubSeeds;
    const double oram_s = ((events - dummies) * d.oramRealSubmitUs +
                           dummies * d.oramDummySubmitUs) *
                          1e-6 * reps_per_seed;
    const double crypto_s = events * reps_per_seed * d.cryptoCallsPerTxn *
                            d.cryptoBlocksPerCall * d.cryptoNsPerBlock * 1e-9;
    sim::KVStats st;
    double epochs = 0.0, changes = 0.0, leak = 0.0;
    for (const Rep &r : first) {
        st.merge(r.stats);
        epochs += r.epochs / kSubSeeds;
        changes += r.rateChanges / kSubSeeds;
        leak = std::max(leak, r.leakBits);
    }

    LayerSheet sheet;
    sheet.set("timing.epochs_used", epochs);
    sheet.set("timing.rate_changes", changes);
    sheet.set("timing.leak_bits", leak);
    sheet.set("timing.serve_host_ns", d.timingServeNs);
    sheet.set("oram.real_submit_host_us", d.oramRealSubmitUs);
    sheet.set("oram.dummy_submit_host_us", d.oramDummySubmitUs);
    sheet.set("oram.stash_high_water", d.oramStashHighWater);
    sheet.set("oram.bytes_per_txn", d.oramBytesPerTxn);
    sheet.set("oram.timing_submit_host_ns", d.oramTimingSubmitNs);
    sheet.set("crypto.host_ns_per_block", d.cryptoNsPerBlock);
    sheet.set("crypto.calls_per_txn", d.cryptoCallsPerTxn);
    sheet.set("crypto.bytes_per_txn", d.cryptoBytesPerTxn);
    sheet.set("crypto.host_share", crypto_s / kv_run_s);
    sheet.set("workload.getnext_host_ns",
              getnext_calls ? getnext_s * 1e9 /
                                  static_cast<double>(getnext_calls)
                            : 0.0);
    sheet.set("workload.getnext_host_share", getnext_s / kv_run_s);
    sheet.set("kv.txn_per_op",
              static_cast<double>(st.oramReads + st.oramWrites) / ops);
    sheet.set("kv.probes_per_op", static_cast<double>(st.probes) / ops);
    sheet.set("kv.spill_blocks_per_put",
              st.puts ? static_cast<double>(st.spillBlocksWritten) /
                            static_cast<double>(st.puts)
                      : 0.0);
    sheet.set("kv.get_hit_frac",
              st.hits + st.misses
                  ? static_cast<double>(st.hits) /
                        static_cast<double>(st.hits + st.misses)
                  : 0.0);
    sheet.set("kv.residual_host_share",
              1.0 - (oram_s + getnext_s) / kv_run_s);
    sheet.set("kv.get_p50_cycles", get_p50);
    sheet.set("kv.get_tail_cycles", get_tail_c);
    sheet.set("kv.get_tail_pct", 100.0 * get_tail.q);
    sheet.set("kv.get_tail_samples", static_cast<double>(get_tail.beyond));
    sheet.set("kv.put_p50_cycles", put_p50);
    sheet.set("kv.put_tail_cycles", put_tail_c);
    sheet.set("kv.put_tail_pct", 100.0 * put_tail.q);
    sheet.set("kv.put_tail_samples", static_cast<double>(put_tail.beyond));
    sheet.set("trace.overhead_frac", 1.0 - interquartileMean(traced_rate) /
                                               interquartileMean(ops_rate));
    sheet.appendTo(res);
    return res;
}

} // namespace tcbench
