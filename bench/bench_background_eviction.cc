/**
 * @file
 * Background eviction engine bench: drives the pipelined sharded stack
 * through open-loop burst and wide-rate workloads and gates the four
 * tentpole claims (oram/eviction_engine.hh):
 *
 *  1. DRAIN SPEEDUP — in the saturating burst regime (enforced rate
 *     far below the calibrated occupancy) deferring write-back tails
 *     drops the service period from occupancyPerAccess() to
 *     rate + accessLatency(): the backlog must drain >= 25% faster
 *     than the eviction-off run at paper scale, for M in {1, 4}.
 *
 *  2. UNCHANGED OBSERVABLE RATE — at a wide rate (one eviction fits
 *     every enforced gap) the engine-on per-shard start streams must
 *     be BIT-IDENTICAL to the eviction-off run's, for both policies,
 *     while evictions actually fire. Deferral and background drains
 *     depend only on the public slot grid, never on data.
 *
 *  3. EXACT PERIODICITY — every engine-on shard stream ticks at
 *     exactly rate + its own OLAT; evictions never stretch a gap.
 *
 *  4. OFF IS PRE-PR — a device built with an explicit off/0 eviction
 *     spec is bit-identical to one built with the default spec (the
 *     fig5/fig6 goldens and the pinned recovery stream pin the same
 *     claim against the checked-in fixtures).
 *
 * Usage: bench_background_eviction [--quick] [--json <path>] [--check]
 * --check (CI gate) fails the process unless every gate holds.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/eviction_engine.hh"
#include "oram/oram_config.hh"
#include "oram/sharded_device.hh"
#include "sim/serving_stack.hh"

using namespace tcoram;

namespace {

constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kRouteSeed = 17;
constexpr std::uint32_t kSessions = 2;

struct Setup
{
    oram::OramConfig oram;
    std::uint32_t shards = 1;
    Cycles rate = 1000;
    oram::EvictionConfig evict{};
    std::uint64_t txnsPerSession = 64;
};

struct Outcome
{
    Cycles span = 0; ///< runUntilIdle(): backlog drain span
    std::uint64_t evictions = 0;
    std::uint64_t stashHighWater = 0;
    std::vector<std::vector<Cycles>> streams;
    /** Every shard stream >= 10 starts, each gap its slot period. */
    bool periodic = true;
};

Outcome
runOne(const Setup &s)
{
    sim::ServingStack::Config cfg;
    cfg.inner.pathMode = oram::PathMode::Pipelined;
    cfg.inner.evictionPolicy = s.evict.policy;
    cfg.inner.evictionBudget = s.evict.budget;
    cfg.oram = s.oram;
    cfg.shards = s.shards;
    cfg.rate = s.rate;
    cfg.calibSeed = kSeed;
    cfg.routeSeed = kRouteSeed;
    cfg.opts.ringCapacity = kSessions * s.txnsPerSession; // one lane holds it
    sim::ServingStack stack(cfg);
    sim::RingScheduler &scheduler = stack.scheduler();
    for (std::uint32_t sess = 0; sess < kSessions; ++sess)
        scheduler.openSession(100 + sess);
    // Open-loop burst: the whole backlog arrives up front.
    for (std::uint64_t k = 0; k < s.txnsPerSession; ++k)
        for (std::uint32_t sess = 0; sess < kSessions; ++sess)
            if (!scheduler.trySubmit(sess, k,
                                     timing::OramTransaction::real(
                                         sess * 1'000'003ull + k * 7919ull,
                                         k % 3 == 0, sess)))
                tcoram_fatal("eviction backlog overflows its lane");

    Outcome o;
    o.span = scheduler.runUntilIdle();
    stack.drainAfter(o.span);
    o.evictions = stack.device().evictionsIssued();
    o.stashHighWater = stack.device().stashHighWater();
    for (std::uint32_t i = 0; i < s.shards; ++i) {
        o.streams.push_back(stack.shardStarts(i));
        o.periodic = o.periodic && o.streams.back().size() >= 10 &&
                     !stack.shardOffPeriodGap(i);
    }
    return o;
}

/** Deepest shard's calibrated occupancy: the wide-regime rate floor. */
Cycles
maxOccupancy(const oram::OramConfig &cfg, std::uint32_t shards)
{
    dram::DramModel mem{dram::DramConfig{}};
    Rng rng(kSeed);
    oram::OramDeviceSpec inner;
    inner.pathMode = oram::PathMode::Pipelined;
    oram::ShardedOramDevice device(inner, cfg, shards, kRouteSeed, mem,
                                   rng);
    Cycles occ = 0;
    for (std::uint32_t i = 0; i < shards; ++i)
        occ = std::max(occ, device.shard(i).occupancyPerAccess());
    return occ;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    const bool quick = bench::hasFlag(argc, argv, "--quick");
    const bool check = bench::hasFlag(argc, argv, "--check");
    const std::string json_path =
        bench::argValue(argc, argv, "--json", "BENCH_eviction.json");

    const oram::OramConfig cfg = quick ? oram::OramConfig::benchConfig()
                                       : oram::OramConfig::paperConfig();
    const std::uint64_t txns = quick ? 48 : 128;
    const Cycles burst_rate = 64; // far below any calibrated occupancy
    const std::uint32_t burst_budget = 1u << 12; // covers the backlog

    bench::banner("background eviction: burst drain at an unchanged rate");

    // ----- Gate 1: >= 25% faster burst drain, M in {1, 4} ------------
    bool drain_ok = true;
    struct DrainRow
    {
        std::uint32_t shards;
        Cycles off, on;
        double speedup;
    };
    std::vector<DrainRow> drains;
    std::printf("%-7s %-14s %-14s %-9s %-10s %-9s\n", "shards",
                "off-span", "on-span", "speedup", "evictions", "pass");
    for (const std::uint32_t m : {1u, 4u}) {
        Setup off;
        off.oram = cfg;
        off.shards = m;
        off.rate = burst_rate;
        off.txnsPerSession = txns;
        Setup on = off;
        on.evict = {oram::EvictionPolicy::Gap, burst_budget};
        const Outcome ro = runOne(off);
        const Outcome rn = runOne(on);
        const double speedup =
            1.0 - static_cast<double>(rn.span) /
                      static_cast<double>(ro.span);
        const bool ok = speedup >= 0.25 && rn.stashHighWater > 0;
        drain_ok = drain_ok && ok;
        drains.push_back({m, ro.span, rn.span, speedup});
        std::printf("%-7u %-14llu %-14llu %7.1f%%  %-9llu %-9s\n", m,
                    (unsigned long long)ro.span,
                    (unsigned long long)rn.span, 100.0 * speedup,
                    (unsigned long long)rn.evictions, ok ? "yes" : "NO");
    }

    // ----- Gates 2+3: wide rate, both policies, M in {1, 4} ----------
    bool wide_ok = true;
    for (const std::uint32_t m : {1u, 4u}) {
        Setup base;
        base.oram = cfg;
        base.shards = m;
        base.rate = maxOccupancy(cfg, m); // one eviction per gap
        base.txnsPerSession = txns;
        const Outcome off = runOne(base);
        for (const auto policy : {oram::EvictionPolicy::Gap,
                                  oram::EvictionPolicy::HighWater}) {
            Setup on = base;
            on.evict = {policy, 16};
            const Outcome o = runOne(on);
            const bool identical = o.streams == off.streams;
            const bool periodic = o.periodic;
            const bool fired = o.evictions > 0;
            wide_ok = wide_ok && identical && periodic && fired;
            std::printf("wide M=%u %-9s stream %-10s grid %-10s "
                        "evictions %llu\n",
                        m, oram::evictionPolicyName(policy),
                        identical ? "identical" : "DIVERGED",
                        periodic ? "periodic" : "APERIODIC",
                        (unsigned long long)o.evictions);
        }
    }

    // ----- Gate 4: explicit off == default spec ----------------------
    Setup dflt;
    dflt.oram = cfg;
    dflt.shards = 1;
    dflt.rate = burst_rate;
    dflt.txnsPerSession = txns;
    Setup explicit_off = dflt;
    explicit_off.evict = {oram::EvictionPolicy::Off, 0};
    const Outcome a = runOne(dflt);
    const Outcome b = runOne(explicit_off);
    const bool off_ok =
        a.streams == b.streams && b.evictions == 0 &&
        b.stashHighWater == 0;
    std::printf("eviction-off run: %s\n",
                off_ok ? "bit-identical to the default spec"
                       : "DIVERGED from the default spec");

    const bool all_pass = drain_ok && wide_ok && off_ok;

    std::ofstream json(json_path);
    json << "{\n  \"scale\": \"" << (quick ? "bench" : "paper")
         << "\",\n  \"drain\": [\n";
    for (std::size_t i = 0; i < drains.size(); ++i)
        json << "    {\"shards\": " << drains[i].shards
             << ", \"off_span\": " << drains[i].off
             << ", \"on_span\": " << drains[i].on
             << ", \"speedup\": " << drains[i].speedup << "}"
             << (i + 1 < drains.size() ? "," : "") << "\n";
    json << "  ],\n  \"drain_ok\": " << (drain_ok ? "true" : "false")
         << ",\n  \"wide_rate_identical\": "
         << (wide_ok ? "true" : "false")
         << ",\n  \"off_is_default\": " << (off_ok ? "true" : "false")
         << ",\n  \"pass\": " << (all_pass ? "true" : "false") << "\n}\n";
    json.close();
    std::printf("json        %s\n", json_path.c_str());

    if (check && !all_pass) {
        std::fprintf(stderr, "[eviction] --check FAILED\n");
        return 1;
    }
    return 0;
}
