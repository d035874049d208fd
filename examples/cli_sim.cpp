/**
 * @file
 * Command-line simulation driver: run any scheme on any workload
 * without writing code. Covers the whole public configuration
 * surface and optionally appends the result as CSV.
 *
 * Usage examples:
 *   example_cli_sim --scheme dynamic --rates 4 --growth 4 --bench mcf
 *   example_cli_sim --scheme static --rate 300 --bench h264 --csv out.csv
 *   example_cli_sim --scheme dynamic --learner threshold --limit 16 \
 *                   --bench astar --insts 1000000
 *   example_cli_sim --list
 */

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/log.hh"
#include "crypto/crypto_engine.hh"
#include "dram/backend_registry.hh"
#include "dram/faulty_memory.hh"
#include "oram/eviction_engine.hh"
#include "oram/oram_device.hh"
#include "sim/kv_serving.hh"
#include "sim/recovery_run.hh"
#include "sim/report.hh"
#include "sim/secure_processor.hh"
#include "sim/stat_dump.hh"
#include "workload/spec_suite.hh"
#include "workload/workload_source.hh"

using namespace tcoram;

namespace {

void
usage()
{
    std::printf(
        "tcoram simulation driver\n"
        "  --scheme <base_dram|base_oram|static|dynamic|protected_dram>\n"
        "  --bench <name>         workload (see --list)       [astar]\n"
        "  --rate <cycles>        static scheme's rate        [300]\n"
        "  --rates <n>            dynamic |R|                 [4]\n"
        "  --growth <g>           dynamic epoch growth        [4]\n"
        "  --learner <simple|threshold>                       [simple]\n"
        "  --limit <bits>         session leakage limit L     [unlimited]\n"
        "  --insts <n>            measured instructions       [600000]\n"
        "  --warmup <n>           fast-forward instructions   [2400000]\n"
        "  --llc <bytes>          LLC capacity                [1048576]\n"
        "  --crypto-backend <auto|scalar|ttable|aesni>        [auto]\n"
        "  --oram-device <timing|functional|sharded>          [timing]\n"
        "  --dram-mode <sync|async>  ORAM path scheduling     [sync]\n"
        "  --eviction-policy <off|gap|highwater>  background\n"
        "                         eviction (needs async)      [off]\n"
        "  --eviction-budget <n>  max deferred write-backs    [64]\n"
        "  --shards <m>           ORAM subtree shards         [1]\n"
        "  --memory-backend <flat|banked|trace>               [scheme's]\n"
        "  --fault-spec <s>       fault injection, e.g. flip@1e-4 or\n"
        "                         all@1e-3#7                  [none]\n"
        "  --retry-budget <n>     recovery retry budget       [4]\n"
        "  --seed <n>             simulation seed             [1]\n"
        "  --csv <path>           append result as CSV\n"
        "  --list                 print available workloads\n"
        "  --list-backends        print registered backend kinds\n"
        "checkpoint mode (runs the scheduler harness, not the CPU sim):\n"
        "  --checkpoint-every <n> snapshot after every n served txns\n"
        "  --checkpoint-path <p>  snapshot file               [tcoram.ckpt]\n"
        "  --restore-from <p>     resume a run from a snapshot\n"
        "  (honors --oram-device timing|functional, --shards [1],\n"
        "   --dram-mode, --eviction-policy, --eviction-budget,\n"
        "   --fault-spec, --retry-budget, --seed [1])\n"
        "workload mode (runs the workload plane through the ring\n"
        "scheduler harness, not the CPU sim):\n"
        "  --workload <spec>      \"method:k=v,...\" — methods listed by\n"
        "                         --list-backends. \"kv\" runs the\n"
        "                         KV-serving scenario, \"daly\" the\n"
        "                         checkpoint chain (snapshots at the\n"
        "                         method's optimum interval), anything\n"
        "                         else a raw-access stream replay\n"
        "  --eviction-auto        size the highwater eviction budget\n"
        "                         from the workload's observed burst\n"
        "                         depth (implies --eviction-policy\n"
        "                         highwater --dram-mode async, so it\n"
        "                         conflicts with those flags; kv runs\n"
        "                         report it, others apply it)\n"
        "  (daly and replays honor checkpoint mode's device flags and\n"
        "   --checkpoint-path, with --shards [2], --rate [300],\n"
        "   --seed [42]; kv honors --shards [2], --rate [300],\n"
        "   --threads [1], --seed [42] and rejects the other device\n"
        "   flags)\n");
}

const char *
arg(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

/**
 * @p text, the value of numeric flag @p flag, as a base-10 integer of
 * type T. Dies naming the flag on empty input, a sign or leading
 * space, trailing junk, or a value T cannot hold.
 */
template <typename T>
T
parseNum(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text < '0' || *text > '9' || *end != '\0' || errno == ERANGE ||
        v > std::numeric_limits<T>::max()) {
        tcoram_fatal(flag, ": expected an integer in [0, ",
                     std::numeric_limits<T>::max(), "], got \"", text,
                     "\"");
    }
    return static_cast<T>(v);
}

/** parseNum() over the value of @p flag, or @p fallback when absent. */
template <typename T>
T
numArg(int argc, char **argv, const char *flag, const char *fallback)
{
    return parseNum<T>(flag, arg(argc, argv, flag, fallback));
}

bool
has(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/**
 * The device flags the CPU simulation and the scheduler harness modes
 * honor, applied over @p spec (absent flags keep its defaults), then
 * oram::checkDeviceSpec(). A named eviction policy without
 * --eviction-budget gets the default budget of 64.
 */
void
parseDeviceFlags(int argc, char **argv, oram::OramDeviceSpec &spec)
{
    if (const char *dev = arg(argc, argv, "--oram-device", nullptr))
        spec.kind = dev;
    if (const char *mode = arg(argc, argv, "--dram-mode", nullptr))
        spec.pathMode = oram::parsePathMode(mode);
    if (const char *shards = arg(argc, argv, "--shards", nullptr))
        spec.shards = parseNum<std::uint32_t>("--shards", shards);
    const char *ep = arg(argc, argv, "--eviction-policy", nullptr);
    if (ep != nullptr)
        spec.evictionPolicy = oram::parseEvictionPolicy(ep);
    if (const char *eb = arg(argc, argv, "--eviction-budget",
                             ep != nullptr ? "64" : nullptr))
        spec.evictionBudget = parseNum<std::uint32_t>("--eviction-budget", eb);
    if (const char *fs = arg(argc, argv, "--fault-spec", nullptr))
        spec.fault = dram::FaultSpec::parse(fs);
    spec.retryBudget = numArg<unsigned>(argc, argv, "--retry-budget", "4");
    oram::checkDeviceSpec(spec);
}

/**
 * The RecoveryRunConfig of checkpoint mode (@p workload_mode false:
 * 1 shard, seed 1, the harness's fixed rate of 1000) and of the
 * daly/replay workload runs (2 shards, seed 42, --rate [300]): the
 * device flags over the harness's spec, restricted to the timing and
 * functional kinds, then the seed and the rate.
 */
sim::RecoveryRunConfig
harnessConfig(int argc, char **argv, bool workload_mode)
{
    sim::RecoveryRunConfig rc;
    rc.inner.shards = workload_mode ? 2 : 1;
    parseDeviceFlags(argc, argv, rc.inner);
    if (rc.inner.kind != "timing" && rc.inner.kind != "functional") {
        tcoram_fatal(workload_mode ? "workload" : "checkpoint",
                     " mode supports --oram-device timing|functional, got ",
                     rc.inner.kind);
    }
    rc.shards = rc.inner.shards;
    rc.seed = numArg<std::uint64_t>(argc, argv, "--seed",
                                    workload_mode ? "42" : "1");
    if (workload_mode)
        rc.rate = numArg<Cycles>(argc, argv, "--rate", "300");
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    if (has(argc, argv, "--help") || has(argc, argv, "-h")) {
        usage();
        return 0;
    }
    if (has(argc, argv, "--list")) {
        for (const auto &n : workload::specSuiteNames())
            std::printf("%s\n", n.c_str());
        std::printf("perl.splitmail\nastar.biglakes\n");
        return 0;
    }
    if (has(argc, argv, "--list-backends")) {
        std::printf("memory backends:");
        for (const auto &k : dram::BackendRegistry::instance().kinds())
            std::printf(" %s", k.c_str());
        std::printf("\ncrypto backends: auto scalar ttable");
        if (crypto::aesniAvailable())
            std::printf(" aesni");
        std::printf("\noram devices:");
        for (const auto &k : oram::oramDeviceKinds())
            std::printf(" %s", k.c_str());
        std::printf("\ndram modes: async sync");
        std::printf("\neviction policies: %s"
                    " (background eviction; non-off needs"
                    " --dram-mode async)",
                    oram::evictionPolicyNames());
        std::printf("\nfault kinds: flip stuck delay refuse"
                    " (spec \"<kinds>@<rate>[#seed]\"; the faulty"
                    " backend wraps any inner as faulty:<inner>)");
        std::printf("\nworkload methods:");
        for (const auto &m :
             workload::WorkloadRegistry::instance().methods())
            std::printf(" %s", m.c_str());
        std::printf(" (--workload \"method:k=v,...\")");
        std::printf("\n");
        return 0;
    }

    // Checkpoint mode drives the RecoveryRun scheduler harness (open
    // sessions + open-loop backlog) instead of the CPU simulation:
    // snapshot every n served transactions, or resume from a snapshot
    // and run to completion.
    const char *ckpt_every = arg(argc, argv, "--checkpoint-every", nullptr);
    const char *restore_from = arg(argc, argv, "--restore-from", nullptr);
    if (ckpt_every != nullptr || restore_from != nullptr) {
        const sim::RecoveryRunConfig rc = harnessConfig(argc, argv, false);
        const std::string ckpt_path =
            arg(argc, argv, "--checkpoint-path", "tcoram.ckpt");
        const std::uint64_t every =
            numArg<std::uint64_t>(argc, argv, "--checkpoint-every", "0");

        sim::RecoveryRun run(rc);
        if (restore_from != nullptr) {
            if (std::string err = run.restoreFrom(restore_from);
                !err.empty())
                tcoram_fatal(err);
            std::printf("restored    %s (%llu/%llu served)\n",
                        restore_from,
                        (unsigned long long)run.servedTotal(),
                        (unsigned long long)run.backlogTotal());
        } else {
            run.start();
        }
        std::uint64_t since_snapshot = 0;
        while (run.serveOne()) {
            if (every > 0 && ++since_snapshot >= every) {
                since_snapshot = 0;
                if (std::string err = run.saveTo(ckpt_path); !err.empty())
                    tcoram_fatal(err);
            }
        }
        run.finish();
        const std::uint64_t bad = run.verifyPayloads(16);
        std::printf("%s\n%s\n", sim::RecoveryRun::csvHeader().c_str(),
                    run.csvRow().c_str());
        if (bad > 0)
            tcoram_fatal(bad, " payload probe(s) mismatched");
        if (every > 0) {
            if (std::string err = run.saveTo(ckpt_path); !err.empty())
                tcoram_fatal(err);
            std::printf("checkpoint  %s\n", ckpt_path.c_str());
        }
        return 0;
    }

    // Workload mode drives the workload plane (workload/) through the
    // scheduler harnesses instead of the CPU simulation: "kv" runs the
    // KV-serving scenario end to end; every other method runs on
    // RecoveryRun's workload mode, which maps its op stream onto raw
    // ORAM accesses and snapshots at the stream's checkpoint marks
    // ("daly"'s optimum interval, or a trace recorded from one).
    if (const char *wspec = arg(argc, argv, "--workload", nullptr)) {
        const workload::WorkloadParams wp =
            workload::parseWorkloadSpec(wspec);
        const bool eviction_auto = has(argc, argv, "--eviction-auto");
        for (const char *flag : {"--eviction-policy", "--eviction-budget"})
            if (eviction_auto && has(argc, argv, flag))
                tcoram_fatal(flag, " conflicts with --eviction-auto, which "
                                   "sets the eviction policy and budget");
        if (eviction_auto &&
            std::strcmp(arg(argc, argv, "--dram-mode", "async"), "async"))
            tcoram_fatal("--dram-mode conflicts with --eviction-auto, "
                         "which needs async");

        if (wp.method == "kv") {
            // KvServingRun builds its own functional shards: of the
            // device flags it takes only the shard count.
            for (const char *flag :
                 {"--oram-device", "--dram-mode", "--eviction-policy",
                  "--eviction-budget", "--fault-spec", "--retry-budget"})
                if (has(argc, argv, flag))
                    tcoram_fatal(flag, " does not apply to --workload kv "
                                       "(its functional shards take only "
                                       "--shards)");
        }
        sim::RecoveryRunConfig rc = harnessConfig(argc, argv, true);

        std::uint32_t auto_budget = 0;
        if (eviction_auto) {
            auto_budget = workload::observedBurstDepth(
                wp, oram::OramDeviceSpec::kMaxEvictionBudget);
            std::printf("eviction    auto budget %u"
                        " (observed burst depth)\n",
                        auto_budget);
        }

        if (wp.method == "kv") {
            sim::KvServingConfig kc;
            kc.shards = rc.shards;
            kc.rate = rc.rate;
            kc.threads = numArg<unsigned>(argc, argv, "--threads", "1");
            kc.seed = rc.seed;
            kc.workload = wp;
            sim::KvServingRun run(kc);
            run.run();
            std::printf("sessions    %u (%llu ops completed)\n",
                        run.sessionCount(),
                        (unsigned long long)run.opsCompleted());
            std::printf("retired     %s, payload mismatches %llu\n",
                        run.allTokensRetired() ? "all" : "NOT ALL",
                        (unsigned long long)run.payloadMismatches());
            std::printf("get latency p50 %llu  p99 %llu  p999 %llu\n",
                        (unsigned long long)run.getLatencyPercentile(0.50),
                        (unsigned long long)run.getLatencyPercentile(0.99),
                        (unsigned long long)run.getLatencyPercentile(0.999));
            std::printf("put latency p50 %llu  p99 %llu  p999 %llu\n",
                        (unsigned long long)run.putLatencyPercentile(0.50),
                        (unsigned long long)run.putLatencyPercentile(0.99),
                        (unsigned long long)run.putLatencyPercentile(0.999));
            std::printf("%s", sim::kvStatsCsv(
                                  run.stats(),
                                  run.getLatencyPercentile(0.99),
                                  run.putLatencyPercentile(0.99))
                                  .c_str());
            if (run.payloadMismatches() > 0 || !run.allTokensRetired())
                tcoram_fatal("kv serving run failed verification");
            return 0;
        }

        rc.workload = wp;
        if (auto_budget > 0) {
            rc.inner.pathMode = oram::PathMode::Pipelined;
            rc.inner.evictionPolicy = oram::EvictionPolicy::HighWater;
            rc.inner.evictionBudget = auto_budget;
        }
        const bool daly = wp.method == "daly";
        const std::string ckpt_path =
            arg(argc, argv, "--checkpoint-path", "tcoram.ckpt");
        sim::RecoveryRun run(rc);
        run.start();
        if (daly) {
            std::printf("daly        interval %llu ops, %zu snapshot "
                        "mark(s) over %llu ops\n",
                        (unsigned long long)run.checkpointIntervalOps(),
                        run.checkpointMarks().size(),
                        (unsigned long long)run.backlogTotal());
        }
        std::uint64_t snapshots = 0;
        auto mark = run.checkpointMarks().begin();
        while (run.serveOne()) {
            if (mark != run.checkpointMarks().end() &&
                run.servedTotal() == *mark) {
                ++mark;
                ++snapshots;
                if (std::string err = run.saveTo(ckpt_path); !err.empty())
                    tcoram_fatal(err);
            }
        }
        run.finish();
        if (daly || snapshots > 0) {
            std::printf("served      %llu/%llu, %llu snapshot(s) to %s\n",
                        (unsigned long long)run.servedTotal(),
                        (unsigned long long)run.backlogTotal(),
                        (unsigned long long)snapshots, ckpt_path.c_str());
        }
        if (daly) {
            std::printf("%s\n%s\n", sim::RecoveryRun::csvHeader().c_str(),
                        run.csvRow().c_str());
            return 0;
        }
        std::printf("replayed    %llu ops over %u rank(s), tokens %s "
                    "retired\n",
                    (unsigned long long)run.backlogTotal(),
                    run.config().sessions,
                    run.allTokensRetired() ? "all" : "NOT ALL");
        if (!run.allTokensRetired())
            tcoram_fatal("workload replay left unretired tokens");
        return 0;
    }

    const std::string bench_name = arg(argc, argv, "--bench", "astar");
    workload::Profile prof;
    if (bench_name == "perl.splitmail")
        prof = workload::perlbenchSplitmail();
    else if (bench_name == "astar.biglakes")
        prof = workload::astarBigLakes();
    else
        prof = workload::specProfile(bench_name);

    const auto insts = numArg<InstCount>(argc, argv, "--insts", "600000");
    const auto warmup = numArg<InstCount>(argc, argv, "--warmup", "2400000");

    const std::string scheme = arg(argc, argv, "--scheme", "dynamic");
    const auto rates = numArg<std::size_t>(argc, argv, "--rates", "4");
    const auto growth = numArg<unsigned>(argc, argv, "--growth", "4");

    sim::SystemConfig cfg;
    if (scheme == "base_dram") {
        cfg = sim::SystemConfig::baseDram();
    } else if (scheme == "base_oram") {
        cfg = sim::SystemConfig::baseOram();
    } else if (scheme == "static") {
        cfg = sim::SystemConfig::staticScheme(
            numArg<Cycles>(argc, argv, "--rate", "300"));
    } else if (scheme == "dynamic") {
        cfg = sim::SystemConfig::dynamicScheme(rates, growth);
    } else if (scheme == "protected_dram") {
        cfg = sim::SystemConfig::protectedDram(rates, growth);
    } else {
        usage();
        tcoram_fatal("unknown scheme: ", scheme);
    }

    cfg.oram = oram::OramConfig::paperConfig();
    cfg.epoch0 = Cycles{1} << 18;
    cfg.llcBytes = numArg<std::uint64_t>(argc, argv, "--llc", "1048576");
    cfg.seed = numArg<std::uint64_t>(argc, argv, "--seed", "1");
    cfg.ipcWindow = 100'000;
    // Applied here, before any simulation thread exists.
    if (const char *be = arg(argc, argv, "--crypto-backend", nullptr))
        crypto::setDefaultCryptoBackend(crypto::parseCryptoBackend(be));
    parseDeviceFlags(argc, argv, cfg.device);
    if (const char *mb = arg(argc, argv, "--memory-backend", nullptr))
        cfg.memoryBackend = mb;
    if (std::string(arg(argc, argv, "--learner", "simple")) == "threshold")
        cfg.learnerKind = sim::SystemConfig::Learner::Threshold;
    if (const char *limit = arg(argc, argv, "--limit", nullptr)) {
        errno = 0;
        char *end = nullptr;
        cfg.leakageLimitBits = std::strtod(limit, &end);
        if (end == limit || *end != '\0' || errno == ERANGE ||
            !std::isfinite(cfg.leakageLimitBits)) {
            tcoram_fatal("--limit: expected a finite number of bits, got \"",
                         limit, "\"");
        }
    }

    sim::SecureProcessor proc(cfg, prof);
    const sim::SimResult r = proc.run(insts, warmup);

    std::printf("config      %s\n", r.configName.c_str());
    std::printf("workload    %s\n", r.workloadName.c_str());
    if (proc.oramDevice() != nullptr) {
        std::printf("oram device %s", proc.oramDevice()->kind());
        if (proc.enforcers().size() > 1)
            std::printf(" (%zu rate-enforced shards)",
                        proc.enforcers().size());
        std::printf("\n");
    }
    std::printf("cycles      %llu\n", (unsigned long long)r.cycles);
    std::printf("IPC         %.4f\n", r.ipc);
    std::printf("power       %.3f W (on-chip %.3f W)\n", r.watts,
                r.onChipWatts);
    std::printf("LLC misses  %llu\n", (unsigned long long)r.llcMisses);
    if (r.oramReal + r.oramDummy > 0) {
        std::printf("accesses    %llu real + %llu dummy (%.0f%% dummy), "
                    "OLAT %llu cycles",
                    (unsigned long long)r.oramReal,
                    (unsigned long long)r.oramDummy,
                    100.0 * r.dummyFraction(),
                    (unsigned long long)r.oramLatency);
        if (proc.oramDevice() != nullptr &&
            proc.oramDevice()->occupancyPerAccess() > r.oramLatency) {
            std::printf(" (path occupied %llu)",
                        (unsigned long long)
                            proc.oramDevice()->occupancyPerAccess());
        }
        std::printf("\n");
    }
    if (r.evictionsIssued > 0 || r.stashOccupancy > 0) {
        std::printf("eviction    %llu issued, %llu blocks written back, "
                    "stash %llu (high water %llu)\n",
                    (unsigned long long)r.evictionsIssued,
                    (unsigned long long)r.blocksEvicted,
                    (unsigned long long)r.stashOccupancy,
                    (unsigned long long)r.stashHighWater);
    }
    if (!r.rateDecisions.empty()) {
        std::printf("rates      ");
        for (const auto &d : r.rateDecisions)
            std::printf(" %llu", (unsigned long long)d.rate);
        std::printf("\nleakage     %.1f bits (paper constants: %.1f)\n",
                    r.simLeakageBits, r.paperLeakageBits);
        unsigned pinned = 0;
        for (const auto &enf : proc.enforcers())
            pinned += enf->pinnedDecisions();
        if (pinned > 0)
            std::printf("budget      pinned %u decisions at L = %.1f "
                        "bits\n",
                        pinned, cfg.leakageLimitBits);
    }

    if (const char *csv = arg(argc, argv, "--csv", nullptr)) {
        std::FILE *f = std::fopen(csv, "a");
        if (f == nullptr)
            tcoram_fatal("cannot open ", csv);
        std::fseek(f, 0, SEEK_END);
        const bool header_ok =
            std::ftell(f) != 0 ||
            std::fprintf(f, "%s\n", sim::csvHeader().c_str()) >= 0;
        const bool ok = header_ok &&
                        std::fprintf(f, "%s\n", sim::csvRow(r).c_str()) >= 0;
        if (std::fclose(f) != 0 || !ok)
            tcoram_fatal("write to CSV output failed: ", csv);
        std::printf("csv         appended to %s\n", csv);
    }
    return 0;
}
