/**
 * @file
 * Shared setup for the reproduction benches: the standard scaled run
 * (DESIGN.md §7), the evaluated configurations of §9.1.6, and output
 * helpers. Every bench prints the paper's rows/series; EXPERIMENTS.md
 * records paper-vs-measured for each.
 */

#ifndef TCORAM_BENCH_BENCH_COMMON_HH
#define TCORAM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/experiment_engine.hh"
#include "sim/system_config.hh"
#include "workload/spec_suite.hh"

namespace tcoram::bench {

/** Measured instructions per run (paper: 200-250 G, scaled ~300x). */
constexpr InstCount kInsts = 600'000;
/** Functional fast-forward instructions (paper: 1-20 G). Long enough
 *  for word-granular walks to cover every hot line. */
constexpr InstCount kWarmup = 2'400'000;
/** Longer runs for the time-series figures. */
constexpr InstCount kLongInsts = 5'000'000;
/** IPC/miss sampling window (paper: 1 G instructions, scaled). */
constexpr InstCount kWindow = 100'000;

/** Scaled epoch0 (paper: 2^30; see DESIGN.md §7). */
constexpr Cycles kEpoch0 = Cycles{1} << 18;

/** Apply the standard bench scaling to a preset. */
inline sim::SystemConfig
scaled(sim::SystemConfig c)
{
    c.oram = oram::OramConfig::paperConfig(); // timing-only: cheap
    c.epoch0 = kEpoch0;
    c.ipcWindow = kWindow;
    return c;
}

/** The five §9.1.6 baselines plus our headline dynamic scheme. */
inline std::vector<sim::SystemConfig>
paperConfigs()
{
    return {
        scaled(sim::SystemConfig::baseDram()),
        scaled(sim::SystemConfig::baseOram()),
        scaled(sim::SystemConfig::dynamicScheme(4, 4)),
        scaled(sim::SystemConfig::staticScheme(300)),
        scaled(sim::SystemConfig::staticScheme(500)),
        scaled(sim::SystemConfig::staticScheme(1300)),
    };
}

/** The 11-benchmark suite as Profiles. */
inline std::vector<workload::Profile>
suiteProfiles()
{
    std::vector<workload::Profile> out;
    for (const auto &name : workload::specSuiteNames())
        out.push_back(workload::specProfile(name));
    return out;
}

inline void
banner(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Value following @p flag on the command line, or @p fallback. */
inline const char *
argValue(int argc, char **argv, const char *flag, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return argv[i + 1];
    return fallback;
}

/** True if @p flag appears on the command line. */
inline bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

/** Number stored under @p key in the flat JSON baseline file @p path
 *  (the committed bench/<name>_baseline.json); fatal if the file or
 *  the key is missing. */
inline double
baselineNumber(const std::string &path, const std::string &key)
{
    std::ifstream f(path);
    if (!f)
        tcoram_fatal("cannot read baseline ", path);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    const std::string needle = "\"" + key + "\"";
    const std::size_t pos = text.find(needle);
    const std::size_t colon = pos == std::string::npos
                                  ? std::string::npos
                                  : text.find(':', pos + needle.size());
    if (colon == std::string::npos)
        tcoram_fatal("baseline ", path, " lacks ", key);
    return std::strtod(text.c_str() + colon + 1, nullptr);
}

/**
 * Apply a `--oram-device <timing|functional>` command-line flag to
 * every configuration in @p configs. The functional device moves real
 * data through the PathOram stack with timing-device-identical
 * charging, so a bench's numbers must not change with the flag — the
 * golden-stats test enforces exactly that. Unknown kinds die with a
 * clear fatal when the first SecureProcessor checks the device spec.
 */
inline void
applyOramDeviceFlag(int argc, char **argv,
                    std::vector<sim::SystemConfig> &configs)
{
    const char *kind = argValue(argc, argv, "--oram-device", nullptr);
    if (kind == nullptr)
        return;
    for (auto &c : configs)
        c.device.kind = kind;
    std::fprintf(stderr, "[bench] ORAM device: %s\n", kind);
}

/**
 * Apply a `--dram-mode <sync|async>` command-line flag to every
 * configuration in @p configs. Async calibrates the split-transaction
 * controller (oram/oram_device.hh): bucket write-backs overlap
 * in-flight deeper reads, OLAT shrinks to the path-read phase, and
 * the write-back tail drains inside the enforced inter-access gap —
 * so figures run faster at identical leakage accounting. Sync (the
 * default) is the mode every golden CSV is pinned under. Unknown
 * modes die here, naming the string (oram::parsePathMode).
 */
inline void
applyDramModeFlag(int argc, char **argv,
                  std::vector<sim::SystemConfig> &configs)
{
    const char *mode = argValue(argc, argv, "--dram-mode", nullptr);
    if (mode == nullptr)
        return;
    const oram::PathMode path_mode = oram::parsePathMode(mode);
    for (auto &c : configs)
        c.device.pathMode = path_mode;
    std::fprintf(stderr, "[bench] DRAM mode: %s\n", mode);
}

/**
 * sim::runGrid (itself the parallel ExperimentEngine; TCORAM_THREADS
 * overrides the worker count, results are thread-count-independent)
 * plus a progress line benches print even when quiet.
 */
inline sim::Grid
runGridParallel(const std::vector<sim::SystemConfig> &configs,
                const std::vector<workload::Profile> &profiles,
                InstCount insts, InstCount warmup)
{
    std::fprintf(stderr, "[engine] %zu x %zu grid on %u thread(s)\n",
                 configs.size(), profiles.size(),
                 sim::ExperimentEngine::defaultThreads());
    return sim::runGrid(configs, profiles, insts, warmup);
}

} // namespace tcoram::bench

#endif // TCORAM_BENCH_BENCH_COMMON_HH
