#include "sim/experiment_engine.hh"

#include <atomic>
#include <climits>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"

namespace tcoram::sim {

unsigned
ExperimentEngine::defaultThreads()
{
    if (const char *env = std::getenv("TCORAM_THREADS")) {
        // The whole string must be a positive count that fits
        // `unsigned`: "2x" or an out-of-range value is not a count.
        char *end = nullptr;
        const long long n = std::strtoll(env, &end, 10);
        if (*end == '\0' && n > 0 && n <= UINT_MAX)
            return static_cast<unsigned>(n);
        warnImpl("ignoring invalid TCORAM_THREADS value");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ExperimentEngine::ExperimentEngine(unsigned threads)
    : threads_(threads > 0 ? threads : defaultThreads())
{
}

std::uint64_t
ExperimentEngine::cellSeed(const SystemConfig &cfg, std::size_t w)
{
    return mixSeed(cfg.seed, w + 1);
}

Grid
ExperimentEngine::run(const std::vector<SystemConfig> &configs,
                      const std::vector<workload::Profile> &workloads,
                      InstCount insts, InstCount warmup) const
{
    Grid g;
    g.configs = configs;
    g.workloads = workloads;
    g.results.assign(configs.size(),
                     std::vector<SimResult>(workloads.size()));

    const std::size_t cells = configs.size() * workloads.size();
    if (cells == 0)
        return g;

    const std::size_t n = threads_ < cells ? threads_ : cells;

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= cells)
                return;
            const std::size_t c = i / workloads.size();
            const std::size_t w = i % workloads.size();
            g.results[c][w] =
                runOne(configs[c], workloads[w], insts, warmup,
                       cellSeed(configs[c], w));
        }
    };

    if (n <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n);
        for (std::size_t t = 0; t < n; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    return g;
}

} // namespace tcoram::sim
