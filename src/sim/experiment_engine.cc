#include "sim/experiment_engine.hh"

#include <atomic>
#include <climits>
#include <cstdlib>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/secure_processor.hh"

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

namespace {

/** Call fn(i) for every i in [0, n) on at most @p threads workers,
 *  each taking the next index; returns when all calls have. */
template <typename Fn>
void
parallelFor(std::size_t n, unsigned threads, Fn fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    const std::size_t workers = threads < n ? threads : n;
    if (workers <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

} // namespace

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

    // The cells of a workload column that share a seed and an LLC size
    // fast-forward to the same state. The first pass builds each such
    // key's warm state once; the second runs every cell on its own,
    // from a copy of its key's state (a key's only cell takes it).
    struct Cell
    {
        std::size_t c, w, key;
        SystemConfig cfg; // configs[c] at the cell's seed
    };
    struct Key
    {
        const Cell *first; // the key's warm-up is its first cell's
        std::size_t cells = 0;
        std::optional<SecureProcessor::WarmState> warm;
    };
    std::vector<Cell> cells;
    cells.reserve(configs.size() * workloads.size());
    std::map<std::tuple<std::size_t, std::uint64_t, std::uint64_t>,
             std::size_t>
        key_of;
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            SystemConfig cfg = configs[c];
            cfg.seed = cellSeed(configs[c], w);
            const auto it =
                key_of.try_emplace({w, cfg.seed, cfg.llcBytes}, key_of.size())
                    .first;
            cells.push_back({c, w, it->second, std::move(cfg)});
        }
    }
    std::vector<Key> keys(key_of.size());
    for (const Cell &cell : cells) {
        Key &key = keys[cell.key];
        if (key.cells++ == 0)
            key.first = &cell;
    }

    parallelFor(keys.size(), threads_, [&](std::size_t k) {
        const Cell &cell = *keys[k].first;
        keys[k].warm =
            SecureProcessor::warmUp(cell.cfg, workloads[cell.w], warmup);
    });
    parallelFor(cells.size(), threads_, [&](std::size_t i) {
        const Cell &cell = cells[i];
        Key &key = keys[cell.key];
        SecureProcessor proc(cell.cfg, workloads[cell.w]);
        g.results[cell.c][cell.w] =
            key.cells == 1 ? proc.run(insts, std::move(*key.warm))
                           : proc.run(insts, *key.warm);
    });
    return g;
}

} // namespace tcoram::sim
