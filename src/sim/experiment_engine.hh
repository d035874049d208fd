/**
 * @file
 * Parallel experiment engine: shards a (config x workload) grid across
 * a std::thread pool. Every cell gets its own deterministic seed
 * derived from (config seed, cell coordinates) — never from thread
 * identity or scheduling — so an N-thread run produces results
 * identical to a single-threaded run, and two runs of the same grid
 * are identical full stop. Cells share no mutable state: each one
 * builds its own SecureProcessor stack. What they may share is the
 * functional fast-forward: within one run() call, the cells of a
 * workload column with the same seed and LLC size start from one
 * warm-up (SecureProcessor::WarmState), built once and copied.
 */

#ifndef TCORAM_SIM_EXPERIMENT_ENGINE_HH
#define TCORAM_SIM_EXPERIMENT_ENGINE_HH

#include <cstdint>

#include "sim/experiment.hh"

namespace tcoram::sim {

class ExperimentEngine
{
  public:
    /**
     * @param threads worker count; 0 means the TCORAM_THREADS
     *        environment variable when set, else the hardware
     *        concurrency.
     */
    explicit ExperimentEngine(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * Run every config over every workload. Results are indexed
     * [config][workload] exactly like the serial runGrid(), and equal
     * runOne() of every cell at its cellSeed(). The warm-up is run
     * once per (workload, cell seed, llcBytes) key of this call and
     * each of the key's cells adopts a copy; nothing outlives the call.
     */
    Grid run(const std::vector<SystemConfig> &configs,
             const std::vector<workload::Profile> &workloads,
             InstCount insts, InstCount warmup = 0) const;

    /**
     * The deterministic seed of every grid cell in workload column
     * @p w: mixSeed over the config's own seed and the workload index
     * only. Deliberately independent of the config's grid position —
     * all configs must replay the identical synthetic instruction
     * stream for a workload, or the overhead ratios the paper's
     * figures report (treatment vs base_dram on the same trace) would
     * absorb workload-realization noise.
     */
    static std::uint64_t cellSeed(const SystemConfig &cfg, std::size_t w);

    /** Thread count used when the constructor argument is 0. */
    static unsigned defaultThreads();

  private:
    unsigned threads_;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_EXPERIMENT_ENGINE_HH
