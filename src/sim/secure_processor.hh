/**
 * @file
 * SecureProcessor: the full system of Figure 3. Assembles the core,
 * cache hierarchy, DRAM, the transactional ORAM device (timing model
 * or functional datapath, per SystemConfig::device), and (for the
 * protected schemes) the epoch timer + rate learner + enforcer, then
 * runs a workload and reports a SimResult.
 */

#ifndef TCORAM_SIM_SECURE_PROCESSOR_HH
#define TCORAM_SIM_SECURE_PROCESSOR_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "dram/dram_model.hh"
#include "dram/flat_memory.hh"
#include "power/energy_model.hh"
#include "sim/sim_result.hh"
#include "sim/system_config.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_enforcer.hh"
#include "timing/threshold_learner.hh"
#include "workload/generators.hh"

namespace tcoram::sim {

class SecureProcessor
{
  public:
    /**
     * What the functional fast-forward (§9.1.1) leaves behind: the
     * warmed caches and the trace's stream position. It depends on the
     * profile, the seed, llcBytes and the warm-up length, not on the
     * scheme, so cells that share those can start from one copy.
     */
    struct WarmState
    {
        cache::Hierarchy hierarchy;
        workload::SyntheticTrace trace;
    };

    SecureProcessor(const SystemConfig &cfg,
                    const workload::Profile &profile);
    ~SecureProcessor();

    /**
     * The warm state a processor of (@p cfg, @p profile) reaches after
     * fast-forwarding @p warmup instructions.
     */
    static WarmState warmUp(const SystemConfig &cfg,
                            const workload::Profile &profile,
                            InstCount warmup);

    /**
     * Run @p insts measured instructions and return the result record.
     * @param warmup instructions executed (and discarded) first to
     *        warm the caches, mirroring the paper's fast-forward
     *        methodology (§9.1.1).
     */
    SimResult run(InstCount insts, InstCount warmup = 0);

    /**
     * Same, on a freshly constructed processor, starting from @p warm
     * instead of fast-forwarding: the result equals run(insts, warmup)
     * when @p warm is warmUp(cfg, profile, warmup).
     */
    SimResult run(InstCount insts, WarmState warm);

    /**
     * The rate enforcers of an enforced scheme: one per shard when the
     * ORAM device is sharded M > 1 ways, else one over the whole
     * device. Empty when the scheme is unenforced.
     */
    const std::vector<std::unique_ptr<timing::RateEnforcer>> &
    enforcers() const
    {
        return enforcers_;
    }

    /**
     * The transactional ORAM device behind the memory system
     * (timing/oram_device.hh), if the scheme has one (else nullptr).
     * Its concrete backend is SystemConfig::device.kind.
     */
    const timing::OramDeviceIf *oramDevice() const { return device_.get(); }

    const cache::Hierarchy &hierarchy() const { return *hierarchy_; }

  private:
    /** The timed run; every event count is a delta from its start. */
    SimResult measure(InstCount insts);

    class DramBackend;
    class OramBackend;
    class EnforcedBackend;

    SystemConfig cfg_;
    Rng rng_;
    std::unique_ptr<dram::MemoryIf> mem_;
    std::unique_ptr<cache::Hierarchy> hierarchy_;
    std::unique_ptr<timing::RateSet> rates_;
    std::unique_ptr<timing::EpochSchedule> schedule_;
    std::unique_ptr<timing::LearnerIf> learner_;
    std::unique_ptr<timing::OramDeviceIf> device_;
    std::vector<std::unique_ptr<timing::RateEnforcer>> enforcers_;
    std::unique_ptr<timing::LeakageMonitor> monitor_;
    std::unique_ptr<cpu::MemorySystemIf> backend_;
    std::unique_ptr<workload::SyntheticTrace> trace_;
    std::unique_ptr<cpu::Core> core_;
    power::EnergyModel energy_;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_SECURE_PROCESSOR_HH
