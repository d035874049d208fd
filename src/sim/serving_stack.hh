/**
 * @file
 * ServingStack: the deterministic serving stack the run harnesses
 * share — DRAM model -> recorded ShardedOramDevice -> single-rate
 * RateSet / EpochSchedule / RateLearner -> RingScheduler. RecoveryRun
 * (sim/recovery_run.hh), WorkloadReplayRun (sim/workload_driver.hh) and
 * KvServingRun (sim/kv_serving.hh) each drive one.
 *
 * Everything is derived from the run seed, in a fixed construction and
 * RNG-draw order: the calibration Rng is seeded with the run seed, the
 * per-shard device keys with mixSeed(seed, 0x0de71ce5) and the block
 * router with mixSeed(seed, 0x0072a7e5). The rate set holds the single
 * enforced rate, so each rate decision reveals lg 1 = 0 bits and the
 * slot grid is pinned — which makes the harnesses' "exactly periodic"
 * gates exact rather than statistical, while the shared monitor's
 * ledger still runs (and is checkpointed).
 */

#ifndef TCORAM_SIM_SERVING_STACK_HH
#define TCORAM_SIM_SERVING_STACK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::sim {

class ServingStack
{
  public:
    /** One observable stream event (adversary's view of a shard). */
    struct Event
    {
        Cycles start = 0;
        bool real = false;

        bool
        operator==(const Event &o) const
        {
            return start == o.start && real == o.real;
        }
    };

    /**
     * @param inner per-shard backend spec (its key seed is derived
     *        from @p seed here)
     * @param shards M >= 1 subtree devices over the bench geometry
     * @param rate the single enforced inter-access gap
     * @param epoch0 first epoch length (growth 2)
     */
    ServingStack(oram::OramDeviceSpec inner, std::uint32_t shards,
                 Cycles rate, Cycles epoch0, std::uint64_t seed,
                 const RingScheduler::Options &opts);

    oram::ShardedOramDevice &device() { return device_; }
    const oram::ShardedOramDevice &device() const { return device_; }
    RingScheduler &scheduler() { return sched_; }
    const RingScheduler &scheduler() const { return sched_; }

    /** Enforced slot period of shard @p i: rate + its calibrated OLAT. */
    Cycles shardPeriod(std::uint32_t i) const;
    /** Max over shards (sizes drain horizons). */
    Cycles period() const;

    /** Fire trailing dummies to @p last + 8 * period().
     *  @return the horizon. */
    Cycles drainAfter(Cycles last);

    /** Shard @p i's full recorded stream (reals and dummies). */
    std::vector<Event> shardStream(std::uint32_t i) const;
    /** Shard @p i's access start cycles. */
    std::vector<Cycles> shardStarts(std::uint32_t i) const
    {
        return device_.recorder(i)->startCycles();
    }
    /** Every shard's stream as "shard,start,kind" rows (r/d). */
    std::string streamCsv() const;

    /** Every lane's tokens drained and behind the fence. */
    bool allTokensRetired() const;

  private:
    Cycles rate_;
    dram::DramModel mem_;
    Rng rng_;
    timing::RateSet rates_;
    timing::EpochSchedule schedule_;
    timing::RateLearner learner_;
    oram::ShardedOramDevice device_;
    RingScheduler sched_;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_SERVING_STACK_HH
