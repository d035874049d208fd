/**
 * @file
 * ServingStack: the one construction of a single-rate ring-scheduler
 * run — DRAM model -> ShardedOramDevice (recorded or not) -> single-rate
 * RateSet / EpochSchedule / RateLearner -> RingScheduler. Its callers
 * and their seeds (calibration Rng / block router):
 *
 *  - RecoveryRun (sim/recovery_run.hh; also every raw-access
 *    workload replay) and KvServingRun (sim/kv_serving.hh):
 *    ServingStack::seededBy(run seed), i.e. the run seed /
 *    mixSeed(seed, 0x0072a7e5), per-shard key seed
 *    mixSeed(seed, 0x0de71ce5);
 *  - bench_async_overlap, bench_multi_session, bench_scheduler_scale
 *    and bench_sharded_throughput: 42 / 7;
 *  - bench_background_eviction: 42 / 17.
 *
 * The construction and RNG-draw order is fixed. The rate set holds the
 * single enforced rate, so each rate decision reveals lg 1 = 0 bits and
 * the slot grid is pinned: every shard's stream ticks at exactly
 * shardPeriod(i), which makes the "exactly periodic" gates exact rather
 * than statistical, while the shared monitor's ledger still runs (and
 * is checkpointed). SecureProcessor wires per-shard RateEnforcers to
 * its own learners and is not built here.
 */

#ifndef TCORAM_SIM_SERVING_STACK_HH
#define TCORAM_SIM_SERVING_STACK_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_config.hh"
#include "oram/oram_device.hh"
#include "oram/sharded_device.hh"
#include "sim/shard_worker.hh"
#include "timing/epoch_schedule.hh"
#include "timing/rate_learner.hh"
#include "timing/rate_set.hh"

namespace tcoram::sim {

/**
 * Most ORAM accesses one workload op stream may ask a harness for:
 * RecoveryRun's whole materialized backlog (its lane ring holds all of
 * it), and each single KV scan of KvServingRun.
 */
inline constexpr std::uint64_t kMaxWorkloadAccesses = std::uint64_t{1} << 24;

/** A gap of a recorded start stream that is not the public period. */
struct OffPeriodGap
{
    std::size_t index = 0; ///< starts[index] - starts[index - 1]
    Cycles gap = 0;
};

/**
 * The exact-periodicity check of one observable stream: the first
 * consecutive pair of @p starts whose gap is not @p period, or nullopt
 * when every gap is exactly the period (trivially so below two starts
 * — callers gate the stream length themselves).
 */
std::optional<OffPeriodGap> firstOffPeriodGap(std::span<const Cycles> starts,
                                              Cycles period);

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

    struct Config
    {
        /** Per-shard backend spec (kind, path mode, faults, eviction,
         *  functional key seed). */
        oram::OramDeviceSpec inner;
        /** Whole-array geometry, split into the shards' subtrees. */
        oram::OramConfig oram = oram::OramConfig::benchConfig();
        /** M >= 1 subtree devices. */
        std::uint32_t shards = 1;
        /** The single enforced inter-access gap. */
        Cycles rate = 1000;
        /** First epoch length (growth 2). */
        Cycles epoch0 = Cycles{1} << 30;
        /** Seed of the Rng every shard calibrates with. */
        std::uint64_t calibSeed = 42;
        /** PRF key seed of the block -> shard router. */
        std::uint64_t routeSeed = 7;
        /** Wrap each shard in a RecordingOramDevice; the stream
         *  accessors below need it. */
        bool record = true;
        RingScheduler::Options opts;
    };

    /** The run harnesses' seeding, all derived from one run seed. */
    static Config seededBy(std::uint64_t seed, oram::OramDeviceSpec inner);

    explicit ServingStack(const Config &cfg);

    oram::ShardedOramDevice &device() { return device_; }
    const oram::ShardedOramDevice &device() const { return device_; }
    RingScheduler &scheduler() { return sched_; }
    const RingScheduler &scheduler() const { return sched_; }

    /**
     * Enforced slot period of shard @p i: max(rate + OLAT_i,
     * occupancy_i). The next slot opens rate cycles after the last
     * access's data is ready, but a pipelined path stays busy until its
     * write-back tail drains; in sync mode occupancy == OLAT.
     *
     * One regime is not exactly periodic at this value: with the
     * eviction engine on and rate + OLAT below occupancy, each access
     * defers its tail while deferral budget remains, so the first
     * `budget` gaps are rate + OLAT. Only then does the stream settle
     * at occupancy (an eviction never fits a rate-cycle idle window).
     */
    Cycles shardPeriod(std::uint32_t i) const;
    /** rate + the array's max OLAT (sizes drain horizons). */
    Cycles period() const;

    /** Fire trailing dummies to @p last + 8 * period().
     *  @return the horizon. */
    Cycles drainAfter(Cycles last);

    /** Shard @p i's full recorded stream (reals and dummies). */
    std::vector<Event> shardStream(std::uint32_t i) const;
    /** Shard @p i's access start cycles. */
    std::vector<Cycles> shardStarts(std::uint32_t i) const;
    /** firstOffPeriodGap() of shard @p i's stream at shardPeriod(i). */
    std::optional<OffPeriodGap> shardOffPeriodGap(std::uint32_t i) const
    {
        return firstOffPeriodGap(shardStarts(i), shardPeriod(i));
    }
    /** Every shard's stream as "shard,start,kind" rows (r/d). */
    std::string streamCsv() const;

    /** Every lane's tokens drained and behind the fence. */
    bool allTokensRetired() const;

  private:
    const timing::RecordingOramDevice &recorder(std::uint32_t i) const;

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
