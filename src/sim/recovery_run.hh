/**
 * @file
 * RecoveryRun: the crash-consistent run harness behind the fault-
 * recovery bench, the checkpoint tests, cli_sim's checkpoint mode and
 * every raw-access workload replay (cli_sim --workload <non-kv>,
 * bench_kv_serving's replay trio). It owns one ServingStack
 * (sim/serving_stack.hh: DRAM model, recorded sharded device array,
 * single-rate configuration, ring scheduler) and drives one open-loop
 * multi-session backlog through it — the legacy synthetic backlog, or
 * a workload-plane op stream mapped onto raw ORAM accesses:
 *
 *   Get k       -> real read  of block k mod numBlocks
 *   Put k       -> real write of block k mod numBlocks
 *   Scan k, n   -> n sequential real reads starting at k
 *   Think t     -> the rank's arrival clock advances t cycles
 *   End         -> the rank's backlog is complete
 *
 * It adds three things over driving the scheduler directly:
 *
 *  - checkpoint: saveTo() serializes the complete run state (device
 *    array including functional tree images and fault-injector draws,
 *    the ring scheduler's snapshot including queued backlog, stats and
 *    the leakage monitor's ledger) through sim/checkpoint.hh's
 *    crash-consistent file format;
 *  - restart: a freshly constructed RecoveryRun over the SAME config
 *    can restoreFrom() a snapshot instead of start()ing, after which
 *    serving continues bit-exactly where the saved run left off — the
 *    completed run's observable shard streams, stats and counters are
 *    indistinguishable from an uninterrupted run (golden-pinned);
 *  - fault accounting: the per-shard fault/recovery counters and the
 *    enforcer-charged recovery slots are summed for reporting.
 *
 * The whole backlog rides one lane and is queued before anything is
 * served; serveOne() is the scheduler's exact-count step
 * (RingScheduler::runUntilServed), so the n-th served transaction —
 * the kill points and served-count marks — is the n-th of the global
 * shard round-robin order, whatever the scheduler's worker count.
 *
 * Determinism contract: everything is derived from the config (seeds
 * included), so two RecoveryRuns with equal configs produce identical
 * streams — the bit-identity gates in bench_fault_recovery and
 * tests/test_fault_recovery rest on this.
 */

#ifndef TCORAM_SIM_RECOVERY_RUN_HH
#define TCORAM_SIM_RECOVERY_RUN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "oram/oram_device.hh"
#include "sim/serving_stack.hh"
#include "workload/workload_source.hh"

namespace tcoram::sim {

struct RecoveryRunConfig
{
    /**
     * Per-shard backend spec: kind "timing" or "functional", path
     * mode (the golden-pinned recovery streams run Sync), fault model
     * (data kinds arm the functional datapath), background eviction.
     * The functional capacity cap defaults to 512 blocks to keep host
     * memory bounded. Its seeds and shard count come from the fields
     * below (ServingStack::seededBy).
     */
    oram::OramDeviceSpec inner = {.functionalBlockCap = 512};
    std::uint32_t shards = 1;
    std::uint32_t sessions = 2;
    /** Open-loop backlog per session (arrivals at cycle k). */
    std::uint64_t txnsPerSession = 64;
    /** Enforced inter-access gap (single-candidate rate set). */
    Cycles rate = 1000;
    /** Master seed: calibration, keys, routing, protocol identities. */
    std::uint64_t seed = 42;
    /** First epoch length; small enough that runs cross boundaries. */
    Cycles epoch0 = Cycles{1} << 18;
    /**
     * Workload-plane op stream (workload/workload_source.hh). Unset
     * keeps the legacy synthetic backlog. Set switches the run to
     * workload-driven mode: the op stream is materialized into the
     * backlog at construction (one session per rank — `sessions` is
     * overridden; at most 2^24 accesses), and checkpoint
     * marks requested by the method (e.g. "daly"'s optimum interval)
     * become checkpointMarks() for the snapshot chain.
     */
    std::optional<workload::WorkloadParams> workload{};
};

class RecoveryRun
{
  public:
    /** One observable stream event (per-shard, adversary's view). */
    using Event = ServingStack::Event;

    /** Construct the stack and open the sessions (no work queued). */
    explicit RecoveryRun(const RecoveryRunConfig &cfg);
    ~RecoveryRun();

    /** Queue the whole open-loop backlog (cold start). */
    void start();

    /**
     * Restore a snapshot instead of start()ing: the backlog, device
     * and stats resume exactly where the saved run stood.
     * @return empty string on success, else the load diagnostic.
     */
    std::string restoreFrom(const std::string &path);

    /** Serve one queued transaction. @return false when drained. */
    bool serveOne();

    /**
     * Serve everything left, then fire trailing dummies to the
     * deterministic horizon. @return the drain horizon cycle.
     */
    Cycles finish();

    /** Crash-consistent snapshot of the full run state. @return empty
     *  string on success, else the save diagnostic. */
    std::string saveTo(const std::string &path) const;

    std::uint64_t servedTotal() const
    {
        return stack_->scheduler().servedTotal();
    }
    std::uint64_t backlogTotal() const
    {
        if (workloadDriven())
            return plan_.size();
        return static_cast<std::uint64_t>(cfg_.sessions) *
               cfg_.txnsPerSession;
    }
    bool workloadDriven() const { return cfg_.workload.has_value(); }
    /**
     * Served-count marks at which the workload asked for a snapshot
     * (serve until servedTotal() == mark, then saveTo() — the Daly
     * snapshot chain). Empty for methods without checkpoint requests.
     */
    const std::vector<std::uint64_t> &checkpointMarks() const
    {
        return marks_;
    }
    /** The workload's computed checkpoint interval in ops (0 when the
     *  method has none — workload/workload_source.hh). */
    std::uint64_t checkpointIntervalOps() const
    {
        return checkpointIntervalOps_;
    }
    Cycles lastRealCompletion() const { return lastReal_; }

    std::uint32_t shardCount() const
    {
        return stack_->device().shardCount();
    }
    /** Shard @p i's full recorded stream (reals and dummies). */
    std::vector<Event> shardStream(std::uint32_t i) const
    {
        return stack_->shardStream(i);
    }
    /** Shard @p i's first gap off its enforced slot period. */
    std::optional<OffPeriodGap> shardOffPeriodGap(std::uint32_t i) const
    {
        return stack_->shardOffPeriodGap(i);
    }

    /** Every shard's stream as "shard,start,kind" rows — the replay
     *  bit-identity digest. */
    std::string streamCsv() const { return stack_->streamCsv(); }
    /** Every lane's tokens drained and behind the fence. */
    bool allTokensRetired() const { return stack_->allTokensRetired(); }

    const RingScheduler &scheduler() const { return stack_->scheduler(); }
    oram::ShardedOramDevice &device() { return stack_->device(); }
    const RecoveryRunConfig &config() const { return cfg_; }

    /** Fault/recovery counters summed over functional shards (all
     *  zero for timing backends and fault-free runs). */
    std::uint64_t faultsInjected() const
    {
        return sumFunctional(&oram::FunctionalOramDevice::faultsInjected);
    }
    std::uint64_t faultsDetected() const
    {
        return sumFunctional(&oram::FunctionalOramDevice::faultsDetected);
    }
    std::uint64_t faultsRecovered() const
    {
        return sumFunctional(&oram::FunctionalOramDevice::faultsRecovered);
    }
    std::uint64_t retriesIssued() const
    {
        return sumFunctional(&oram::FunctionalOramDevice::retriesIssued);
    }
    /** Enforcer-charged recovery slots summed over shards. */
    std::uint64_t recoverySlots() const;
    /** Background evictions issued, summed over shards (0 with the
     *  eviction engine off). */
    std::uint64_t evictionsIssued() const;

    /**
     * Functional payload round trip under the active fault model:
     * write @p probes seeded blocks through the scheduler, read each
     * back, count mismatches (0 on a correct datapath). No-op (0) for
     * timing backends. Run after finish()'s serves, before reusing
     * the run for stream comparisons.
     */
    std::uint64_t verifyPayloads(std::uint64_t probes);

    /** One CSV row: config echo + outcome + fault counters. */
    std::string csvRow() const;
    static std::string csvHeader();

  private:
    /** One materialized workload access (workload-driven mode). */
    struct PlannedOp
    {
        std::uint32_t session = 0;
        Cycles arrival = 0;
        std::uint64_t blockId = 0;
        bool isWrite = false;
    };

    void materializeWorkload();
    std::uint64_t sumFunctional(
        std::uint64_t (oram::FunctionalOramDevice::*counter)() const) const;
    void submit(std::uint32_t session, Cycles arrival,
                const timing::OramTransaction &txn);
    /** Fold popped completions into lastReal_. */
    void collect();

    RecoveryRunConfig cfg_;
    std::unique_ptr<ServingStack> stack_;
    bool started_ = false;
    Cycles lastReal_ = 0;
    /** Next probe arrival per session (after the backlog's arrivals). */
    std::vector<Cycles> probeArrival_;
    /** Workload-driven backlog (empty in legacy mode). */
    std::vector<PlannedOp> plan_;
    /** Served-count checkpoint marks, ascending. */
    std::vector<std::uint64_t> marks_;
    std::uint64_t checkpointIntervalOps_ = 0;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_RECOVERY_RUN_HH
