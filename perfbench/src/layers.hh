/**
 * @file
 * Per-layer instruments of the traced run, all built on the library's
 * public registries and classes:
 *
 *  - isolated drives of one layer at a time (rate enforcer, sharded
 *    functional and timing-only ORAM devices, crypto engine), timed
 *    from here;
 *  - a counting MemoryIf decorator registered over the "flat" and
 *    "banked" DRAM backends through dram::BackendRegistry;
 *  - a timed workload method registered in workload::WorkloadRegistry
 *    that delegates to "kv" and records one span per getNext().
 */

#ifndef TCBENCH_LAYERS_HH
#define TCBENCH_LAYERS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace tcbench {

/**
 * The per-layer metric sheet of a traced run: every per-layer metric
 * of BENCHMARK.json, named by module, starting at 0. A workload sets
 * the ones its layers produce; a layer the workload bypasses stays 0.
 */
class LayerSheet
{
  public:
    LayerSheet();
    /** Set @p name (fatal if it is not a per-layer metric). */
    void set(const std::string &name, double value);
    void
    appendTo(Result &r) const
    {
        r.metrics.insert(r.metrics.end(), metrics_.begin(), metrics_.end());
    }

  private:
    std::vector<Metric> metrics_;
};

/** The grid's six configurations, in grid order. */
inline const char *const kGridConfigNames[] = {
    "base_dram",  "base_oram",  "dynamic_R4_E4",
    "static_300", "static_500", "static_1300",
};

/** KV stack geometry shared by the KV workloads and the ORAM drive. */
constexpr std::uint32_t kKvShards = 4;
constexpr std::uint64_t kKvHomeSlots = 2048;
constexpr std::uint32_t kKvSpillPerSlot = 2;

struct LayerDrives
{
    /** RateEnforcer::serve on a dynamic_R4_E4 timing stack. */
    double timingServeNs = 0.0;
    /** Sharded functional device at the KV geometry. */
    double oramRealSubmitUs = 0.0;
    double oramDummySubmitUs = 0.0;
    double oramStashHighWater = 0.0;
    double oramBytesPerTxn = 0.0;
    /** Crypto engine calls the functional datapath really issued,
     *  per transaction (real and dummy alike). */
    double cryptoCallsPerTxn = 0.0;
    /** Crypto bytes and blocks per call charged per transaction. */
    double cryptoBytesPerTxn = 0.0;
    double cryptoBlocksPerCall = 0.0;
    /** Timing-only device at the paper geometry. */
    double oramTimingSubmitNs = 0.0;
    /** CryptoEngineIf::encryptBlocks at the path batch size. */
    double cryptoNsPerBlock = 0.0;
};

/** Run every isolated drive once (a few tenths of a second). */
LayerDrives driveLayers(std::uint64_t seed);

/** Field-wise median of several drives (host timings are noisy). */
LayerDrives medianOf(const std::vector<LayerDrives> &drives);

/** Counters of the DRAM decorator (shared by all grid workers). */
struct DramCounters
{
    /** Stacks built while set get the counting decorator; stacks
     *  built while clear get the plain backend. */
    std::atomic<bool> enabled{false};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> hostNs{0};
};

/** The process-wide counters of the DRAM decorator. */
DramCounters &countingDram();

/**
 * Re-register "flat" and "banked" so that a stack built while
 * countingDram().enabled is set gets a counting decorator over its
 * FlatMemory / DramModel (forwarding every call, counting every
 * request into countingDram()); any other stack gets the plain
 * backend. Process-wide and permanent.
 */
void installCountingDram();

/** Name of the timed KV workload method (delegates to "kv"). */
constexpr const char *kTimedKvMethod = "tcbench_timed_kv";

/**
 * Register kTimedKvMethod. Each of its sources records one
 * "workload.getNext" span per call into the span log the loading
 * thread had set with setWorkloadSpanLog().
 */
void installTimedKvWorkload();

/** The calling thread's span log for timed workload sources. */
void setWorkloadSpanLog(SpanLog *log);

} // namespace tcbench

#endif // TCBENCH_LAYERS_HH
