/**
 * @file
 * WorkloadReplayRun: drive ANY workload-plane method (synthetic
 * profile, recorded op trace, KV client, Daly checkpoint stream)
 * through the ring scheduler as raw ORAM traffic — the method-
 * agnostic half of the workload plane's acceptance contract: the same
 * scheduler run replays every WorkloadSource through one API, and a
 * recorded trace of a synthetic run replays bit-identically to the
 * original (tests/test_workload_plane.cc).
 *
 * Op mapping (one closed loop per rank, one transaction in flight):
 *
 *   Get k       -> real read  of block k mod numBlocks
 *   Put k       -> real write of block k mod numBlocks
 *   Scan k, n   -> n sequential real reads starting at k
 *   Think t     -> the rank's clock advances t cycles
 *   End         -> the rank retires
 *
 * Unlike KvServingRun this layer moves no payloads — it exists to
 * replay op streams against the timing plane, so every shard is the
 * calibrated timing device, fed by one producer lane.
 */

#ifndef TCORAM_SIM_WORKLOAD_DRIVER_HH
#define TCORAM_SIM_WORKLOAD_DRIVER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/serving_stack.hh"
#include "workload/workload_source.hh"

namespace tcoram::sim {

struct WorkloadReplayConfig
{
    std::uint32_t shards = 4;
    unsigned threads = 1;
    Cycles rate = 300;
    std::uint64_t seed = 42;
    /** Op stream; workload.ranks == session count. */
    workload::WorkloadParams workload;
};

class WorkloadReplayRun
{
  public:
    explicit WorkloadReplayRun(const WorkloadReplayConfig &cfg);
    ~WorkloadReplayRun();

    /** Deterministic single-producer drive (then trailing drain). */
    void run();

    /** Access transactions completed (gets + puts + scan elements). */
    std::uint64_t opsCompleted() const;
    std::uint32_t sessionCount() const
    {
        return static_cast<std::uint32_t>(sessions_.size());
    }
    bool allTokensRetired() const { return stack_->allTokensRetired(); }

    Cycles period() const { return stack_->period(); }
    std::vector<Cycles> shardStarts(std::uint32_t i) const
    {
        return stack_->shardStarts(i);
    }
    /** Every shard's observable stream (start + kind rows) — the
     *  replay bit-identity digest. */
    std::string streamCsv() const { return stack_->streamCsv(); }

    const RingScheduler &scheduler() const { return stack_->scheduler(); }
    const WorkloadReplayConfig &config() const { return cfg_; }

  private:
    struct Session
    {
        std::uint32_t sid = 0;
        std::uint32_t rank = 0;
        Cycles clock = 0;
        bool ended = false;
        bool awaiting = false;
        std::uint32_t scanLeft = 0;
        std::uint64_t scanKey = 0;
        std::uint64_t opsDone = 0;
        Cycles lastDone = 0;
    };

    bool advanceSession(Session &s);
    bool submitAccess(Session &s, std::uint64_t key, bool is_write);

    WorkloadReplayConfig cfg_;
    std::uint64_t numBlocks_ = 0;
    std::unique_ptr<ServingStack> stack_;
    std::unique_ptr<workload::WorkloadSource> source_;
    std::vector<Session> sessions_;
    bool ran_ = false;
};

} // namespace tcoram::sim

#endif // TCORAM_SIM_WORKLOAD_DRIVER_HH
