/**
 * @file
 * ORAM controller timing front-end. Sits where a DRAM controller
 * would (paper §3): the processor requests a cache line, the
 * controller charges the cost of reading + writing a full tree path in
 * the data ORAM and every recursive ORAM.
 *
 * Path ORAM's access cost is address-independent by construction
 * (every access touches one root-to-leaf path per tree), so the
 * controller derives its per-access costs by replaying one path's DRAM
 * transactions against the banked DRAM model once at construction —
 * reproducing the paper's methodology, which quotes a constant
 * 1488-cycle / 24.2 KB access for the 4 GB configuration.
 *
 * Two path modes select what that replay models:
 *
 *  - PathMode::Sync (the paper's controller): read the whole path,
 *    then write the whole path back; the requested line is available —
 *    and the controller free — only when the last write-back bucket
 *    lands. OLAT covers both phases.
 *
 *  - PathMode::Pipelined (split-transaction controller): bucket
 *    write-backs are issued through the async dram::MemoryIf the
 *    moment their read retires (re-encryption is not cycle-charged,
 *    matching the sync model), so write-back of level k is in flight
 *    while deeper reads still stream. The requested line is available
 *    once the path read completes — OLAT shrinks to the read phase —
 *    while the write-back tail drains in the shadow of the enforced
 *    inter-access gap. occupancyPerAccess() is the full drain time;
 *    the controller does not start the next access before the previous
 *    one's write-back has retired, so the DRAM-level stream stays
 *    address- and data-independent.
 */

#ifndef TCORAM_ORAM_ORAM_CONTROLLER_HH
#define TCORAM_ORAM_ORAM_CONTROLLER_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "common/types.hh"
#include "dram/memory_if.hh"
#include "oram/eviction_engine.hh"
#include "oram/oram_config.hh"
#include "timing/oram_device.hh"

namespace tcoram::oram {

/** Path read/write-back scheduling policy (SystemConfig::dramMode). */
enum class PathMode
{
    Sync,      ///< whole-path read, then whole-path write-back
    Pipelined, ///< write-backs overlap in-flight deeper reads
};

class OramController
{
  public:
    /**
     * @param cfg tree geometry
     * @param mem DRAM backing the tree (used once, for calibration)
     * @param rng randomness for the calibration path choice (the same
     *        draws whichever mode, so modes never shift a seeded run)
     * @param mode path scheduling policy to calibrate under
     */
    OramController(const OramConfig &cfg, dram::MemoryIf &mem, Rng &rng,
                   PathMode mode = PathMode::Sync,
                   const EvictionConfig &evict = {});

    /**
     * Start an access at processor cycle @p now.
     * @return cycle at which the requested line is available. In sync
     *         mode the controller is also free again then; in
     *         pipelined mode its write-back tail keeps the path busy
     *         until start + occupancyPerAccess().
     */
    Cycles access(Cycles now);

    /** Same cost as access(); semantic distinction kept for stats. */
    Cycles dummyAccess(Cycles now);

    /** Calibrated per-access latency (the paper's OLAT): cycles from
     *  service start until the requested line is available. */
    Cycles accessLatency() const { return latency_; }

    /**
     * Cycles from service start until the controller's DRAM traffic
     * for the access has fully drained and the next access may start.
     * Equals accessLatency() in sync mode; in pipelined mode it covers
     * the overlapped write-back tail (occupancy >= latency).
     */
    Cycles occupancyPerAccess() const { return occupancy_; }

    /** The calibrated path mode. */
    PathMode pathMode() const { return mode_; }

    /** Bytes moved over the pins per access (paper: 24.2 KB). */
    std::uint64_t bytesPerAccess() const { return bytesPerAccess_; }

    /** AES chunks per access (16 B each; paper: 2 * 758 per direction). */
    std::uint64_t chunksPerAccess() const { return chunksPerAccess_; }

    /**
     * Bytes through the bucket crypto engine per access: every byte
     * moved on/off chip is decrypted (path read) or encrypted (path
     * write-back) exactly once, so this equals bytesPerAccess().
     */
    std::uint64_t cryptoBytesPerAccess() const { return bytesPerAccess_; }

    /**
     * Batched crypto-engine invocations per access with the path-level
     * engine: one whole-path decrypt and one whole-path write-back
     * encrypt per tree (data + each recursive position-map ORAM) —
     * 2·(H+1) for H recursion stages.
     */
    std::uint64_t cryptoCallsPerAccess() const
    {
        return cryptoCallsPerAccess_;
    }

    std::uint64_t realAccesses() const { return realAccesses_; }
    std::uint64_t dummyAccesses() const { return dummyAccesses_; }
    std::uint64_t totalAccesses() const
    {
        return realAccesses_ + dummyAccesses_;
    }

    /** Cycle at which the controller's current access (including any
     *  overlapped write-back tail) stops occupying the path. */
    Cycles busyUntil() const { return busyUntil_; }

    const OramConfig &config() const { return cfg_; }

    /**
     * Issue background evictions inside the idle window between
     * busyUntil() and @p horizon. The enforcer guarantees no future
     * slot can start before @p horizon, and every eviction issued here
     * fully retires by then — an eviction in flight never delays a
     * real access's slot. No-op (and zero-cost) when the engine is
     * off, so eviction-off runs stay bit-identical to pre-eviction.
     * The charge's firstSchedule is the reverse-lexicographic schedule
     * index of the first eviction (functional devices realize
     * evictions [firstSchedule, firstSchedule + evictions) against
     * their stash).
     */
    timing::OramEvictionCharge maybeEvict(Cycles horizon);

    const EvictionEngine &evictionEngine() const { return evict_; }

    /**
     * Modeled stash pressure, identical for timing-only and functional
     * devices: each deferred write-back tail parks one path's worth of
     * blocks in the stash until a background eviction retires it.
     */
    std::uint64_t stashOccupancy() const
    {
        return evict_.debt() * pathBlocksPerAccess_;
    }
    std::uint64_t stashHighWater() const
    {
        return evict_.highWaterDebt() * pathBlocksPerAccess_;
    }
    std::uint64_t blocksEvicted() const
    {
        return evict_.evictionsIssued() * pathBlocksPerAccess_;
    }
    std::uint64_t evictionsIssued() const
    {
        return evict_.evictionsIssued();
    }

    /**
     * Checkpoint support: the run state (busy horizon, served
     * counters). Calibration results are derived at construction and
     * asserted — not restored — so a snapshot can never smuggle in a
     * mismatched geometry.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /** One representative access's path-read transactions (all trees). */
    std::vector<dram::MemRequest> buildPathReads(Rng &rng) const;
    Cycles calibrateSync(dram::MemoryIf &mem,
                         std::span<const dram::MemRequest> reads);
    /** Sets latency_ (read done) AND occupancy_ (full drain). */
    void calibratePipelined(dram::MemoryIf &mem,
                            std::span<const dram::MemRequest> reads);
    Cycles serve(Cycles now);

    OramConfig cfg_;
    PathMode mode_;
    EvictionEngine evict_;
    Cycles latency_ = 0;
    Cycles occupancy_ = 0;
    std::uint64_t bytesPerAccess_ = 0;
    std::uint64_t chunksPerAccess_ = 0;
    std::uint64_t cryptoCallsPerAccess_ = 0;
    std::uint64_t pathBlocksPerAccess_ = 0;
    Cycles busyUntil_ = 0;
    std::uint64_t realAccesses_ = 0;
    std::uint64_t dummyAccesses_ = 0;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_ORAM_CONTROLLER_HH
