/**
 * @file
 * The rate learner's three performance counters (paper §7.1.1,
 * Figure 4), maintained at the ORAM controller by watching the
 * LLC-to-ORAM request queue:
 *
 *  - AccessCount: real (non-dummy) ORAM requests this epoch.
 *  - ORAMCycles:  cycles each real request was being serviced by the
 *                 ORAM, summed over requests.
 *  - Waste:       cycles lost to the current rate — waiting for the
 *                 next allowed slot with real work pending (overset
 *                 rate, Req 1), a real request arriving while a dummy
 *                 is in flight (underset rate, Req 2), and one rate-
 *                 value charge per additional concurrently outstanding
 *                 miss (Req 3).
 *
 * Plus crypto-work attribution counters (not part of the paper's
 * Figure 4): bytes pushed through the bucket AES-CTR engine and the
 * number of batched crypto calls, for Table-2-style energy/perf
 * reports. With the path-level engine (oram/path_oram.hh) every real
 * AND dummy access costs 2·(H+1) batched calls for H recursion stages
 * — one whole-path decrypt and one whole-path write-back encrypt per
 * tree. Unlike the learner's counters these are run-cumulative —
 * reset() deliberately keeps them, and the sim layer reads them off
 * the enforcer at the end of a run (SimResult cryptoBytes/cryptoCalls,
 * dumped as oram.crypto_bytes/crypto_calls/crypto_calls_per_access).
 */

#ifndef TCORAM_TIMING_PERF_COUNTERS_HH
#define TCORAM_TIMING_PERF_COUNTERS_HH

#include <cstdint>

#include "common/serial.hh"
#include "common/types.hh"

namespace tcoram::timing {

class PerfCounters
{
  public:
    /** Reset at each epoch transition (§7.1.1). */
    void reset();

    /** A real access was serviced with the given ORAM latency. */
    void noteRealAccess(Cycles oram_latency);

    /** Cycles a pending real request spent waiting on the rate. */
    void noteWaste(Cycles cycles);

    /** An access (real or dummy) moved @p bytes through the crypto
     *  engine in @p calls batched engine invocations. */
    void noteCrypto(std::uint64_t bytes, std::uint64_t calls);

    /**
     * A transaction recovered from corruption: @p detected failed
     * verify passes, @p retries re-reads, @p slots dummy-equivalent
     * backoff slots charged into the observable stream. Run-cumulative
     * like the crypto counters — recovery cost reporting must survive
     * epoch transitions.
     */
    void noteFaultRecovery(std::uint64_t detected, std::uint64_t retries,
                           std::uint64_t slots);

    /**
     * Background evictions issued in enforced-gap idle windows
     * (oram/eviction_engine.hh). Run-cumulative like the crypto and
     * recovery counters — never a learner input, so eviction never
     * shifts a rate decision.
     */
    void noteEvictions(std::uint64_t evictions);

    std::uint64_t accessCount() const { return accessCount_; }
    Cycles oramCycles() const { return oramCycles_; }
    Cycles waste() const { return waste_; }
    std::uint64_t cryptoBytes() const { return cryptoBytes_; }
    std::uint64_t cryptoCalls() const { return cryptoCalls_; }
    std::uint64_t faultsDetected() const { return faultsDetected_; }
    std::uint64_t faultRetries() const { return faultRetries_; }
    std::uint64_t recoverySlots() const { return recoverySlots_; }
    std::uint64_t evictionsIssued() const { return evictionsIssued_; }

    /** Checkpoint support. */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    std::uint64_t accessCount_ = 0;
    Cycles oramCycles_ = 0;
    Cycles waste_ = 0;
    std::uint64_t cryptoBytes_ = 0;
    std::uint64_t cryptoCalls_ = 0;
    std::uint64_t faultsDetected_ = 0;
    std::uint64_t faultRetries_ = 0;
    std::uint64_t recoverySlots_ = 0;
    std::uint64_t evictionsIssued_ = 0;
};

} // namespace tcoram::timing

#endif // TCORAM_TIMING_PERF_COUNTERS_HH
