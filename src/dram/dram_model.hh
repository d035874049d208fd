/**
 * @file
 * Banked multi-channel DRAM timing model (DRAMSim2 substitute). Maps
 * physical addresses to channel/bank/row, tracks per-bank row-buffer
 * state, and returns completion times in processor cycles.
 */

#ifndef TCORAM_DRAM_DRAM_MODEL_HH
#define TCORAM_DRAM_DRAM_MODEL_HH

#include <cstdint>
#include <vector>

#include "dram/bank.hh"
#include "dram/dram_config.hh"
#include "dram/memory_if.hh"

namespace tcoram::dram {

class DramModel : public MemoryIf
{
  public:
    explicit DramModel(const DramConfig &cfg);

    /**
     * Split-transaction core: the bank/channel state machines resolve
     * the transaction's occupancy at issue time (they are
     * deterministic), and the retirement is queued as an event instead
     * of collapsed into a blocking return.
     */
    TxnToken issue(Cycles now, const MemRequest &req) override;
    Cycles nextEventAt() const override { return queue_.nextEventAt(); }
    std::span<const Retired> drainRetired(Cycles up_to) override
    {
        return queue_.drain(up_to);
    }

    /** Blocking adapters, one pass each (RetireQueue::serveBlocking):
     *  the same completions and in-flight set as the base event loop. */
    Cycles access(Cycles now, const MemRequest &req) override;
    Cycles accessBatch(Cycles now, std::span<const MemRequest> reqs) override;

    std::uint64_t requestCount() const override { return requests_; }
    std::uint64_t bytesMoved() const override { return bytes_; }

    /** Idle every bank and channel bus, abort in-flight transactions
     *  (counters kept). */
    void resetTiming() override;

    /** Aggregate row-buffer hit rate across all banks. */
    double rowHitRate() const;

    const DramConfig &config() const { return cfg_; }

    /** Address decomposition exposed for tests. */
    struct Decoded
    {
        unsigned channel;
        unsigned bank;
        std::uint64_t row;
    };
    Decoded decode(Addr addr) const;

  private:
    /** Non-virtual service core: advances the bank/bus state machines
     *  and returns the transaction's completion cycle. */
    Cycles serveOne(Cycles now, const MemRequest &req);

    DramConfig cfg_;
    std::vector<Bank> banks_; // channels * banksPerChannel, channel-major
    /** Per-channel data-bus availability (DRAM cycles): transfers on a
     *  channel serialize even when they hit different banks. */
    std::vector<std::uint64_t> channelBusyUntil_;
    RetireQueue queue_;
    std::uint64_t requests_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace tcoram::dram

#endif // TCORAM_DRAM_DRAM_MODEL_HH
