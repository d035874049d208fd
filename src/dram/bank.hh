/**
 * @file
 * Single DRAM bank with a row buffer. Tracks the open row and the
 * earliest DRAM-cycle at which a new command can issue, and computes
 * the service latency of a read/write burst under open- or closed-
 * page policy.
 */

#ifndef TCORAM_DRAM_BANK_HH
#define TCORAM_DRAM_BANK_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/dram_config.hh"

namespace tcoram::dram {

class Bank
{
  public:
    explicit Bank(const DramConfig &cfg) : cfg_(&cfg) {}

    /**
     * Service a burst touching @p row at DRAM-cycle @p now.
     *
     * @param now DRAM cycle the request arrives at the bank
     * @param row row index within this bank
     * @param burst_cycles data-transfer cycles for the burst
     * @return DRAM cycle at which the data transfer completes
     */
    std::uint64_t access(std::uint64_t now, std::uint64_t row,
                         std::uint64_t burst_cycles);

    /**
     * Split-phase protocol used by the channel scheduler so row
     * activation in one bank overlaps data transfer in another:
     * prepare() returns the earliest DRAM cycle data could start
     * (performing the hit/miss row transition); commit() records the
     * actual transfer completion chosen by the channel.
     */
    std::uint64_t prepare(std::uint64_t now, std::uint64_t row);
    void commit(std::uint64_t done);

    /** Row currently latched in the row buffer (kInvalidId if none). */
    std::uint64_t openRow() const { return openRow_; }

    /** Row-hit count since construction (statistics). */
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }

    /** Back to the idle construction state (hit counters kept). */
    void resetTiming();

  private:
    const DramConfig *cfg_;
    std::uint64_t openRow_ = kInvalidId;
    /** Earliest cycle the next command may issue. */
    std::uint64_t readyAt_ = 0;
    /** Cycle the current row was activated (for tRAS). */
    std::uint64_t activatedAt_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
};

} // namespace tcoram::dram

#endif // TCORAM_DRAM_BANK_HH
