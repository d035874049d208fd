#include "dram/bank.hh"

#include <algorithm>

namespace tcoram::dram {

std::uint64_t
Bank::prepare(std::uint64_t now, std::uint64_t row)
{
    std::uint64_t t = std::max(now, readyAt_);

    if (openRow_ == row && !cfg_->closedPage) {
        // Row hit: only CAS latency before data.
        ++rowHits_;
        t += cfg_->tCAS;
    } else {
        ++rowMisses_;
        if (openRow_ != kInvalidId) {
            // Respect tRAS before precharging the old row.
            const std::uint64_t ras_done = activatedAt_ + cfg_->tRAS;
            t = std::max(t, ras_done);
            t += cfg_->tRP;
        }
        // Activate new row, then read.
        activatedAt_ = t;
        t += cfg_->tRCD + cfg_->tCAS;
        openRow_ = row;
    }
    return t;
}

void
Bank::commit(std::uint64_t done)
{
    if (cfg_->closedPage) {
        // Auto-precharge: the row closes and the bank is busy through
        // precharge, but data completion time is unchanged.
        const std::uint64_t ras_done = activatedAt_ + cfg_->tRAS;
        readyAt_ = std::max(done, ras_done) + cfg_->tRP;
        openRow_ = kInvalidId;
    } else {
        readyAt_ = done;
    }
}

std::uint64_t
Bank::access(std::uint64_t now, std::uint64_t row,
             std::uint64_t burst_cycles)
{
    const std::uint64_t t = prepare(now, row) + burst_cycles;
    commit(t);
    return t;
}

void
Bank::resetTiming()
{
    openRow_ = kInvalidId;
    readyAt_ = 0;
    activatedAt_ = 0;
}

} // namespace tcoram::dram
