#include "dram/dram_model.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram::dram {

DramModel::DramModel(const DramConfig &cfg) : cfg_(cfg)
{
    tcoram_assert(cfg_.channels > 0 && cfg_.banksPerChannel > 0,
                  "DRAM must have channels and banks");
    tcoram_assert(isPow2(cfg_.rowBytes), "row size must be a power of two");
    banks_.reserve(cfg_.channels * cfg_.banksPerChannel);
    for (unsigned i = 0; i < cfg_.channels * cfg_.banksPerChannel; ++i)
        banks_.emplace_back(cfg_);
    channelBusyUntil_.assign(cfg_.channels, 0);
}

DramModel::Decoded
DramModel::decode(Addr addr) const
{
    // Channel interleaving at cache-line (64 B) granularity, then bank
    // interleaving at row granularity: addr = [row | bank | channel | line].
    const Addr line = addr >> 6;
    Decoded d;
    d.channel = static_cast<unsigned>(line % cfg_.channels);
    const Addr per_channel_line = line / cfg_.channels;
    const std::uint64_t lines_per_row = cfg_.rowBytes / 64;
    const Addr row_global = per_channel_line / lines_per_row;
    d.bank = static_cast<unsigned>(row_global % cfg_.banksPerChannel);
    d.row = row_global / cfg_.banksPerChannel;
    return d;
}

TxnToken
DramModel::issue(Cycles now, const MemRequest &req)
{
    return queue_.add(req, now, serveOne(now, req));
}

Cycles
DramModel::access(Cycles now, const MemRequest &req)
{
    return queue_.serveBlocking(
        {&req, 1}, [&](const MemRequest &r) { return serveOne(now, r); });
}

Cycles
DramModel::accessBatch(Cycles now, std::span<const MemRequest> reqs)
{
    if (reqs.empty())
        return now;
    const Cycles done = queue_.serveBlocking(
        reqs, [&](const MemRequest &r) { return serveOne(now, r); });
    return std::max(done, now);
}

Cycles
DramModel::serveOne(Cycles now, const MemRequest &req)
{
    ++requests_;
    bytes_ += req.bytes;

    const Decoded d = decode(req.addr);
    Bank &bank = banks_[d.channel * cfg_.banksPerChannel + d.bank];

    // Split-phase service: the bank performs its row transition
    // (possibly overlapping other banks' data transfers), then the
    // burst serializes on the channel's data bus with a small command
    // gap between back-to-back transfers.
    const auto now_dram = static_cast<std::uint64_t>(
        static_cast<double>(now) * cfg_.dramCyclesPerCpuCycle);
    const std::uint64_t data_ready = bank.prepare(now_dram, d.row);
    std::uint64_t start =
        std::max(data_ready, channelBusyUntil_[d.channel]);
    if (cfg_.refreshEnabled) {
        // Push transfers that would overlap an all-bank refresh window
        // [k*tREFI, k*tREFI + tRFC) past the window's end.
        const std::uint64_t in_period = start % cfg_.tREFI;
        if (in_period < cfg_.tRFC)
            start += cfg_.tRFC - in_period;
    }
    const std::uint64_t done_dram = start + cfg_.burstCycles(req.bytes);
    bank.commit(done_dram);
    channelBusyUntil_[d.channel] = done_dram + cfg_.cmdGap;
    return cfg_.toCpuCycles(done_dram);
}

double
DramModel::rowHitRate() const
{
    std::uint64_t hits = 0, misses = 0;
    for (const auto &b : banks_) {
        hits += b.rowHits();
        misses += b.rowMisses();
    }
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
}

void
DramModel::resetTiming()
{
    for (auto &b : banks_)
        b.resetTiming();
    std::fill(channelBusyUntil_.begin(), channelBusyUntil_.end(), 0);
    queue_.clear();
}

} // namespace tcoram::dram
