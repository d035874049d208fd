/**
 * @file
 * Flat fixed-latency main memory: the paper's insecure base_dram
 * baseline, modeled as a flat 40-cycle access (§9.1.2).
 */

#ifndef TCORAM_DRAM_FLAT_MEMORY_HH
#define TCORAM_DRAM_FLAT_MEMORY_HH

#include "dram/memory_if.hh"

namespace tcoram::dram {

class FlatMemory : public MemoryIf
{
  public:
    explicit FlatMemory(Cycles latency = 40) : latency_(latency) {}

    /**
     * Split-transaction core: the flat controller serializes every
     * transaction, so completion is resolved at issue time and the
     * retirement queued as an event.
     */
    TxnToken
    issue(Cycles now, const MemRequest &req) override
    {
        return queue_.add(req, now, serveOne(now, req));
    }

    Cycles nextEventAt() const override { return queue_.nextEventAt(); }

    std::span<const Retired>
    drainRetired(Cycles up_to) override
    {
        return queue_.drain(up_to);
    }

    /** Blocking adapters, one pass each (RetireQueue::serveBlocking):
     *  the same completions and in-flight set as the base event loop. */
    Cycles
    access(Cycles now, const MemRequest &req) override
    {
        return queue_.serveBlocking(
            {&req, 1}, [&](const MemRequest &r) { return serveOne(now, r); });
    }

    Cycles
    accessBatch(Cycles now, std::span<const MemRequest> reqs) override
    {
        if (reqs.empty())
            return now;
        const Cycles done = queue_.serveBlocking(
            reqs, [&](const MemRequest &r) { return serveOne(now, r); });
        return done > now ? done : now;
    }

    std::uint64_t requestCount() const override { return requests_; }
    std::uint64_t bytesMoved() const override { return bytes_; }

    void
    resetTiming() override
    {
        busyUntil_ = 0;
        queue_.clear();
    }

    Cycles latency() const { return latency_; }

  private:
    /** Serialize @p req behind the controller's previous transfer;
     *  returns its completion. */
    Cycles
    serveOne(Cycles now, const MemRequest &req)
    {
        ++requests_;
        bytes_ += req.bytes;
        const Cycles start = now > busyUntil_ ? now : busyUntil_;
        busyUntil_ = start + latency_;
        return busyUntil_;
    }

    Cycles latency_;
    Cycles busyUntil_ = 0;
    RetireQueue queue_;
    std::uint64_t requests_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace tcoram::dram

#endif // TCORAM_DRAM_FLAT_MEMORY_HH
