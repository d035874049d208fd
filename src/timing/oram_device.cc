#include "timing/oram_device.hh"

#include "common/log.hh"

namespace tcoram::timing {

void
OramDeviceIf::saveState(ByteWriter &) const
{
    tcoram_fatal("ORAM device kind \"", kind(),
                 "\" is not checkpointable (no saveState override)");
}

void
OramDeviceIf::restoreState(ByteReader &)
{
    tcoram_fatal("ORAM device kind \"", kind(),
                 "\" is not checkpointable (no restoreState override)");
}

void
saveTransaction(ByteWriter &w, const OramTransaction &txn)
{
    tcoram_assert(txn.data.empty() && txn.out.empty(),
                  "span-carrying queued transactions are not "
                  "checkpointable");
    w.u8(static_cast<std::uint8_t>(txn.kind));
    w.u32(txn.sessionId);
    w.u64(txn.blockId);
    w.b(txn.isWrite);
    w.u64(txn.tag);
}

OramTransaction
loadTransaction(ByteReader &r)
{
    OramTransaction txn;
    txn.kind = static_cast<OramTransaction::Kind>(r.u8());
    txn.sessionId = r.u32();
    txn.blockId = r.u64();
    txn.isWrite = r.b();
    txn.tag = r.u64();
    return txn;
}

void
saveCompletion(ByteWriter &w, const OramCompletion &c)
{
    w.u64(c.start);
    w.u64(c.done);
    w.u64(c.bytesMoved);
    w.u64(c.cryptoBytes);
    w.u64(c.cryptoCalls);
    w.u32(c.faultsDetected);
    w.u32(c.retries);
}

OramCompletion
loadCompletion(ByteReader &r)
{
    OramCompletion c;
    c.start = r.u64();
    c.done = r.u64();
    c.bytesMoved = r.u64();
    c.cryptoBytes = r.u64();
    c.cryptoCalls = r.u64();
    c.faultsDetected = r.u32();
    c.retries = r.u32();
    return c;
}

OramCompletion
RecordingOramDevice::submit(Cycles now, const OramTransaction &txn)
{
    const OramCompletion c = inner_.submit(now, txn);
    records_.push_back({txn.kind, txn.sessionId, c});
    return c;
}

std::vector<Cycles>
RecordingOramDevice::startCycles() const
{
    std::vector<Cycles> out;
    out.reserve(records_.size());
    for (const auto &r : records_)
        out.push_back(r.completion.start);
    return out;
}

void
RecordingOramDevice::saveState(ByteWriter &w) const
{
    inner_.saveState(w);
    w.u64(records_.size());
    for (const Record &rec : records_) {
        w.u8(static_cast<std::uint8_t>(rec.kind));
        w.u32(rec.sessionId);
        w.u64(rec.completion.start);
        w.u64(rec.completion.done);
        w.u64(rec.completion.bytesMoved);
        w.u64(rec.completion.cryptoBytes);
        w.u64(rec.completion.cryptoCalls);
        w.u32(rec.completion.faultsDetected);
        w.u32(rec.completion.retries);
    }
}

void
RecordingOramDevice::restoreState(ByteReader &r)
{
    inner_.restoreState(r);
    records_.clear();
    const std::uint64_t n = r.u64();
    records_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Record rec;
        rec.kind = static_cast<OramTransaction::Kind>(r.u8());
        rec.sessionId = r.u32();
        rec.completion.start = r.u64();
        rec.completion.done = r.u64();
        rec.completion.bytesMoved = r.u64();
        rec.completion.cryptoBytes = r.u64();
        rec.completion.cryptoCalls = r.u64();
        rec.completion.faultsDetected = r.u32();
        rec.completion.retries = r.u32();
        records_.push_back(rec);
    }
}

} // namespace tcoram::timing
