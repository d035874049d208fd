#include "sim/kv_backend.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"

namespace tcoram::sim {

void
KVStats::merge(const KVStats &o)
{
    gets += o.gets;
    puts += o.puts;
    scans += o.scans;
    hits += o.hits;
    misses += o.misses;
    inserts += o.inserts;
    updates += o.updates;
    failedPuts += o.failedPuts;
    probes += o.probes;
    spillBlocksRead += o.spillBlocksRead;
    spillBlocksWritten += o.spillBlocksWritten;
    oramReads += o.oramReads;
    oramWrites += o.oramWrites;
}

KVBackend::KVBackend(const KvConfig &cfg)
    : cfg_(cfg), prf_(crypto::keyFromSeed(KvConfig::kPrfSeed))
{
    tcoram_assert(cfg_.blockBytes > KvConfig::kHeaderBytes,
                  "kv: block size ", cfg_.blockBytes,
                  " cannot hold the record header");
    tcoram_assert(cfg_.homeSlots >= 1, "kv: empty home table");
    tcoram_assert(cfg_.probeLimit >= 1, "kv: probe limit must be >= 1");
}

std::uint32_t
KVBackend::spillBlocksFor(std::uint64_t len) const
{
    const std::uint64_t inline_cap = cfg_.inlineCapacity();
    if (len <= inline_cap)
        return 0;
    const std::uint64_t rest = len - inline_cap;
    return static_cast<std::uint32_t>((rest + cfg_.blockBytes - 1) /
                                      cfg_.blockBytes);
}

void
KVBackend::encodeRecord(std::span<std::uint8_t> block, std::uint64_t key,
                        std::span<const std::uint8_t> value) const
{
    tcoram_assert(block.size() == cfg_.blockBytes,
                  "kv: encode buffer is not one block");
    tcoram_assert(value.size() <= cfg_.maxValueBytes(),
                  "kv: value of ", value.size(), " bytes exceeds the ",
                  cfg_.maxValueBytes(), "-byte record capacity");
    std::fill(block.begin(), block.end(), std::uint8_t{0});
    block[0] = 1;
    for (int i = 0; i < 8; ++i)
        block[1 + i] = static_cast<std::uint8_t>(key >> (8 * i));
    const auto len = static_cast<std::uint32_t>(value.size());
    for (int i = 0; i < 4; ++i)
        block[9 + i] = static_cast<std::uint8_t>(len >> (8 * i));
    const std::size_t inline_n = std::min<std::size_t>(
        value.size(), cfg_.inlineCapacity());
    if (inline_n > 0)
        std::memcpy(block.data() + KvConfig::kHeaderBytes, value.data(),
                    inline_n);
}

KVBackend::RecordHeader
KVBackend::decodeHeader(std::span<const std::uint8_t> block) const
{
    tcoram_assert(block.size() == cfg_.blockBytes,
                  "kv: decode buffer is not one block");
    RecordHeader h;
    h.used = block[0] != 0;
    for (int i = 0; i < 8; ++i)
        h.key |= static_cast<std::uint64_t>(block[1 + i]) << (8 * i);
    for (int i = 0; i < 4; ++i)
        h.len |= static_cast<std::uint32_t>(block[9 + i]) << (8 * i);
    return h;
}

KvOpCursor::KvOpCursor(const KVBackend &backend)
    : be_(&backend), io_(backend.config().blockBytes)
{
}

void
KvOpCursor::beginGet(std::uint64_t key)
{
    tcoram_assert(done(), "kv cursor: previous op still in flight");
    isPut_ = false;
    key_ = key;
    slot_ = be_->homeSlot(key);
    probe_ = 0;
    spillIdx_ = 0;
    spillCount_ = 0;
    valueLen_ = 0;
    hit_ = false;
    failed_ = false;
    value_.clear();
    phase_ = Phase::ProbeRead;
    ++stats_.gets;
}

void
KvOpCursor::beginPut(std::uint64_t key, std::span<const std::uint8_t> value)
{
    tcoram_assert(done(), "kv cursor: previous op still in flight");
    tcoram_assert(value.size() <= be_->config().maxValueBytes(),
                  "kv cursor: value of ", value.size(),
                  " bytes exceeds the record capacity");
    isPut_ = true;
    key_ = key;
    slot_ = be_->homeSlot(key);
    probe_ = 0;
    spillIdx_ = 0;
    spillCount_ = 0;
    valueLen_ = static_cast<std::uint32_t>(value.size());
    hit_ = false;
    failed_ = false;
    value_.assign(value.begin(), value.end());
    phase_ = Phase::ProbeRead;
    ++stats_.puts;
}

KvOpCursor::Step
KvOpCursor::nextStep()
{
    Step s;
    switch (phase_) {
    case Phase::ProbeRead:
        s.blockId = be_->homeBlockId(slot_);
        s.isWrite = false;
        s.out = io_;
        break;
    case Phase::SpillRead:
        s.blockId = be_->spillBlockId(slot_, spillIdx_);
        s.isWrite = false;
        s.out = io_;
        break;
    case Phase::HomeWrite:
        be_->encodeRecord(io_, key_, value_);
        s.blockId = be_->homeBlockId(slot_);
        s.isWrite = true;
        s.data = io_;
        break;
    case Phase::SpillWrite: {
        const std::uint64_t bytes = be_->config().blockBytes;
        const std::uint64_t off = be_->config().inlineCapacity() +
                                  static_cast<std::uint64_t>(spillIdx_) *
                                      bytes;
        const std::uint64_t n =
            std::min<std::uint64_t>(bytes, valueLen_ - off);
        std::fill(io_.begin(), io_.end(), std::uint8_t{0});
        std::memcpy(io_.data(), value_.data() + off, n);
        s.blockId = be_->spillBlockId(slot_, spillIdx_);
        s.isWrite = true;
        s.data = io_;
        break;
    }
    case Phase::Done:
        tcoram_fatal("kv cursor: nextStep() on a completed op");
    }
    return s;
}

void
KvOpCursor::finishProbe()
{
    const KVBackend::RecordHeader h = be_->decodeHeader(io_);
    if (isPut_) {
        if (!h.used || h.key == key_) {
            if (h.used)
                ++stats_.updates;
            else
                ++stats_.inserts;
            phase_ = Phase::HomeWrite;
            return;
        }
    } else {
        if (!h.used) {
            ++stats_.misses;
            phase_ = Phase::Done;
            return;
        }
        if (h.key == key_) {
            valueLen_ = h.len;
            value_.assign(valueLen_, 0);
            const std::size_t inline_n = std::min<std::size_t>(
                valueLen_, be_->config().inlineCapacity());
            std::memcpy(value_.data(), io_.data() + KvConfig::kHeaderBytes,
                        inline_n);
            spillCount_ = be_->spillBlocksFor(valueLen_);
            spillIdx_ = 0;
            if (spillCount_ == 0) {
                hit_ = true;
                ++stats_.hits;
                phase_ = Phase::Done;
            } else {
                phase_ = Phase::SpillRead;
            }
            return;
        }
    }
    // Occupied by another key: probe on.
    ++probe_;
    if (probe_ >= be_->config().probeLimit) {
        if (isPut_) {
            failed_ = true;
            ++stats_.failedPuts;
        } else {
            ++stats_.misses;
        }
        phase_ = Phase::Done;
        return;
    }
    slot_ = (slot_ + 1) % be_->config().homeSlots;
}

void
KvOpCursor::onComplete()
{
    switch (phase_) {
    case Phase::ProbeRead:
        ++stats_.probes;
        ++stats_.oramReads;
        finishProbe();
        break;
    case Phase::SpillRead: {
        ++stats_.spillBlocksRead;
        ++stats_.oramReads;
        const std::uint64_t bytes = be_->config().blockBytes;
        const std::uint64_t off = be_->config().inlineCapacity() +
                                  static_cast<std::uint64_t>(spillIdx_) *
                                      bytes;
        const std::uint64_t n =
            std::min<std::uint64_t>(bytes, valueLen_ - off);
        std::memcpy(value_.data() + off, io_.data(), n);
        ++spillIdx_;
        if (spillIdx_ == spillCount_) {
            hit_ = true;
            ++stats_.hits;
            phase_ = Phase::Done;
        }
        break;
    }
    case Phase::HomeWrite:
        ++stats_.oramWrites;
        spillCount_ = be_->spillBlocksFor(valueLen_);
        spillIdx_ = 0;
        phase_ = spillCount_ == 0 ? Phase::Done : Phase::SpillWrite;
        break;
    case Phase::SpillWrite:
        ++stats_.spillBlocksWritten;
        ++stats_.oramWrites;
        ++spillIdx_;
        if (spillIdx_ == spillCount_)
            phase_ = Phase::Done;
        break;
    case Phase::Done:
        tcoram_fatal("kv cursor: onComplete() on a completed op");
    }
}

void
kvRunSync(KvOpCursor &cursor, timing::OramDeviceIf &dev,
          std::uint32_t session_id, Cycles &now)
{
    while (!cursor.done()) {
        const KvOpCursor::Step s = cursor.nextStep();
        timing::OramTransaction txn =
            timing::OramTransaction::real(s.blockId, s.isWrite, session_id);
        txn.data = s.data;
        txn.out = s.out;
        const timing::OramCompletion c = dev.submit(now, txn);
        now = std::max(now, c.done);
        cursor.onComplete();
    }
}

} // namespace tcoram::sim
