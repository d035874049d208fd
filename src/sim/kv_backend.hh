/**
 * @file
 * KVBackend: variable-size keys/values mapped onto fixed-size ORAM
 * blocks through the transactional device interface — the product
 * layer of the KV-serving scenario.
 *
 * Layout. The block space is a home-slot table plus a private spill
 * strip per slot, all at DETERMINISTIC block ids (no pointers stored,
 * so every access sequence is computable from key + header alone):
 *
 *   home slot h        -> blockId h
 *   spill j of slot h  -> blockId homeSlots + h*spillPerSlot + j
 *
 * A record lives in the home block of the slot its key PROBED to
 * (AES-PRF home slot + linear probing, one ORAM access per probe):
 *
 *   home block:  [state u8][key u64 LE][len u32 LE][inline payload]
 *   spill block: raw payload bytes (slice len beyond the inline cap)
 *
 * The value's first inlineCapacity() bytes ride the home block; the
 * remainder spills across ceil(rest / blockBytes) strip blocks. `len`
 * alone determines the spill count, so a get is: probe reads until
 * match/empty, then the spill reads — every step an ordinary
 * OramTransaction, timing-protected like any other traffic.
 *
 * Concurrency: KVBackend itself is immutable after construction
 * (config + stateless AES-PRF), safe to share across producer
 * threads. All per-operation state lives in KvOpCursor — one per
 * session — which exposes the op as a sequence of Steps so closed-
 * loop ring clients can interleave thousands of in-flight ops, one
 * outstanding ORAM transaction each. kvRunSync() drives a cursor to
 * completion against a bare device for tests and simple callers.
 */

#ifndef TCORAM_SIM_KV_BACKEND_HH
#define TCORAM_SIM_KV_BACKEND_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "crypto/prf.hh"
#include "timing/oram_device.hh"

namespace tcoram::sim {

/** KV-over-ORAM geometry. */
struct KvConfig
{
    /** ORAM block size (must match the device geometry). */
    std::uint64_t blockBytes = 64;
    /** Home-slot table size (one block each). */
    std::uint64_t homeSlots = 2048;
    /** Spill strip length per slot (blocks). */
    std::uint32_t spillPerSlot = 2;
    /** Max linear probes before a get misses / a put fails. */
    std::uint32_t probeLimit = 64;
    /** AES-PRF key seed for the key -> home-slot map. */
    static constexpr std::uint64_t kPrfSeed = 1;
    /** [state u8][key u64][len u32]. */
    static constexpr std::uint64_t kHeaderBytes = 13;

    std::uint64_t
    inlineCapacity() const
    {
        return blockBytes - kHeaderBytes;
    }

    std::uint64_t
    maxValueBytes() const
    {
        return inlineCapacity() + spillPerSlot * blockBytes;
    }

    /** Home table + every spill strip. */
    std::uint64_t
    totalBlocks() const
    {
        return homeSlots * (1 + spillPerSlot);
    }
};

/** Counters one cursor accumulates; harnesses merge per-session
 *  instances (keeps multi-producer recording race-free). */
struct KVStats
{
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t scans = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t updates = 0;
    std::uint64_t failedPuts = 0;
    std::uint64_t probes = 0;
    std::uint64_t spillBlocksRead = 0;
    std::uint64_t spillBlocksWritten = 0;
    std::uint64_t oramReads = 0;
    std::uint64_t oramWrites = 0;

    void merge(const KVStats &o);
};

/** Immutable mapping + codec core (shareable across threads). */
class KVBackend
{
  public:
    explicit KVBackend(const KvConfig &cfg);

    const KvConfig &config() const { return cfg_; }

    /** AES-PRF home slot of @p key (stateless, thread-safe). */
    std::uint64_t
    homeSlot(std::uint64_t key) const
    {
        return prf_.eval(key) % cfg_.homeSlots;
    }

    std::uint64_t
    homeBlockId(std::uint64_t slot) const
    {
        return slot;
    }

    std::uint64_t
    spillBlockId(std::uint64_t slot, std::uint32_t j) const
    {
        return cfg_.homeSlots + slot * cfg_.spillPerSlot + j;
    }

    /** Spill blocks a value of @p len bytes needs beyond the inline
     *  part. */
    std::uint32_t spillBlocksFor(std::uint64_t len) const;

    struct RecordHeader
    {
        bool used = false;
        std::uint64_t key = 0;
        std::uint32_t len = 0;
    };

    /** Encode state + key + len + the inline payload slice into
     *  @p block (blockBytes, zero-padded). */
    void encodeRecord(std::span<std::uint8_t> block, std::uint64_t key,
                      std::span<const std::uint8_t> value) const;
    RecordHeader decodeHeader(std::span<const std::uint8_t> block) const;

  private:
    KvConfig cfg_;
    crypto::Prf prf_;
};

/**
 * One in-flight KV operation as a sequence of ORAM steps. Protocol:
 *
 *   cursor.beginGet(key);            // or beginPut(key, value)
 *   while (!cursor.done()) {
 *       auto s = cursor.nextStep();  // idempotent until onComplete
 *       ... submit {s.blockId, s.isWrite, s.data, s.out} ...
 *       ... wait for THAT completion ...
 *       cursor.onComplete();
 *   }
 *   cursor.hit() / cursor.value() / cursor.failed()
 *
 * The spans a Step exposes point into cursor-owned buffers and stay
 * valid until onComplete(), so a closed-loop client never copies.
 */
class KvOpCursor
{
  public:
    struct Step
    {
        std::uint64_t blockId = 0;
        bool isWrite = false;
        std::span<const std::uint8_t> data{};
        std::span<std::uint8_t> out{};
    };

    explicit KvOpCursor(const KVBackend &backend);

    void beginGet(std::uint64_t key);
    /** Copies @p value (fatal beyond maxValueBytes()). */
    void beginPut(std::uint64_t key, std::span<const std::uint8_t> value);

    bool done() const { return phase_ == Phase::Done; }
    /** Idempotent until onComplete() (re-call after backpressure). */
    Step nextStep();
    void onComplete();

    /** Get outcome (valid once done). */
    bool hit() const { return hit_; }
    const std::vector<std::uint8_t> &value() const { return value_; }
    /** Put outcome: probe limit exhausted, nothing written. */
    bool failed() const { return failed_; }

    KVStats &stats() { return stats_; }
    const KVStats &stats() const { return stats_; }

  private:
    enum class Phase : std::uint8_t
    {
        Done,
        ProbeRead,
        HomeWrite,
        SpillRead,
        SpillWrite,
    };

    void finishProbe();

    const KVBackend *be_;
    Phase phase_ = Phase::Done;
    bool isPut_ = false;
    std::uint64_t key_ = 0;
    std::uint64_t slot_ = 0;
    std::uint32_t probe_ = 0;
    std::uint32_t spillIdx_ = 0;
    std::uint32_t spillCount_ = 0;
    std::uint32_t valueLen_ = 0;
    bool hit_ = false;
    bool failed_ = false;
    std::vector<std::uint8_t> io_;    ///< block-size transfer buffer
    std::vector<std::uint8_t> value_; ///< put payload / get result
    KVStats stats_;
};

/**
 * Drive @p cursor to completion against a bare device: submit each
 * step at @p now, advance @p now to its completion. Convenience for
 * tests and single-session callers; the serving harness interleaves
 * steps through the ring scheduler instead.
 */
void kvRunSync(KvOpCursor &cursor, timing::OramDeviceIf &dev,
               std::uint32_t session_id, Cycles &now);

} // namespace tcoram::sim

#endif // TCORAM_SIM_KV_BACKEND_HH
