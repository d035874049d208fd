/**
 * @file
 * Transactional ORAM device interface. One submit() call covers every
 * kind of work the rate-enforced memory system sends to the ORAM: a
 * real access (optionally carrying a functional payload that a
 * data-moving backend serves) or an indistinguishable dummy. Each
 * submission returns an OramCompletion with its start/completion
 * cycles and per-transaction cost attribution (bytes over the pins,
 * bytes and calls through the bucket crypto engine), so the enforcer's
 * counters and the power model charge exactly what the device did.
 *
 * Backends:
 *  - oram::TimingOramDevice     calibrated constant-OLAT model (the
 *                               paper's methodology; no data moves)
 *  - oram::FunctionalOramDevice real PathOram datapath with identical
 *                               cycle charging (oram/oram_device.hh)
 *  - sim-internal devices (§10's ProtectedDramDevice) and test fakes
 *
 * The interface lives in the timing layer because the rate enforcer is
 * its primary consumer and must stay below the oram layer in the
 * dependency order.
 */

#ifndef TCORAM_TIMING_ORAM_DEVICE_HH
#define TCORAM_TIMING_ORAM_DEVICE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/serial.hh"
#include "common/types.hh"

namespace tcoram::timing {

/** One request submitted to the ORAM device. */
struct OramTransaction
{
    enum class Kind : std::uint8_t
    {
        Real,  ///< demand access (carries the functional payload)
        Dummy, ///< indistinguishable filler access
    };

    Kind kind = Kind::Real;

    /** Issuing scheduler session (0 = the single implicit session). */
    std::uint32_t sessionId = 0;

    /** Logical block id (data-moving backends; ignored by timing). */
    std::uint64_t blockId = 0;

    /** True for a store/writeback, false for a load fill. */
    bool isWrite = false;

    /**
     * Functional write payload (exactly blockBytes when non-empty).
     * Timing-only backends ignore it; a data-moving backend with an
     * empty span writes a deterministic internal pattern instead.
     */
    std::span<const std::uint8_t> data{};

    /** Functional read destination (exactly blockBytes; empty = discard). */
    std::span<std::uint8_t> out{};

    /**
     * Driver-private attribution tag (the ring scheduler's lane token
     * rides here, sim/session_ring.hh). Devices never read it.
     */
    std::uint64_t tag = 0;

    static OramTransaction
    real(std::uint64_t block_id = 0, bool is_write = false,
         std::uint32_t session_id = 0)
    {
        OramTransaction t;
        t.kind = Kind::Real;
        t.blockId = block_id;
        t.isWrite = is_write;
        t.sessionId = session_id;
        return t;
    }

    static OramTransaction
    dummy(std::uint32_t session_id = 0)
    {
        OramTransaction t;
        t.kind = Kind::Dummy;
        t.sessionId = session_id;
        return t;
    }
};

/** Completion record and per-transaction cost attribution. */
struct OramCompletion
{
    /** Cycle the device began serving (>= submission cycle). */
    Cycles start = 0;
    /** Cycle the transaction (including path write-back) completed. */
    Cycles done = 0;
    /** Bytes moved over the pins by this transaction. */
    std::uint64_t bytesMoved = 0;
    /** Bytes through the bucket crypto engine. */
    std::uint64_t cryptoBytes = 0;
    /** Batched crypto-engine invocations. */
    std::uint64_t cryptoCalls = 0;

    /**
     * Fault recovery attribution (fault-tolerant datapath,
     * oram/integrity.hh): corrupted path decodes this transaction
     * detected and re-reads it issued to complete. Zero on timing-only
     * backends and fault-free runs. The enforcer charges
     * RecoveryEngine::backoffSlots(retries) dummy-equivalent slots
     * into the observable stream so recovery never modulates timing.
     */
    std::uint32_t faultsDetected = 0;
    std::uint32_t retries = 0;
};

/**
 * Checkpoint a queued transaction: kind, session, block, direction and
 * tag. Its data/out spans are views into caller buffers and cannot be
 * serialized — a span-carrying transaction is fatal to save.
 */
void saveTransaction(ByteWriter &w, const OramTransaction &txn);
OramTransaction loadTransaction(ByteReader &r);

/** Checkpoint a completion record (every field). */
void saveCompletion(ByteWriter &w, const OramCompletion &c);
OramCompletion loadCompletion(ByteReader &r);

/**
 * Cost attribution for background evictions issued inside one
 * enforced-gap idle window (oram/eviction_engine.hh). Evictions are
 * wire-indistinguishable from dummy accesses but never appear as
 * completions: they retire deferred write-back tails in the shadow of
 * the slot grid, so the enforcer charges their crypto/pin traffic into
 * the counters without perturbing the observable stream.
 */
struct OramEvictionCharge
{
    std::uint32_t evictions = 0;
    /** Reverse-lexicographic schedule index of the first eviction. */
    std::uint64_t firstSchedule = 0;
    std::uint64_t bytesMoved = 0;
    std::uint64_t cryptoBytes = 0;
    std::uint64_t cryptoCalls = 0;
};

/**
 * The transactional device every ORAM backend implements. Real and
 * dummy transactions must be served with identical observable timing —
 * the indistinguishability the leakage bound rests on.
 */
class OramDeviceIf
{
  public:
    virtual ~OramDeviceIf() = default;

    /** Backend kind name ("timing", "functional", ...). */
    virtual const char *kind() const { return "device"; }

    /**
     * Serve @p txn submitted at cycle @p now. The device serializes
     * internally: service starts at max(now, busy-until).
     */
    virtual OramCompletion submit(Cycles now,
                                  const OramTransaction &txn) = 0;

    /** Fixed per-access latency (the paper's OLAT): service start to
     *  requested-line availability. */
    virtual Cycles accessLatency() const = 0;

    /**
     * Cycles the device's path stays occupied per access, gating when
     * the next access may start (>= accessLatency()). A split-
     * transaction backend overlaps its write-back tail past the OLAT;
     * synchronous backends return accessLatency().
     */
    virtual Cycles occupancyPerAccess() const { return accessLatency(); }

    /** Bytes over the pins per access (0 = unmodeled). */
    virtual std::uint64_t bytesPerAccess() const { return 0; }

    /** Bytes through the bucket crypto engine per access (0 = none). */
    virtual std::uint64_t cryptoBytesPerAccess() const { return 0; }

    /** Batched crypto-engine calls per access (0 = none). */
    virtual std::uint64_t cryptoCallsPerAccess() const { return 0; }

    /** Real transactions served so far. */
    virtual std::uint64_t realAccesses() const { return 0; }

    /** Dummy transactions served so far. */
    virtual std::uint64_t dummyAccesses() const { return 0; }

    /**
     * Issue background evictions inside the idle window ending at
     * @p horizon — the enforcer guarantees no future slot can start
     * before it. Devices without an eviction engine (or with it off)
     * do nothing, keeping eviction-off runs bit-identical to
     * pre-eviction builds.
     */
    virtual OramEvictionCharge maybeEvict(Cycles horizon)
    {
        (void)horizon;
        return {};
    }

    /** Modeled stash occupancy in blocks (deferred write-back tails). */
    virtual std::uint64_t stashOccupancy() const { return 0; }

    /** High-water mark of the modeled stash occupancy. */
    virtual std::uint64_t stashHighWater() const { return 0; }

    /** Blocks written back by background evictions so far. */
    virtual std::uint64_t blocksEvicted() const { return 0; }

    /** Background evictions issued so far. */
    virtual std::uint64_t evictionsIssued() const { return 0; }

    std::uint64_t
    totalAccesses() const
    {
        return realAccesses() + dummyAccesses();
    }

    /**
     * Checkpoint support (sim/checkpoint.hh). Backends that carry
     * run state (served counters, functional tree image, fault-
     * injector draws) serialize it here; the default is fatal so a
     * non-checkpointable device fails loudly rather than restoring a
     * silently-incomplete snapshot.
     */
    virtual void saveState(ByteWriter &w) const;
    virtual void restoreState(ByteReader &r);
};

/**
 * Decorator recording every completion that passes through a device —
 * the adversary's view of the enforced stream. The trace-level
 * indistinguishability tests and the multi-session bench read the
 * recorded start cycles; kind/sessionId are carried for assertions the
 * adversary could NOT make (they are not observable).
 */
class RecordingOramDevice : public OramDeviceIf
{
  public:
    struct Record
    {
        OramTransaction::Kind kind;
        std::uint32_t sessionId;
        OramCompletion completion;
    };

    explicit RecordingOramDevice(OramDeviceIf &inner) : inner_(inner) {}

    const char *kind() const override { return inner_.kind(); }
    OramCompletion submit(Cycles now, const OramTransaction &txn) override;
    Cycles accessLatency() const override { return inner_.accessLatency(); }
    Cycles occupancyPerAccess() const override
    {
        return inner_.occupancyPerAccess();
    }
    std::uint64_t bytesPerAccess() const override
    {
        return inner_.bytesPerAccess();
    }
    std::uint64_t cryptoBytesPerAccess() const override
    {
        return inner_.cryptoBytesPerAccess();
    }
    std::uint64_t cryptoCallsPerAccess() const override
    {
        return inner_.cryptoCallsPerAccess();
    }
    std::uint64_t realAccesses() const override
    {
        return inner_.realAccesses();
    }
    std::uint64_t dummyAccesses() const override
    {
        return inner_.dummyAccesses();
    }

    /** Evictions pass through unrecorded: they are background work
     *  inside the gap, invisible in the adversary's completion view. */
    OramEvictionCharge maybeEvict(Cycles horizon) override
    {
        return inner_.maybeEvict(horizon);
    }
    std::uint64_t stashOccupancy() const override
    {
        return inner_.stashOccupancy();
    }
    std::uint64_t stashHighWater() const override
    {
        return inner_.stashHighWater();
    }
    std::uint64_t blocksEvicted() const override
    {
        return inner_.blocksEvicted();
    }
    std::uint64_t evictionsIssued() const override
    {
        return inner_.evictionsIssued();
    }

    const std::vector<Record> &records() const { return records_; }

    /** Observable start cycles, in service order. */
    std::vector<Cycles> startCycles() const;

    /** Checkpoints the recorded stream along with the inner device,
     *  so a restored run replays the adversary's full view. */
    void saveState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  private:
    OramDeviceIf &inner_;
    std::vector<Record> records_;
};

} // namespace tcoram::timing

#endif // TCORAM_TIMING_ORAM_DEVICE_HH
