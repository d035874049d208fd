/**
 * @file
 * Fault injection for the fault-tolerant datapath. Two pieces:
 *
 * FaultInjector — a seeded, deterministic fault source shared by every
 * layer that injects. It draws from its own Rng stream, so a given
 * (spec, seed, call sequence) always produces the same fault pattern;
 * runs are reproducible and the recovery tests can golden-pin streams.
 * The taxonomy (FaultSpec kind mask):
 *
 *   flip   — one bit of a bucket ciphertext flips in transit (transient:
 *            re-reading DRAM returns the pristine bytes)
 *   stuck  — one byte sticks at 0xA5 and stays stuck for the next read
 *            of the same bucket too (exercises multi-retry backoff)
 *   delay  — a DRAM retirement is reported late by a fixed penalty
 *   refuse — the controller transiently refuses an issue(); the retry
 *            is modeled as issuing after a fixed penalty
 *
 * flip/stuck are DATA faults: dram::MemRequest carries no payload, so
 * they are injected where ciphertext bytes actually flow — the PathOram
 * read path (oram/path_oram.cc), which copies each on-path bucket into
 * a scratch arena, lets the injector corrupt the copy, and verifies the
 * per-bucket HMAC before decrypting (oram/integrity.hh). delay/refuse
 * are TIMING faults, injected by the FaultyMemory decorator below.
 *
 * FaultyMemory — a MemoryIf decorator (registered as "faulty" in
 * BackendRegistry) wrapping any backend's async issue/nextEventAt/
 * drainRetired core. It owns its tokens: inner retirements are mapped
 * back to the decorator's token space with their completion cycles
 * shifted by any drawn delay, and retirements whose shifted completion
 * lies beyond the drain horizon are held over to a later drain. With
 * timing faults disabled (rate 0, or a data-only kind mask) the
 * decorator is a bit-identical pass-through — tokens, completions and
 * drain spans come straight from the inner backend, which the
 * dram/differential helper asserts.
 */

#ifndef TCORAM_DRAM_FAULTY_MEMORY_HH
#define TCORAM_DRAM_FAULTY_MEMORY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/serial.hh"
#include "dram/memory_if.hh"

namespace tcoram::dram {

/** FaultSpec kind-mask bits. */
inline constexpr std::uint32_t kFaultFlip = 1u << 0;
inline constexpr std::uint32_t kFaultStuck = 1u << 1;
inline constexpr std::uint32_t kFaultDelay = 1u << 2;
inline constexpr std::uint32_t kFaultRefuse = 1u << 3;
inline constexpr std::uint32_t kFaultAll =
    kFaultFlip | kFaultStuck | kFaultDelay | kFaultRefuse;
/** Data faults (injected at the ORAM path decode). */
inline constexpr std::uint32_t kFaultDataMask = kFaultFlip | kFaultStuck;
/** Timing faults (injected by the FaultyMemory decorator). */
inline constexpr std::uint32_t kFaultTimingMask = kFaultDelay | kFaultRefuse;

/**
 * Parsed fault configuration: which kinds, how often, from which seed.
 * Carried as OramDeviceSpec::fault. Text form (cli --fault-spec, bench
 * --fault-spec): "<kinds>@<rate>[#seed]" where <kinds> is a '+'-joined
 * subset of {flip, stuck, delay, refuse} or "all"; "none" or the empty
 * string disables injection. Examples: "flip@1e-4", "flip+stuck@1e-3#7",
 * "all@0.001".
 */
struct FaultSpec
{
    /** Per-op fault probability (per bucket read for data faults, per
     *  issue/retire for timing faults). */
    double rate = 0.0;
    std::uint32_t kinds = 0;
    std::uint64_t seed = 1;

    bool enabled() const { return rate > 0.0 && kinds != 0; }
    bool has(std::uint32_t kind) const { return (kinds & kind) != 0; }

    /** Parse the text form; fatal (naming the input) on a malformed
     *  spec, an unknown kind name, or a rate outside [0, 1]. */
    static FaultSpec parse(const std::string &text);

    /** Canonical text form (parse(toString()) round-trips). */
    std::string toString() const;
};

/**
 * Deterministic fault source. Each injecting layer owns one instance;
 * the draw stream is (spec.seed, stream)-keyed so distinct layers and
 * distinct shards fault independently but reproducibly.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultSpec &spec, std::uint64_t stream = 0);

    const FaultSpec &spec() const { return spec_; }

    /** Issue-refusal penalty in cycles (0 = not refused this draw). */
    Cycles drawIssuePenalty();

    /** Retirement-delay penalty in cycles (0 = on time this draw). */
    Cycles drawRetireDelay();

    /**
     * Maybe corrupt one bucket's ciphertext bytes (data faults). A
     * stuck byte planted on an earlier read of the same bucket is
     * re-applied for kStuckPersistence further reads, so recovery needs
     * more than one retry to see clean data.
     * @return true when @p bytes was corrupted.
     */
    bool maybeCorrupt(std::uint64_t bucket, std::span<std::uint8_t> bytes);

    std::uint64_t faultsInjected() const { return injected_; }
    std::uint64_t flips() const { return flips_; }
    std::uint64_t stucks() const { return stucks_; }
    std::uint64_t delays() const { return delays_; }
    std::uint64_t refusals() const { return refusals_; }

    /** Checkpoint support: a restored injector continues the exact
     *  fault stream of the saved one (Rng state, stuck bytes, counts). */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

    /** Cycles a refused issue is pushed back by. */
    static constexpr Cycles kRefusePenalty = 200;
    /** Cycles a delayed retirement is reported late by. */
    static constexpr Cycles kDelayPenalty = 500;
    /** Extra consecutive reads a stuck byte keeps corrupting. */
    static constexpr std::uint32_t kStuckPersistence = 1;

  private:
    FaultSpec spec_;
    Rng rng_;
    /** bucket -> remaining reads the stuck byte still corrupts. */
    std::unordered_map<std::uint64_t, std::uint32_t> stuckRemaining_;
    std::uint64_t injected_ = 0;
    std::uint64_t flips_ = 0;
    std::uint64_t stucks_ = 0;
    std::uint64_t delays_ = 0;
    std::uint64_t refusals_ = 0;
};

/** Fault-injecting MemoryIf decorator (timing faults; see file doc). */
class FaultyMemory : public MemoryIf
{
  public:
    /** Owning wrap (the registry path). */
    FaultyMemory(std::unique_ptr<MemoryIf> inner, const FaultSpec &spec);

    /** Non-owning wrap (differential replay over a borrowed backend). */
    FaultyMemory(MemoryIf &inner, const FaultSpec &spec);

    TxnToken issue(Cycles now, const MemRequest &req) override;
    Cycles nextEventAt() const override;
    std::span<const Retired> drainRetired(Cycles up_to) override;
    void resetTiming() override;

    std::uint64_t requestCount() const override
    {
        return inner_->requestCount();
    }
    std::uint64_t bytesMoved() const override
    {
        return inner_->bytesMoved();
    }

    MemoryIf &inner() { return *inner_; }
    const FaultInjector &injector() const { return inj_; }

  private:
    struct InFlight
    {
        TxnToken token = 0; ///< decorator-space token
        Cycles delay = 0;   ///< drawn retirement delay
    };

    /** True when the spec enables no timing fault: forward verbatim. */
    bool passthrough() const;

    std::unique_ptr<MemoryIf> owned_;
    MemoryIf *inner_;
    FaultInjector inj_;
    std::unordered_map<TxnToken, InFlight> pending_; ///< inner token ->
    std::vector<Retired> held_; ///< retired inner-side, delayed past drain
    std::vector<Retired> drained_;
    TxnToken nextToken_ = 1;
};

} // namespace tcoram::dram

#endif // TCORAM_DRAM_FAULTY_MEMORY_HH
