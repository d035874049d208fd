/**
 * @file
 * Processor energy model (paper §9.1.3-9.1.4, Table 2; 45 nm).
 * Dynamic energy is charged per component event; parasitic leakage is
 * charged for the L1 caches per cycle and the L2 per hit/refill, as
 * in the paper. The ORAM access energy composes AES + stash work per
 * 16-byte chunk plus DRAM-controller energy over the access latency,
 * reproducing the paper's ~984 nJ/access for its 4 GB configuration.
 */

#ifndef TCORAM_POWER_ENERGY_MODEL_HH
#define TCORAM_POWER_ENERGY_MODEL_HH

#include <cstdint>

#include "common/types.hh"

namespace tcoram::power {

/** Table 2 energy coefficients, in nanojoules per event. */
struct EnergyCoefficients
{
    // Dynamic energy.
    double aluPerInst = 0.0148;     ///< ALU/FPU per instruction
    double regFileInt = 0.0032;     ///< integer register file / inst
    double regFileFp = 0.0048;      ///< FP register file / inst
    double fetchBuffer = 0.0003;    ///< 256-bit fetch buffer access
    double l1iHit = 0.162;          ///< L1I hit/refill (1 line)
    double l1dHit = 0.041;          ///< L1D hit (64 bits)
    double l1dRefill = 0.320;       ///< L1D refill (1 line)
    double l2HitRefill = 0.810;     ///< L2 hit/refill (1 line)
    double dramCtrlLine = 0.303;    ///< DRAM controller (1 line)
    // Parasitic leakage.
    double l1iLeakPerCycle = 0.018;
    double l1dLeakPerCycle = 0.019;
    double l2LeakPerHit = 0.767;
    // ORAM controller.
    double aesPerChunk = 0.416;     ///< per 16 B chunk @ 170 Gbps
    double stashPerChunk = 0.134;   ///< 128 KB SRAM rd/wr per 16 B
    double dramCtrlPerDramCycle = 0.076; ///< PARDIS peak power / cycle

    /** DRAM cycles per processor cycle (Table 1 rate matching). */
    double dramCyclesPerCpuCycle = 1.334;

    /**
     * Energy of one full ORAM access (paper's 984 nJ derivation):
     * chunks * (AES + stash) + DRAM cycles * controller energy.
     *
     * @param chunks 16-byte chunks moved (both directions)
     * @param latency_cycles access latency in processor cycles
     */
    double oramAccessNj(std::uint64_t chunks, Cycles latency_cycles) const;

    /**
     * Energy to move one cache line through the (insecure) DRAM
     * controller — §9.1.3's .303 nJ figure reproduced from the peak-
     * power-per-cycle coefficient.
     */
    double dramLineNj(std::uint64_t line_bytes = 64,
                      std::uint64_t bytes_per_dram_cycle = 16) const;
};

/** Event counts accumulated over a run. */
struct EnergyEvents
{
    std::uint64_t instructions = 0;
    std::uint64_t fpInstructions = 0;
    std::uint64_t fetchBufferAccesses = 0;
    std::uint64_t l1iHits = 0;
    std::uint64_t l1iRefills = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l1dRefills = 0;
    std::uint64_t l2HitsRefills = 0;
    std::uint64_t dramLineTransfers = 0; ///< insecure path only
    std::uint64_t oramAccesses = 0;      ///< real + dummy
    Cycles cycles = 0;
};

class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyCoefficients &c = {}) : c_(c) {}

    /**
     * Total energy in nJ for @p ev.
     * @param oram_chunks chunks per ORAM access
     * @param oram_latency per-access latency (processor cycles)
     */
    double totalNj(const EnergyEvents &ev, std::uint64_t oram_chunks,
                   Cycles oram_latency) const;

    /** Energy excluding main-memory controllers (white-dashed bars). */
    double onChipNj(const EnergyEvents &ev) const;

    /** Average power in Watts at a 1 GHz clock. */
    double watts(const EnergyEvents &ev, std::uint64_t oram_chunks,
                 Cycles oram_latency) const;

  private:
    EnergyCoefficients c_;
};

} // namespace tcoram::power

#endif // TCORAM_POWER_ENERGY_MODEL_HH
