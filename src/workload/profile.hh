/**
 * @file
 * Synthetic workload profiles. The paper evaluates SPEC-int reference
 * workloads; we cannot redistribute SPEC, so each benchmark is
 * replaced by a parameterized synthetic memory-reference generator
 * whose *ORAM pressure class* (LLC-miss arrival process against a
 * 1 MB LLC) matches the paper's characterization: mcf/libquantum
 * memory-bound, h264ref compute-bound with a late memory-bound phase,
 * perlbench/astar strongly input-dependent, and so on (DESIGN.md §4).
 *
 * A profile is a phase schedule; each phase draws accesses from a mix
 * of streaming, strided, random and pointer-chase reference patterns
 * over a configurable working set.
 */

#ifndef TCORAM_WORKLOAD_PROFILE_HH
#define TCORAM_WORKLOAD_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tcoram::workload {

/** Reference-pattern mixture weights for one phase (sum need not be 1). */
struct PatternMix
{
    double stream = 0.0;       ///< sequential scan
    double strided = 0.0;      ///< fixed stride walk
    double random = 0.0;       ///< uniform over the working set
    double pointerChase = 0.0; ///< dependent chain through the set

    bool operator==(const PatternMix &) const = default;
};

/** One execution phase. */
struct Phase
{
    /** Instructions this phase lasts (kInvalidId = until the end). */
    InstCount instructions = kInvalidId;
    /** Data working-set size in bytes. */
    std::uint64_t workingSetBytes = 8ull << 20;
    /** Fraction of the set that is hot (gets hotWeight of accesses). */
    double hotFraction = 1.0;
    double hotWeight = 1.0;
    /** Mean instructions between memory operations. */
    double instsPerMemOp = 4.0;
    /** Burstiness: probability a mem op is followed immediately by a
     *  cluster of dependent ops (models miss clustering / Req 3). */
    double burstProb = 0.0;
    unsigned burstLen = 4;
    /** Fraction of memory ops that are stores. */
    double storeFraction = 0.3;
    /** Stride in bytes for the strided component. */
    std::uint64_t strideBytes = 256;
    /** Reference mixture. */
    PatternMix mix{1.0, 0.0, 0.0, 0.0};
    /**
     * L1-resident "stack/locals" region: a slice of hot accesses goes
     * to this small window, which keeps L1 hit rates realistic (real
     * programs touch the same words repeatedly; a synthetic stream
     * that visits a fresh line per operation would overstate L1/L2
     * traffic and hence power).
     */
    std::uint64_t stackBytes = 16 * 1024;
    double stackWeight = 0.6;
    /** Word steps per cache line for hot walks (64 B / 8 B words). */
    unsigned wordsPerLine = 8;
    /** Mean extra (non-1-cycle) latency per instruction gap, modelling
     *  mult/div/FP instructions (Table 1 pipeline depths). */
    double extraCyclesPerInst = 0.1;
    /** Instruction-fetch working set (code footprint). */
    std::uint64_t codeBytes = 64 * 1024;
    /** Mean instructions between instruction-fetch discontinuities. */
    double instsPerFetchJump = 400.0;

    bool operator==(const Phase &) const = default;
};

/** A named workload: an ordered list of phases, looped if exhausted. */
struct Profile
{
    std::string name;
    std::vector<Phase> phases;
    /** Base address of the data segment (code lives below it). */
    Addr dataBase = 1ull << 30;

    bool operator==(const Profile &) const = default;
};

} // namespace tcoram::workload

#endif // TCORAM_WORKLOAD_PROFILE_HH
