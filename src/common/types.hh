/**
 * @file
 * Fundamental scalar types shared by every subsystem.
 */

#ifndef TCORAM_COMMON_TYPES_HH
#define TCORAM_COMMON_TYPES_HH

#include <cstdint>

namespace tcoram {

/** Byte address in the simulated physical address space. */
using Addr = std::uint64_t;

/** Processor-clock cycle count (1 GHz in the paper's timing model). */
using Cycles = std::uint64_t;

/** Retired-instruction count. */
using InstCount = std::uint64_t;

/** Path ORAM leaf label. */
using Leaf = std::uint64_t;

/** Path ORAM logical block identifier. */
using BlockId = std::uint64_t;

/** Sentinel for "no block" / invalid identifiers. */
constexpr std::uint64_t kInvalidId = ~std::uint64_t{0};

} // namespace tcoram

#endif // TCORAM_COMMON_TYPES_HH
