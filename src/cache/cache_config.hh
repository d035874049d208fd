/**
 * @file
 * Cache geometry and latency parameters (paper Table 1 defaults).
 */

#ifndef TCORAM_CACHE_CACHE_CONFIG_HH
#define TCORAM_CACHE_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace tcoram::cache {

/** Replacement policy for set-associative caches. */
enum class Replacement
{
    Lru,    ///< true LRU (Table 1 default)
    Fifo,   ///< evict oldest insertion
    Random, ///< seeded pseudo-random victim
};

struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 4;
    unsigned lineBytes = 64;
    /** Latency added on a hit. */
    Cycles hitLatency = 1;
    /** Latency added on a miss before the fill request goes out. */
    Cycles missLatency = 0;
    Replacement replacement = Replacement::Lru;
    /** Victim-selection seed (Random policy). */
    std::uint64_t seed = 0x5eed;

    bool operator==(const CacheConfig &) const = default;

    std::uint64_t numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) * lineBytes);
    }
};

/** Table 1 presets. */
CacheConfig l1IConfig();
CacheConfig l1DConfig();
CacheConfig l2Config(std::uint64_t size_bytes = 1024 * 1024);

} // namespace tcoram::cache

#endif // TCORAM_CACHE_CACHE_CONFIG_HH
