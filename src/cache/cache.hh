/**
 * @file
 * Set-associative write-back cache with true-LRU replacement. Purely
 * a tag store: data values live in the ORAM/DRAM functional backing
 * store, so the cache only tracks presence and dirtiness, which is all
 * the timing model needs.
 */

#ifndef TCORAM_CACHE_CACHE_HH
#define TCORAM_CACHE_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/cache_config.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace tcoram::cache {

/** Result of a cache lookup-and-fill operation. */
struct AccessResult
{
    bool hit = false;
    /** A dirty line was evicted and must be written back. */
    bool writeback = false;
    /** Line address of the evicted victim (valid iff writeback). */
    Addr victimAddr = 0;
};

class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up @p addr; on miss, allocate it, evicting the LRU way.
     *
     * @param addr byte address
     * @param is_write marks the (new or existing) line dirty
     * @return hit/miss and any dirty victim that needs writeback
     */
    AccessResult access(Addr addr, bool is_write);

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /**
     * Invalidate a line if present (used for inclusion victims).
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    const CacheConfig &config() const { return cfg_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    double missRate() const;

    /** Same geometry, contents (tags, valid/dirty bits, replacement
     *  stamps and victim RNG) and counters. */
    bool operator==(const Cache &) const = default;

  private:
    /** Presence and dirtiness of one set's ways, bit w for way w. */
    struct SetBits
    {
        std::uint32_t valid = 0;
        std::uint32_t dirty = 0;

        bool operator==(const SetBits &) const = default;
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr lineAddr(Addr tag, std::uint64_t set) const;
    /** The ways of @p set: its tags, then its stamps. */
    Addr *tags(std::uint64_t set) { return &store_[set * 2 * cfg_.ways]; }
    const Addr *tags(std::uint64_t set) const
    {
        return &store_[set * 2 * cfg_.ways];
    }
    std::uint64_t *stamps(std::uint64_t set) { return tags(set) + cfg_.ways; }
    /** Way mask of the valid ways of @p set holding @p tag. */
    std::uint32_t matchMask(std::uint64_t set, Addr tag) const;
    /** Victim way in @p set (policy-driven). */
    unsigned selectVictim(std::uint64_t set);

    CacheConfig cfg_;
    std::uint64_t numSets_;
    unsigned lineShift_;
    unsigned setShift_;
    std::uint32_t allWays_;
    // Packed tag store, set-major: each set is its tags, a contiguous
    // run a lookup compares against, then its stamps (LRU: touch;
    // FIFO: insertion). Valid and dirty bits sit in per-set way masks.
    std::vector<std::uint64_t> store_; // numSets * 2 * ways
    std::vector<SetBits> bits_;        // numSets
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    Rng victimRng_;
};

} // namespace tcoram::cache

#endif // TCORAM_CACHE_CACHE_HH
