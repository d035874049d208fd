#include "cache/cache.hh"

#include <bit>

#include "common/bitutils.hh"
#include "common/log.hh"

namespace tcoram::cache {

CacheConfig
l1IConfig()
{
    CacheConfig c;
    c.name = "L1I";
    c.sizeBytes = 32 * 1024;
    c.ways = 4;
    c.hitLatency = 1;
    c.missLatency = 0;
    return c;
}

CacheConfig
l1DConfig()
{
    CacheConfig c;
    c.name = "L1D";
    c.sizeBytes = 32 * 1024;
    c.ways = 4;
    c.hitLatency = 2;
    c.missLatency = 1;
    return c;
}

CacheConfig
l2Config(std::uint64_t size_bytes)
{
    CacheConfig c;
    c.name = "L2";
    c.sizeBytes = size_bytes;
    c.ways = 16;
    c.hitLatency = 10;
    c.missLatency = 4;
    return c;
}

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg),
      numSets_(cfg.numSets()),
      lineShift_(floorLog2(cfg.lineBytes)),
      setShift_(floorLog2(numSets_)),
      allWays_(cfg.ways >= 32 ? ~std::uint32_t{0}
                              : (std::uint32_t{1} << cfg.ways) - 1),
      victimRng_(cfg.seed)
{
    tcoram_assert(isPow2(cfg.lineBytes), "line size must be a power of two");
    tcoram_assert(numSets_ > 0 && isPow2(numSets_),
                  "set count must be a nonzero power of two: ", cfg.name);
    tcoram_assert(cfg.ways >= 1 && cfg.ways <= 32,
                  "ways must be in [1, 32]: ", cfg.name);
    store_.resize(numSets_ * 2 * cfg_.ways);
    bits_.resize(numSets_);
}

unsigned
Cache::selectVictim(std::uint64_t set)
{
    // Invalid ways are always preferred, the lowest first.
    const std::uint32_t invalid = ~bits_[set].valid & allWays_;
    if (invalid)
        return static_cast<unsigned>(std::countr_zero(invalid));

    switch (cfg_.replacement) {
      case Replacement::Random:
        return static_cast<unsigned>(victimRng_.nextBounded(cfg_.ways));
      case Replacement::Lru:
      case Replacement::Fifo: {
        // Both evict the smallest stamp (the lowest way on a tie);
        // they differ in whether hits refresh it (LRU) or not (FIFO).
        const std::uint64_t *stamp = stamps(set);
        unsigned victim = 0;
        for (unsigned w = 1; w < cfg_.ways; ++w)
            if (stamp[w] < stamp[victim])
                victim = w;
        return victim;
      }
    }
    tcoram_panic("unreachable replacement policy");
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_ >> setShift_;
}

Addr
Cache::lineAddr(Addr tag, std::uint64_t set) const
{
    return ((tag << setShift_) | set) << lineShift_;
}

std::uint32_t
Cache::matchMask(std::uint64_t set, Addr tag) const
{
    const Addr *way = tags(set);
    std::uint32_t match = 0;
    for (unsigned w = 0; w < cfg_.ways; ++w)
        match |= static_cast<std::uint32_t>(way[w] == tag) << w;
    return match & bits_[set].valid;
}

AccessResult
Cache::access(Addr addr, bool is_write)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    SetBits &bits = bits_[set];

    AccessResult res;
    if (const std::uint32_t match = matchMask(set, tag)) {
        // The lowest matching way, as a way-by-way scan would find.
        const unsigned w = static_cast<unsigned>(std::countr_zero(match));
        ++hits_;
        if (cfg_.replacement == Replacement::Lru)
            stamps(set)[w] = ++stamp_; // FIFO keeps insertion order
        if (is_write)
            bits.dirty |= std::uint32_t{1} << w;
        res.hit = true;
        return res;
    }

    ++misses_;
    const unsigned w = selectVictim(set);
    const std::uint32_t bit = std::uint32_t{1} << w;
    if (bits.valid & bits.dirty & bit) {
        res.writeback = true;
        res.victimAddr = lineAddr(tags(set)[w], set);
    }
    bits.valid |= bit;
    bits.dirty = is_write ? bits.dirty | bit : bits.dirty & ~bit;
    tags(set)[w] = tag;
    stamps(set)[w] = ++stamp_;
    return res;
}

bool
Cache::contains(Addr addr) const
{
    return matchMask(setIndex(addr), tagOf(addr)) != 0;
}

bool
Cache::invalidate(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const std::uint32_t match = matchMask(set, tagOf(addr));
    if (!match)
        return false;
    const std::uint32_t bit = match & -match; // the lowest matching way
    SetBits &bits = bits_[set];
    const bool was_dirty = (bits.dirty & bit) != 0;
    bits.valid &= ~bit;
    bits.dirty &= ~bit;
    return was_dirty;
}

double
Cache::missRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(misses_) / static_cast<double>(total)
                 : 0.0;
}

} // namespace tcoram::cache
