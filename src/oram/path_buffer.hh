/**
 * @file
 * Per-ORAM-instance scratch arena. Every buffer a path access needs —
 * the contiguous serialized-path arena the batched CTR engine
 * reads/writes, the CTR segment and nonce scratch, the eviction
 * sweep's scratch, and the physical-transaction trace — is allocated
 * once here and reused, so steady-state PathOram::access()/
 * dummyAccess() perform zero heap allocations. The stash's slot pool
 * (oram/stash.hh) is the remaining piece of the arena discipline.
 *
 * Blocks move between the arena and the stash with no intermediate
 * Bucket objects: unpackInto() puts each real slot of the decrypted
 * path into the stash, and evictFrom() writes each placed block
 * straight into the arena — one payload copy per direction.
 */

#ifndef TCORAM_ORAM_PATH_BUFFER_HH
#define TCORAM_ORAM_PATH_BUFFER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/ctr.hh"
#include "dram/memory_if.hh"
#include "oram/bucket_codec.hh"
#include "oram/stash.hh"

namespace tcoram::oram {

/**
 * Record of the physical transactions one access generated. The
 * request vectors are reserved once (one read + one write per tree
 * level) and reset with clear(), which keeps their capacity.
 */
struct AccessTrace
{
    std::vector<dram::MemRequest> reads;
    std::vector<dram::MemRequest> writes;

    void reserve(std::size_t per_direction)
    {
        reads.reserve(per_direction);
        writes.reserve(per_direction);
    }

    /** Reset for the next access; keeps capacity. */
    void clear()
    {
        reads.clear();
        writes.clear();
    }

    std::uint64_t
    totalBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &r : reads)
            total += r.bytes;
        for (const auto &w : writes)
            total += w.bytes;
        return total;
    }
};

/**
 * Reusable buffers for one PathOram instance, and the two directions
 * of the arena<->stash codec that run over them.
 */
struct PathBuffer
{
    /**
     * @param z bucket slots
     * @param block_bytes payload bytes per slot
     * @param levels tree levels (depth + 1), sizing the path arena
     * @param stash_capacity stash slot-pool size, sizing the eviction
     *        sweep scratch
     */
    PathBuffer(unsigned z, std::uint64_t block_bytes, unsigned levels,
               std::size_t stash_capacity);

    /** Tree levels the arena holds (depth + 1). */
    unsigned levels() const
    {
        return static_cast<unsigned>(levelCount.size());
    }

    /** Serialized bucket of level @p level inside pathPlain. */
    std::span<std::uint8_t>
    levelBytes(unsigned level)
    {
        const std::uint64_t sb = codec.serializedBytes();
        return std::span<std::uint8_t>(pathPlain).subspan(level * sb, sb);
    }

    /**
     * Arena -> stash: insert every real slot of the decrypted path
     * into @p stash straight from pathPlain, level by level and slot
     * by slot (no duplicate scan: a block read off its path is never
     * already in the stash). That order fixes the stash's visit order, and through the
     * eviction sweep every later ciphertext.
     */
    void unpackInto(Stash &stash) const;

    /**
     * Stash -> arena: the eviction sweep for the path to @p leaf.
     * Places each resident in the deepest bucket that is on both the
     * path and its own path, writing the block straight into
     * pathPlain (a full bucket carries the block up to shallower
     * levels), serializes the free slots as dummies and releases the
     * placed blocks from @p stash.
     */
    void evictFrom(Stash &stash, Leaf leaf);

    BucketCodec codec;                   ///< slot wire format
    std::vector<std::uint8_t> pathPlain; ///< whole-path plaintext arena

    /** CTR segment list for the whole-path batched crypto call. */
    std::vector<crypto::CtrSegment> segments;
    /** Write-back nonces, drawn in one batched PRF call. */
    std::vector<std::uint64_t> nonces;

    // --- Eviction sweep scratch (bucketed by deepest legal level) ---
    std::vector<std::uint32_t> slotLevel;   ///< dl per resident slot
    std::vector<std::uint32_t> levelCount;  ///< residents per dl
    std::vector<std::uint32_t> levelCursor; ///< counting-sort cursors
    std::vector<std::uint32_t> sortedSlots; ///< pool indices, dl-desc
    std::vector<std::uint32_t> pending;     ///< overflow carry list
    std::vector<std::uint32_t> placed;      ///< slots to bulk-release

    AccessTrace trace;                ///< transactions of the last access
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_PATH_BUFFER_HH
