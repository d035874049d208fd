/**
 * @file
 * Functional Path ORAM engine (paper §3, [32]). Maintains the binary
 * tree of encrypted buckets as a flat "DRAM image" of ciphertexts, a
 * stash, and a position map. Every access reads a full path into the
 * stash, serves the request, remaps the block to a fresh random leaf,
 * and writes the path back re-encrypted — so the DRAM image after an
 * access is indistinguishable (to an observer without the key) from
 * any other access, including dummies.
 *
 * The engine exposes exactly what the attack experiments need: the
 * per-bucket ciphertext image (for the §3.2 root-bucket probe) and the
 * list of physical transactions per access (for the timing model).
 *
 * The access datapath is allocation-free in steady state: bucket
 * (de)serialization, encryption, the stash, and the transaction trace
 * all run over the per-instance PathBuffer arena and the stash's slot
 * pool. Blocks move between the decrypted path arena and the stash
 * slot by slot, with one payload copy per direction and no
 * intermediate Bucket objects. accessInto() is the zero-copy entry
 * point; the vector-returning access() is a convenience wrapper for
 * tests and examples.
 *
 * The DRAM image is one contiguous allocation per tree: bucket i's
 * ciphertext is the serialized-bucket-sized slice at byte
 * i * serializedBytes of image_, and its nonce is nonces_[i].
 * bucketCiphertext() hands out a CiphertextView into it, so the
 * integrity layer and the root-bucket probe read buckets in place.
 *
 * The image is filled lazily. Every bucket starts as the all-dummy
 * bucket encrypted under nonce-PRF value i, the bytes an eager
 * initialization would have written, so bucket i's initial ciphertext
 * is a pure function of i. Construction allocates the image without
 * touching it and advances the nonce PRF past those B initial draws.
 * A per-bucket written bit records which slices hold bytes: a path
 * read hands an unwritten level to the arena as plain all-dummy
 * without reading or decrypting anything, and the accessors that
 * expose bytes (bucketCiphertext, tamperCiphertext, enableIntegrity,
 * checkInvariant) materialize a bucket first. saveState encrypts
 * unwritten buckets into scratch, so a checkpoint leaves the image as
 * it was. Under AddressSanitizer the unwritten slices are poisoned,
 * so a read of one dies.
 *
 * Crypto is batched at path granularity: a path read prefetches every
 * written on-path bucket's cache lines, then decrypts them with ONE
 * CtrCipher::xcryptSegments call (each bucket keeps its own nonce, so
 * the wire format is unchanged), and a write-back re-encrypts the
 * whole path with one more — two engine calls per tree per access.
 * Write-back nonces and position-map remap leaves are likewise drawn
 * through the PRF's batched entry points.
 * Stash eviction precomputes each resident's deepest legal level once
 * per access (XOR of leaf labels) and buckets the sweep by level
 * instead of rescanning the stash per tree level. The tree geometry
 * (depth, leaf count, bucket bytes) is derived once at construction,
 * so a path's bucket indices are O(1) each.
 *
 * The access itself is phase-split: beginAccess() performs the fused
 * position-map update (PositionMapIf::update — ONE recursive access
 * per stage instead of get's plus set's), reads and decrypts the old
 * path, and returns the block's stash payload for in-place mutation;
 * finishAccess() runs the eviction sweep and the write-back encrypt.
 * accessInto() composes the two phases; RecursivePathOram::Stage
 * mutates the 8-byte label between them.
 */

#ifndef TCORAM_ORAM_PATH_ORAM_HH
#define TCORAM_ORAM_PATH_ORAM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/log.hh"
#include "common/serial.hh"
#include "crypto/ctr.hh"
#include "crypto/prf.hh"
#include "dram/memory_if.hh"
#include "oram/bucket.hh"
#include "oram/oram_config.hh"
#include "oram/path_buffer.hh"
#include "oram/position_map.hh"
#include "oram/stash.hh"

namespace tcoram::dram {
class FaultInjector;
} // namespace tcoram::dram

namespace tcoram::oram {

class BucketAuthenticator;
class RecoveryEngine;

/** Operation type for an access. */
enum class Op
{
    Read,
    Write,
};

class PathOram
{
  public:
    /**
     * @param cfg geometry (recursion settings ignored here; see
     *        RecursivePathOram)
     * @param pos_map externally owned position map (its size must cover
     *        cfg.numBlocks)
     * @param key_seed seed for the bucket-encryption key and leaf PRF
     * @param base_addr physical base address of the tree in DRAM
     * @param backend crypto engine for bucket encryption and the PRFs
     *        (Auto = process default); explicit per-instance selection
     *        keeps concurrent ORAMs with different backends race-free
     * @param cipher_seed when set, the bucket-encryption key is derived
     *        from this seed instead of key_seed (PRF seeds still come
     *        from key_seed). RecursivePathOram shares one cipher seed
     *        across all trees: the paper's single bucket key κ.
     *
     * Every bucket starts all-dummy, but nothing is encrypted here:
     * the image is allocated untouched and each bucket is encrypted on
     * first use (see the file comment).
     */
    PathOram(const OramConfig &cfg, PositionMapIf &pos_map,
             std::uint64_t key_seed, Addr base_addr = 0,
             crypto::CryptoBackend backend = crypto::CryptoBackend::Auto,
             std::optional<std::uint64_t> cipher_seed = std::nullopt);
    /** Unpoisons the image under ASan before it is freed. */
    ~PathOram();
    PathOram(const PathOram &) = delete;
    PathOram &operator=(const PathOram &) = delete;

    /**
     * Access block @p id over caller-owned buffers (the allocation-free
     * fast path). @p out receives the block's payload after the access
     * and must be exactly blockBytes. For Op::Write, @p data (exactly
     * blockBytes; may alias @p out) replaces the payload; for Op::Read
     * it must be empty. Either way the block is remapped and the path
     * re-encrypted.
     */
    void accessInto(BlockId id, Op op, std::span<const std::uint8_t> data,
                    std::span<std::uint8_t> out);

    /** Allocating convenience wrapper over accessInto(). */
    std::vector<std::uint8_t> access(BlockId id, Op op,
                                     const std::vector<std::uint8_t> &data = {});

    /**
     * Read phase of an access: fused-remap @p id (one
     * PositionMapIf::update — on an ORAM-backed map, ONE recursive
     * access per stage), read and decrypt the old path into the stash,
     * and return the block's payload for in-place mutation. Must be
     * paired with finishAccess(); the span dies with it. accessInto()
     * is this pair around a payload copy; RecursivePathOram::Stage
     * patches one 8-byte label between the phases.
     */
    std::span<std::uint8_t> beginAccess(BlockId id);

    /** Write phase: eviction sweep, encode and encrypt the path
     *  beginAccess() read. */
    void finishAccess();

    /** Batched crypto-engine calls this instance issued: one per path
     *  read and one per write-back. Lazy bucket materialization is
     *  not counted. */
    std::uint64_t cryptoCalls() const { return cryptoCalls_; }

    /**
     * Cumulative PRF consumption, for the per-access stream invariant
     * (tests and RecursivePathOram's debug asserts): any single
     * logical access consumes exactly `levels` write-back nonces, one
     * remap leaf, and at most one first-touch substitute per tree.
     */
    struct DrawStats
    {
        std::uint64_t nonces = 0;     ///< nonce-PRF values drawn
        std::uint64_t leaves = 0;     ///< remap leaves consumed
        std::uint64_t initLeaves = 0; ///< first-touch substitutes drawn
    };
    DrawStats drawStats() const
    {
        return {nonceDraws_, leafDraws_, initDraws_};
    }

    /**
     * Indistinguishable dummy access (paper §1.1.2): read and write
     * back the path to a uniformly random leaf. Allocation-free.
     */
    void dummyAccess();

    /**
     * Background eviction (oram/eviction_engine.hh): read and write
     * back the path to the caller-chosen @p leaf without touching the
     * position map or drawing a remap leaf — a pure stash-drain pass
     * whose wire traffic is identical to a dummy access. The
     * deterministic leaf lets evictions follow the engine's
     * reverse-lexicographic schedule.
     */
    void evictPath(Leaf leaf);

    /** Background evictions performed so far. */
    std::uint64_t evictionCount() const { return evictions_; }

    /** Net blocks drained from the stash by background evictions. */
    std::uint64_t blocksEvicted() const { return blocksEvicted_; }

    /**
     * Ciphertext currently stored for bucket @p index (0 = root): a
     * view into the tree image, valid until the bucket is next
     * written (any access on a path through it). A never-written
     * bucket is materialized first.
     */
    crypto::CiphertextView
    bucketCiphertext(std::uint64_t index) const
    {
        tcoram_assert(index < nonces_.size(), "bucket index out of range");
        if (!written_[index])
            materialize(index);
        return {nonces_[index],
                {image_.get() + index * serialBytes_, serialBytes_}};
    }

    /** Physical address of bucket @p index. */
    Addr bucketAddr(std::uint64_t index) const;

    /** Transactions generated by the most recent access. */
    const AccessTrace &lastTrace() const { return buf_.trace; }

    /**
     * Leaf whose path the most recent (real or dummy) access read and
     * rewrote. For a block's first touch this is the substituted
     * uniform leaf, not the lazily-materialized stored label — the
     * integrity layer must commit the path that actually changed.
     */
    Leaf lastAccessedLeaf() const { return lastLeaf_; }

    const OramConfig &config() const { return cfg_; }
    /** config().treeDepth() and config().numLeaves(), computed once. */
    unsigned depth() const { return depth_; }
    std::uint64_t numLeaves() const { return numLeaves_; }
    const Stash &stash() const { return stash_; }
    std::uint64_t accessCount() const { return accesses_; }

    /**
     * Invariant check (test hook): every initialized block is either in
     * the stash or in some bucket on the path to its mapped leaf.
     * @return true when the invariant holds for all of @p ids.
     */
    bool checkInvariant(const std::vector<BlockId> &ids);

    /** Bucket index of level @p level on the path to @p leaf. */
    std::uint64_t
    bucketIndexOnPath(Leaf leaf, unsigned level) const
    {
        tcoram_assert(level <= depth_, "level beyond tree depth");
        tcoram_assert(leaf < numLeaves_, "leaf out of range");
        return heapIndexOnPath(leaf, level, depth_);
    }

    /**
     * Heap numbering (root = 0, level l starts at 2^l - 1) of the
     * level-@p level bucket on the path to @p leaf in a tree of depth
     * @p depth. The path follows the leaf's bits from the most
     * significant (below the root) downward, so the bucket is the one
     * the top @p level bits name: O(1), no bit walk. Unchecked; the
     * caller keeps level <= depth < 64.
     */
    static constexpr std::uint64_t
    heapIndexOnPath(Leaf leaf, unsigned level, unsigned depth)
    {
        return ((std::uint64_t{1} << level) - 1) + (leaf >> (depth - level));
    }

    /**
     * Adversary action (threat model §4.3): flip one bit of a stored
     * bucket ciphertext, as a malicious server with DRAM access can.
     * The integrity layer (oram/integrity.hh) must detect this. A
     * never-written bucket is materialized before the flip.
     */
    void tamperCiphertext(std::uint64_t bucket_index,
                          std::size_t byte_index);

    /**
     * Enable per-bucket HMAC verification with bounded-retry recovery
     * (oram/integrity.hh): every path read is copied to a scratch
     * arena, authenticated bucket by bucket, and re-read from the
     * pristine DRAM image on a tag mismatch, up to @p retry_budget
     * times (budget exhaustion is fatal-with-context — the corruption
     * is persistent, not a transient fault). Tags the whole current
     * tree image on enable, materializing every unwritten bucket
     * (O(N) encryptions and HMACs — intended for capped trees).
     */
    void enableIntegrity(std::uint64_t mac_seed,
                         unsigned retry_budget = 4);

    /**
     * Attach a fault source corrupting the scratch copies of path
     * reads (not owned; nullptr detaches). Only effective with
     * integrity enabled — silent corruption without a detector would
     * defeat the point of the fault model.
     */
    void attachFaultInjector(dram::FaultInjector *injector);

    /** Failed verify passes / re-reads of the most recent access. */
    std::uint32_t lastFaultsDetected() const { return lastDetected_; }
    std::uint32_t lastRetries() const { return lastRetries_; }

    /** Cumulative recovery counters (zero while integrity is off). */
    std::uint64_t faultsDetected() const;
    std::uint64_t faultsRecovered() const;
    std::uint64_t retriesIssued() const;

    /**
     * Checkpoint support: serialize/restore the full functional state
     * (DRAM image, stash, PRF counters, remap cache, first-touch
     * bits). The position map is owned by the caller and saved by it;
     * integrity tags are recomputed from the restored image rather
     * than serialized. Restore requires an identically-configured
     * instance (geometry asserted).
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /** Batched path read: one CTR call, then decode into the stash. */
    void readPath(Leaf leaf);
    /** readPath with per-bucket authentication and bounded retry. */
    void verifiedReadPath(Leaf leaf);
    /** Batched write-back: eviction sweep into the arena, one CTR
     *  call. */
    void writePath(Leaf leaf);
    /** Fresh uniform leaf from the batched remap cache. */
    Leaf nextLeaf();
    /** Ciphertext bytes of bucket @p index in image_. */
    std::span<std::uint8_t>
    imageSlice(std::uint64_t index) const
    {
        return {image_.get() + index * serialBytes_, serialBytes_};
    }
    /** Bucket @p index's initial ciphertext: encrypt the all-dummy
     *  bucket under nonce-PRF value @p index into @p out.
     *  @return the nonce */
    std::uint64_t initialCiphertext(std::uint64_t index,
                                    std::span<std::uint8_t> out) const;
    /** Write bucket @p index's initial ciphertext into the image and
     *  mark it written. */
    void materialize(std::uint64_t index) const;
    /** Mark bucket @p index as holding bytes (and unpoison them). */
    void markWritten(std::uint64_t index) const;

    OramConfig cfg_;
    // Geometry derived once from cfg_ (treeDepth() is a divide and a
    // log2 per call): the path loops read these instead.
    unsigned depth_;
    std::uint64_t numLeaves_;
    std::uint64_t bucketBytes_;
    /** Serialized (and ciphertext) bytes per bucket. */
    std::uint64_t serialBytes_;
    PositionMapIf &posMap_;
    crypto::CtrCipher cipher_;
    crypto::Prf prf_;
    crypto::Prf leafPrf_;
    crypto::Prf initLeafPrf_;
    /** Blocks materialized so far (first-touch detection). */
    std::vector<bool> touched_;
    std::vector<std::uint64_t> leafCache_;
    std::size_t leafPos_ = 0;
    Stash stash_;
    Addr baseAddr_;
    // The lazily filled image (see the file comment): const accessors
    // materialize buckets, hence mutable.
    /** Nonce of every bucket, heap-numbered; valid once written. */
    mutable std::vector<std::uint64_t> nonces_;
    /** Every bucket's ciphertext, bucket i at i * serialBytes_; a
     *  slice holds bytes only once its written_ bit is set. */
    mutable std::unique_ptr<std::uint8_t[]> image_;
    /** One bit per bucket: set by a write-back, a materialization or
     *  a restore. */
    mutable std::vector<bool> written_;
    /** Serialized all-dummy bucket: every unwritten bucket's
     *  plaintext. */
    std::vector<std::uint8_t> dummyPlain_;
    PathBuffer buf_;
    std::uint64_t accesses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t blocksEvicted_ = 0;
    Leaf lastLeaf_ = 0;

    /** Batched engine calls issued by this instance. */
    std::uint64_t cryptoCalls_ = 0;
    // PRF consumption telemetry (drawStats()); not checkpointed —
    // deltas are only meaningful within one process.
    std::uint64_t nonceDraws_ = 0;
    std::uint64_t leafDraws_ = 0;
    std::uint64_t initDraws_ = 0;
    /** Phase state: leaf of the open beginAccess(), if any. */
    bool inAccess_ = false;
    Leaf openLeaf_ = 0;

    // Fault-tolerant datapath (all null/empty until enableIntegrity).
    std::unique_ptr<BucketAuthenticator> auth_;
    std::unique_ptr<RecoveryEngine> recovery_;
    dram::FaultInjector *injector_ = nullptr; ///< not owned
    /** Scratch copy of the ciphertexts on the path being read (level
     *  l at l * serialBytes_): faults are injected into the copy, so a
     *  retry re-reads pristine DRAM. */
    std::vector<std::uint8_t> readScratch_;
    std::uint32_t lastRetries_ = 0;
    std::uint32_t lastDetected_ = 0;
};

/**
 * Recursive Path ORAM (paper §9.1.2: 3 levels of recursion, 32 B
 * recursive blocks). The data ORAM's position map is stored, packed,
 * in a smaller ORAM, whose map is stored in a yet smaller one, until
 * the final map fits on chip as a FlatPositionMap.
 */
class RecursivePathOram
{
  public:
    RecursivePathOram(
        const OramConfig &cfg, std::uint64_t key_seed,
        crypto::CryptoBackend backend = crypto::CryptoBackend::Auto);
    ~RecursivePathOram();

    /** Allocation-free access; contract identical to PathOram::accessInto. */
    void accessInto(BlockId id, Op op, std::span<const std::uint8_t> data,
                    std::span<std::uint8_t> out);

    std::vector<std::uint8_t> access(BlockId id, Op op,
                                     const std::vector<std::uint8_t> &data = {});
    void dummyAccess();

    /** Background eviction pass @p g: evictPath on every tree's
     *  reverse-lexicographic schedule leaf for counter g. */
    void backgroundEvict(std::uint64_t g);

    /** Background eviction passes, summed over trees. */
    std::uint64_t evictionCount() const;

    /** Net blocks drained by background evictions, summed over trees. */
    std::uint64_t blocksEvicted() const;

    PathOram &dataOram() { return *data_; }
    const PathOram &dataOram() const { return *data_; }
    /** Number of ORAM trees (data + recursion). */
    std::size_t treeCount() const { return 1 + recursion_.size(); }

    /** Tree @p i: 0 = data, 1..H = recursion stages (innermost first —
     *  construction order). */
    const PathOram &tree(std::size_t i) const;

    /**
     * Batched crypto-engine calls issued across all trees. The delta
     * per logical access is exactly 2·treeCount() (one path-read
     * decrypt and one write-back encrypt per tree) — the 2·(H+1)
     * budget the tests pin.
     */
    std::uint64_t cryptoCalls() const;

    /** Total bytes moved by the last access across all trees. */
    std::uint64_t lastAccessBytes() const;

    /** Enable per-bucket HMAC + bounded-retry recovery on every tree
     *  (each tree's tag key is derived from @p mac_seed). */
    void enableIntegrity(std::uint64_t mac_seed, unsigned retry_budget = 4);

    /** Attach one fault source to every tree (not owned). */
    void attachFaultInjector(dram::FaultInjector *injector);

    /** Per-access and cumulative recovery counters, summed over trees. */
    std::uint32_t lastFaultsDetected() const;
    std::uint32_t lastRetries() const;
    std::uint64_t faultsDetected() const;
    std::uint64_t faultsRecovered() const;
    std::uint64_t retriesIssued() const;

    /** Checkpoint support: every tree plus the innermost flat map. */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /** One recursion stage: an ORAM holding packed leaf labels. */
    struct Stage;

    /** Debug-check the per-tree PRF draw quotas of the access. */
    void finishLogicalAccess(bool remapping);
    /** Snapshot per-tree draw counters into drawSnap_ (debug). */
    void snapshotDraws();

    OramConfig cfg_;
    std::vector<std::unique_ptr<Stage>> recursion_; // innermost first
    std::unique_ptr<PositionMapIf> flatMap_;        // backs last stage
    std::unique_ptr<PathOram> data_;
    /** Per-tree draw snapshot for the debug stream invariant. */
    std::vector<PathOram::DrawStats> drawSnap_;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_PATH_ORAM_HH
