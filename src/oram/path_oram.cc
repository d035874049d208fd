#include "oram/path_oram.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "dram/faulty_memory.hh"
#include "oram/eviction_engine.hh"
#include "oram/integrity.hh"

namespace tcoram::oram {

namespace {
/** Batch size for bulk bucket initialization in the constructor. */
constexpr std::size_t kInitBatch = 256;
/** Leaf labels drawn per batched PRF call (position-map remapping). */
constexpr std::size_t kLeafBatch = 32;

/** Prefetch every cache line of @p bytes (a hint; never faults). */
inline void
prefetchLines(std::span<const std::uint8_t> bytes)
{
    constexpr std::uintptr_t kLine = 64;
    const auto first = reinterpret_cast<std::uintptr_t>(bytes.data());
    const std::uintptr_t end = first + bytes.size();
    for (std::uintptr_t a = first & ~(kLine - 1); a < end; a += kLine)
        __builtin_prefetch(reinterpret_cast<const void *>(a));
}
} // namespace

PathOram::PathOram(const OramConfig &cfg, PositionMapIf &pos_map,
                   std::uint64_t key_seed, Addr base_addr,
                   crypto::CryptoBackend backend,
                   std::optional<std::uint64_t> cipher_seed)
    : cfg_(cfg),
      depth_(cfg.treeDepth()),
      numLeaves_(std::uint64_t{1} << depth_),
      bucketBytes_(cfg.bucketBytes()),
      serialBytes_(BucketCodec(cfg.z, cfg.blockBytes).serializedBytes()),
      posMap_(pos_map),
      cipher_(crypto::keyFromSeed(cipher_seed.value_or(key_seed)), backend),
      prf_(crypto::keyFromSeed(key_seed ^ 0x5eedf00dull), backend),
      leafPrf_(crypto::keyFromSeed(key_seed ^ 0x1eaf5eedull), backend),
      initLeafPrf_(crypto::keyFromSeed(key_seed ^ 0xf1657ace5ull), backend),
      touched_(cfg.numBlocks, false),
      stash_(cfg.stashCapacity, cfg.blockBytes),
      baseAddr_(base_addr),
      buf_(cfg.z, cfg.blockBytes, depth_ + 1, cfg.stashCapacity)
{
    tcoram_assert(pos_map.size() >= cfg_.numBlocks,
                  "position map smaller than block count");

    leafCache_.resize(kLeafBatch);
    leafPos_ = leafCache_.size(); // force a refill on first use

    // Initialize every bucket to an all-dummy encrypted state. Blocks
    // are lazily materialized (zero-filled) on first access; until then
    // their position-map entry (leaf 0 by convention) is irrelevant
    // because readPath() simply won't find them and the first access
    // remaps them to a fresh uniform leaf.
    //
    // The whole tree shares one all-dummy plaintext; nonces are drawn
    // in bulk and buckets encrypted kInitBatch at a time through the
    // batched CTR engine.
    const std::uint64_t buckets = cfg_.numBuckets();
    nonces_.resize(buckets);
    image_.resize(buckets * serialBytes_);
    std::vector<std::uint8_t> all_dummy(serialBytes_);
    buf_.codec.writeDummies(all_dummy, 0);

    std::vector<std::uint64_t> nonces(
        std::min<std::uint64_t>(kInitBatch, buckets));
    std::vector<crypto::CtrSegment> segs;
    segs.reserve(nonces.size());
    for (std::uint64_t base = 0; base < buckets; base += kInitBatch) {
        const std::uint64_t n =
            std::min<std::uint64_t>(kInitBatch, buckets - base);
        prf_.nextMany({nonces.data(), n});
        nonceDraws_ += n;
        segs.clear();
        for (std::uint64_t j = 0; j < n; ++j) {
            nonces_[base + j] = nonces[j];
            segs.push_back({nonces[j], all_dummy, imageSlice(base + j)});
        }
        cipher_.xcryptSegments(segs);
        ++cryptoCalls_;
    }
}

PathOram::~PathOram() = default;

Addr
PathOram::bucketAddr(std::uint64_t index) const
{
    return baseAddr_ + index * bucketBytes_;
}

void
PathOram::tamperCiphertext(std::uint64_t bucket_index,
                           std::size_t byte_index)
{
    tcoram_assert(bucket_index < nonces_.size(), "bucket index out of range");
    tcoram_assert(serialBytes_ > 0, "empty ciphertext");
    imageSlice(bucket_index)[byte_index % serialBytes_] ^= 0x01;
}

Leaf
PathOram::nextLeaf()
{
    // Batched position-map remapping: leaves are drawn kLeafBatch at a
    // time through Prf::evalMany (one engine call), then consumed with
    // rejection sampling (a no-op for power-of-two leaf counts).
    const std::uint64_t bound = numLeaves_;
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        if (leafPos_ == leafCache_.size()) {
            leafPrf_.nextMany(leafCache_);
            leafPos_ = 0;
        }
        ++leafDraws_;
        const std::uint64_t r = leafCache_[leafPos_++];
        if (r >= threshold)
            return r % bound;
    }
}

void
PathOram::readPath(Leaf leaf)
{
    if (auth_ != nullptr) {
        verifiedReadPath(leaf);
        return;
    }
    // Gather every bucket ciphertext on the path (prefetching all of
    // them before the first is decrypted: they are scattered across
    // the image), decrypt them all with ONE batched CTR call into the
    // contiguous path arena, then put the real slots straight from the
    // arena into the stash.
    buf_.segments.clear();
    for (unsigned level = 0; level <= depth_; ++level) {
        const std::uint64_t idx = bucketIndexOnPath(leaf, level);
        buf_.trace.reads.push_back({bucketAddr(idx), bucketBytes_, false});
        const crypto::CiphertextView ct = bucketCiphertext(idx);
        prefetchLines(ct.data);
        buf_.segments.push_back({ct.nonce, ct.data, buf_.levelBytes(level)});
    }
    cipher_.xcryptSegments(buf_.segments);
    ++cryptoCalls_;
    buf_.unpackInto(stash_);
}

void
PathOram::verifiedReadPath(Leaf leaf)
{
    // Verified variant of readPath: each on-path ciphertext is COPIED
    // into the read scratch arena, the attached injector corrupts the
    // copy (transient-fault model: DRAM itself stays pristine, except
    // for stuck bytes the injector re-applies), and every bucket is
    // authenticated against its latched HMAC tag before the batched
    // decrypt. A mismatch discards the whole copy and re-reads; the
    // retry loop is bounded by the recovery budget, and each re-read
    // appears in the access trace (it moves real DRAM bytes).
    const unsigned budget = recovery_->retryBudget();
    bool detected_any = false;
    for (unsigned attempt = 0;; ++attempt) {
        buf_.segments.clear();
        bool all_ok = true;
        std::uint64_t bad_idx = 0;
        for (unsigned level = 0; level <= depth_; ++level) {
            const std::uint64_t idx = bucketIndexOnPath(leaf, level);
            buf_.trace.reads.push_back(
                {bucketAddr(idx), bucketBytes_, false});
            const crypto::CiphertextView stored = bucketCiphertext(idx);
            const std::span<std::uint8_t> copy =
                std::span<std::uint8_t>(readScratch_)
                    .subspan(level * serialBytes_, serialBytes_);
            std::copy(stored.data.begin(), stored.data.end(), copy.begin());
            // Corrupt every level's copy before verifying any, so the
            // injector's draw stream does not depend on which bucket
            // fails first.
            if (injector_ != nullptr)
                injector_->maybeCorrupt(idx, copy);
            if (all_ok && !auth_->verify(idx, {stored.nonce, copy})) {
                all_ok = false;
                bad_idx = idx;
            }
            buf_.segments.push_back(
                {stored.nonce, copy, buf_.levelBytes(level)});
        }
        if (all_ok)
            break;
        detected_any = true;
        ++lastDetected_;
        recovery_->recordDetection();
        if (attempt == budget) {
            tcoram_fatal("integrity violation on bucket ", bad_idx,
                         " (path to leaf ", leaf, ") persists after ",
                         budget,
                         " retries — corruption is not transient, retry "
                         "budget exhausted");
        }
        ++lastRetries_;
        recovery_->recordRetry();
    }
    if (detected_any)
        recovery_->recordRecovery();

    cipher_.xcryptSegments(buf_.segments);
    ++cryptoCalls_;
    buf_.unpackInto(stash_);
}

void
PathOram::writePath(Leaf leaf)
{
    const unsigned levels = depth_ + 1;

    buf_.evictFrom(stash_, leaf);

    // Fresh nonces for the whole path in one batched PRF call (drawn
    // deepest level first, preserving the historical stream order),
    // then ONE batched CTR call re-encrypts every bucket into the
    // stored DRAM image.
    prf_.nextMany(buf_.nonces);
    nonceDraws_ += levels;
    buf_.segments.clear();
    for (unsigned l = levels, k = 0; l-- > 0; ++k) {
        const std::uint64_t idx = bucketIndexOnPath(leaf, l);
        buf_.trace.writes.push_back({bucketAddr(idx), bucketBytes_, true});
        nonces_[idx] = buf_.nonces[k];
        buf_.segments.push_back(
            {nonces_[idx], buf_.levelBytes(l), imageSlice(idx)});
    }
    cipher_.xcryptSegments(buf_.segments);
    ++cryptoCalls_;

    // Written buckets carry fresh nonces and ciphertexts: re-latch
    // their tags (the verified read authenticates against these).
    if (auth_ != nullptr) {
        for (unsigned l = 0; l < levels; ++l) {
            const std::uint64_t idx = bucketIndexOnPath(leaf, l);
            auth_->commit(idx, bucketCiphertext(idx));
        }
    }
}

std::span<std::uint8_t>
PathOram::beginAccess(BlockId id)
{
    tcoram_assert(!inAccess_, "beginAccess while an access is open");
    tcoram_assert(id < cfg_.numBlocks, "block id out of range: ", id);
    buf_.trace.clear();
    lastRetries_ = 0;
    lastDetected_ = 0;
    ++accesses_;

    // The position map is always consulted (the recursive ORAM traffic
    // must be identical for touched and untouched blocks), but a
    // never-touched block's stored label is a lazily-materialized 0 —
    // reading path(0) for every first touch would starve eviction
    // under first-touch-heavy workloads (all write-backs on one path).
    // Substitute a uniform leaf instead, modeling an ORAM whose
    // position map was randomized at initialization (§5's session
    // load); the dedicated PRF keeps the remap/nonce streams intact.
    // Draw order per access: first-touch substitute, then the remap
    // leaf, then (in writePath) the path nonces — drawStats() pins
    // the per-access quota.
    const bool first = !touched_[id];
    const Leaf subst =
        first ? static_cast<Leaf>(initLeafPrf_.next64() & (numLeaves_ - 1))
              : 0;
    if (first)
        ++initDraws_;
    touched_[id] = true;
    const Leaf new_leaf = nextLeaf();
    // Fused remap: ONE recursive access per stage retrieves the old
    // label and stores the new one.
    const Leaf mapped = posMap_.update(id, new_leaf);
    const Leaf old_leaf = first ? subst : mapped;
    lastLeaf_ = old_leaf;

    readPath(old_leaf);

    BlockSlot *slot = stash_.find(id);
    if (slot == nullptr) {
        // First touch: materialize a zero block.
        slot = stash_.emplaceFresh(id, new_leaf, cfg_.blockBytes);
    }
    slot->leaf = new_leaf;

    inAccess_ = true;
    openLeaf_ = old_leaf;
    return slot->payload;
}

void
PathOram::finishAccess()
{
    tcoram_assert(inAccess_, "finishAccess without an open beginAccess");
    inAccess_ = false;
    writePath(openLeaf_);
}

void
PathOram::accessInto(BlockId id, Op op, std::span<const std::uint8_t> data,
                     std::span<std::uint8_t> out)
{
    tcoram_assert(out.size() == cfg_.blockBytes,
                  "output buffer must be exactly one block");
    if (op == Op::Write) {
        tcoram_assert(data.size() == cfg_.blockBytes,
                      "write payload must be exactly one block");
    } else {
        tcoram_assert(data.empty(), "read access takes no payload");
    }

    std::span<std::uint8_t> payload = beginAccess(id);

    if (op == Op::Write)
        std::copy(data.begin(), data.end(), payload.begin());
    // data may alias out, so the result copy comes after the write.
    std::copy(payload.begin(), payload.end(), out.begin());

    finishAccess();
}

std::vector<std::uint8_t>
PathOram::access(BlockId id, Op op, const std::vector<std::uint8_t> &data)
{
    std::vector<std::uint8_t> out(cfg_.blockBytes);
    accessInto(id, op, data, out);
    return out;
}

void
PathOram::dummyAccess()
{
    buf_.trace.clear();
    lastRetries_ = 0;
    lastDetected_ = 0;
    ++accesses_;
    const Leaf leaf = nextLeaf();
    lastLeaf_ = leaf;
    readPath(leaf);
    writePath(leaf);
}

void
PathOram::evictPath(Leaf leaf)
{
    // A dummy access minus the leaf draw: read the caller-chosen path
    // into the stash and write it back through the ordinary eviction
    // sweep. No position-map touch, no remap, no PRF leaf draw — so a
    // run with background evictions consumes exactly the same seeded
    // leaf stream as one without, and the wire traffic per eviction is
    // identical to a dummy access on this leaf.
    tcoram_assert(leaf < numLeaves_, "eviction leaf out of range");
    buf_.trace.clear();
    lastRetries_ = 0;
    lastDetected_ = 0;
    ++evictions_;
    lastLeaf_ = leaf;
    const std::size_t before = stash_.size();
    readPath(leaf);
    writePath(leaf);
    const std::size_t after = stash_.size();
    if (before > after)
        blocksEvicted_ += before - after;
}

bool
PathOram::checkInvariant(const std::vector<BlockId> &ids)
{
    for (BlockId id : ids) {
        if (stash_.contains(id))
            continue;
        const Leaf leaf = posMap_.get(id);
        bool found = false;
        for (unsigned level = 0; level <= depth_ && !found; ++level) {
            const std::uint64_t idx = bucketIndexOnPath(leaf, level);
            Bucket b = Bucket::unseal(bucketCiphertext(idx), cipher_, cfg_.z,
                                      cfg_.blockBytes);
            for (const auto &slot : b.slots())
                if (slot.id == id)
                    found = true;
        }
        if (!found)
            return false;
    }
    return true;
}

void
PathOram::enableIntegrity(std::uint64_t mac_seed, unsigned retry_budget)
{
    auth_ = std::make_unique<BucketAuthenticator>(mac_seed, nonces_.size());
    recovery_ = std::make_unique<RecoveryEngine>(retry_budget);
    for (std::uint64_t i = 0; i < nonces_.size(); ++i)
        auth_->commit(i, bucketCiphertext(i));
    readScratch_.resize((depth_ + 1) * serialBytes_);
}

void
PathOram::attachFaultInjector(dram::FaultInjector *injector)
{
    tcoram_assert(injector == nullptr || auth_ != nullptr,
                  "attach the fault injector after enableIntegrity — "
                  "injected corruption must be detectable");
    injector_ = injector;
}

std::uint64_t
PathOram::faultsDetected() const
{
    return recovery_ != nullptr ? recovery_->faultsDetected() : 0;
}

std::uint64_t
PathOram::faultsRecovered() const
{
    return recovery_ != nullptr ? recovery_->faultsRecovered() : 0;
}

std::uint64_t
PathOram::retriesIssued() const
{
    return recovery_ != nullptr ? recovery_->retriesIssued() : 0;
}

void
PathOram::saveState(ByteWriter &w) const
{
    w.u64(accesses_);
    w.u64(evictions_);
    w.u64(blocksEvicted_);
    w.u64(lastLeaf_);
    w.u64(prf_.counter());
    w.u64(leafPrf_.counter());
    w.u64(initLeafPrf_.counter());

    w.u64(touched_.size());
    for (const bool t : touched_)
        w.u8(t ? 1 : 0);

    w.u64(leafCache_.size());
    for (const std::uint64_t v : leafCache_)
        w.u64(v);
    w.u64(leafPos_);

    w.u64(nonces_.size());
    w.u64(serialBytes_);
    for (std::uint64_t i = 0; i < nonces_.size(); ++i) {
        const crypto::CiphertextView ct = bucketCiphertext(i);
        w.u64(ct.nonce);
        w.bytes(ct.data);
    }

    stash_.saveState(w);
    if (recovery_ != nullptr)
        recovery_->saveState(w);
}

void
PathOram::restoreState(ByteReader &r)
{
    accesses_ = r.u64();
    evictions_ = r.u64();
    blocksEvicted_ = r.u64();
    lastLeaf_ = r.u64();
    prf_.setCounter(r.u64());
    leafPrf_.setCounter(r.u64());
    initLeafPrf_.setCounter(r.u64());

    tcoram_assert(r.u64() == touched_.size(),
                  "snapshot block count mismatch");
    for (std::size_t i = 0; i < touched_.size(); ++i)
        touched_[i] = r.u8() != 0;

    tcoram_assert(r.u64() == leafCache_.size(),
                  "snapshot leaf cache size mismatch");
    for (std::uint64_t &v : leafCache_)
        v = r.u64();
    leafPos_ = r.u64();

    tcoram_assert(r.u64() == nonces_.size(), "snapshot tree size mismatch");
    tcoram_assert(r.u64() == serialBytes_, "snapshot bucket size mismatch");
    for (std::uint64_t i = 0; i < nonces_.size(); ++i) {
        nonces_[i] = r.u64();
        r.bytes(imageSlice(i));
    }

    stash_.restoreState(r);
    if (recovery_ != nullptr)
        recovery_->restoreState(r);

    // Tags are derived state: re-latch over the restored image instead
    // of trusting serialized tags.
    if (auth_ != nullptr)
        for (std::uint64_t i = 0; i < nonces_.size(); ++i)
            auth_->commit(i, bucketCiphertext(i));
}

// ---------------------------------------------------------------------------
// RecursivePathOram
// ---------------------------------------------------------------------------

/**
 * One recursion stage: a PathOram whose blocks pack leaf labels of the
 * next-outer ORAM (8 bytes per label), plus the PositionMapIf adapter
 * the outer ORAM reads/writes through. The stage owns one reusable
 * block buffer so label reads/updates stay allocation-free.
 */
struct RecursivePathOram::Stage : public PositionMapIf
{
    Stage(const OramConfig &cfg, PositionMapIf &inner_map,
          std::uint64_t key_seed, std::uint64_t outer_entries,
          crypto::CryptoBackend backend, std::uint64_t cipher_seed)
        : oram(cfg, inner_map, key_seed, 0, backend, cipher_seed),
          entriesPerBlock(cfg.blockBytes / 8),
          entries(outer_entries),
          blockBuf(cfg.blockBytes, 0)
    {
    }

    Leaf
    get(BlockId id) override
    {
        tcoram_assert(id < entries, "recursive get out of range");
        oram.accessInto(id / entriesPerBlock, Op::Read, {}, blockBuf);
        const std::uint64_t off = (id % entriesPerBlock) * 8;
        return load64le(blockBuf.data() + off);
    }

    Leaf
    update(BlockId id, Leaf leaf) override
    {
        // ONE path access patches the label in the stash-resident copy
        // between the read and write phases.
        tcoram_assert(id < entries, "recursive update out of range");
        const std::span<std::uint8_t> payload =
            oram.beginAccess(id / entriesPerBlock);
        const std::uint64_t off = (id % entriesPerBlock) * 8;
        const Leaf old = load64le(payload.data() + off);
        store64le(payload.data() + off, leaf);
        oram.finishAccess();
        return old;
    }

    std::uint64_t size() const override { return entries; }

    PathOram oram;
    std::uint64_t entriesPerBlock;
    std::uint64_t entries;
    std::vector<std::uint8_t> blockBuf;
};

RecursivePathOram::RecursivePathOram(const OramConfig &cfg,
                                     std::uint64_t key_seed,
                                     crypto::CryptoBackend backend)
    : cfg_(cfg)
{
    const auto chain = cfg_.recursionChain();

    // Every tree shares ONE bucket-encryption key (the paper's single
    // AES key κ); per-tree PRF seeds stay distinct.
    const std::uint64_t cipher_seed = key_seed;

    // Build from the innermost (smallest) ORAM outward. The innermost
    // stage's own position map is flat (on-chip).
    PositionMapIf *next_map = nullptr;
    if (chain.empty()) {
        flatMap_ = std::make_unique<FlatPositionMap>(cfg_.numBlocks);
        next_map = flatMap_.get();
    } else {
        flatMap_ =
            std::make_unique<FlatPositionMap>(chain.back().numBlocks);
        next_map = flatMap_.get();
        for (std::size_t i = chain.size(); i-- > 0;) {
            const std::uint64_t outer_entries =
                (i == 0) ? cfg_.numBlocks : chain[i - 1].numBlocks;
            auto stage = std::make_unique<Stage>(
                chain[i], *next_map, key_seed + 17 * (i + 1), outer_entries,
                backend, cipher_seed);
            next_map = stage.get();
            recursion_.push_back(std::move(stage));
        }
    }

    data_ = std::make_unique<PathOram>(cfg_, *next_map, key_seed, 0,
                                       backend, cipher_seed);
    drawSnap_.resize(treeCount());
}

RecursivePathOram::~RecursivePathOram() = default;

const PathOram &
RecursivePathOram::tree(std::size_t i) const
{
    tcoram_assert(i < treeCount(), "tree index out of range");
    return i == 0 ? *data_ : recursion_[i - 1]->oram;
}

std::uint64_t
RecursivePathOram::cryptoCalls() const
{
    std::uint64_t total = data_->cryptoCalls();
    for (const auto &stage : recursion_)
        total += stage->oram.cryptoCalls();
    return total;
}

void
RecursivePathOram::snapshotDraws()
{
#ifndef NDEBUG
    for (std::size_t i = 0; i < treeCount(); ++i)
        drawSnap_[i] = tree(i).drawStats();
#endif
}

void
RecursivePathOram::finishLogicalAccess([[maybe_unused]] bool remapping)
{
#ifndef NDEBUG
    // Stream invariant: relative to snapshotDraws(), each tree
    // consumed exactly `levels` write-back nonces, one remap leaf and
    // at most one first-touch substitute (none for dummies, where
    // remapping=false).
    for (std::size_t i = 0; i < treeCount(); ++i) {
        const PathOram &t = tree(i);
        const PathOram::DrawStats d = t.drawStats();
        const std::uint64_t levels = t.depth() + 1;
        tcoram_dassert(d.nonces - drawSnap_[i].nonces == levels,
                       "tree ", i, " nonce draw quota violated");
        tcoram_dassert(d.leaves - drawSnap_[i].leaves == 1,
                       "tree ", i, " leaf draw quota violated");
        const std::uint64_t init = d.initLeaves - drawSnap_[i].initLeaves;
        tcoram_dassert(init <= (remapping ? 1u : 0u),
                       "tree ", i, " init-leaf draw quota violated");
    }
#endif
}

void
RecursivePathOram::accessInto(BlockId id, Op op,
                              std::span<const std::uint8_t> data,
                              std::span<std::uint8_t> out)
{
    snapshotDraws();
    // The data tree's beginAccess drives the recursion through its
    // ORAM-backed position map (Stage::update), so each stage's path
    // is read, patched and written exactly once before the data path.
    data_->accessInto(id, op, data, out);
    finishLogicalAccess(true);
}

std::vector<std::uint8_t>
RecursivePathOram::access(BlockId id, Op op,
                          const std::vector<std::uint8_t> &data)
{
    std::vector<std::uint8_t> out(cfg_.blockBytes);
    accessInto(id, op, data, out);
    return out;
}

void
RecursivePathOram::dummyAccess()
{
    // A dummy must touch every tree the same way a real access does:
    // innermost stage outward, data tree last — the completion order
    // of a real fused access.
    snapshotDraws();
    for (auto &stage : recursion_)
        stage->oram.dummyAccess();
    data_->dummyAccess();
    finishLogicalAccess(false);
}

void
RecursivePathOram::backgroundEvict(std::uint64_t g)
{
    // One eviction pass touches every tree, like a dummy access, on
    // each tree's reverse-lexicographic schedule leaf for counter g.
    for (auto &stage : recursion_) {
        PathOram &t = stage->oram;
        t.evictPath(
            EvictionEngine::scheduleLeaf(g, t.depth(), t.numLeaves()));
    }
    data_->evictPath(EvictionEngine::scheduleLeaf(g, data_->depth(),
                                                  data_->numLeaves()));
}

std::uint64_t
RecursivePathOram::evictionCount() const
{
    std::uint64_t total = data_->evictionCount();
    for (const auto &stage : recursion_)
        total += stage->oram.evictionCount();
    return total;
}

std::uint64_t
RecursivePathOram::blocksEvicted() const
{
    std::uint64_t total = data_->blocksEvicted();
    for (const auto &stage : recursion_)
        total += stage->oram.blocksEvicted();
    return total;
}

std::uint64_t
RecursivePathOram::lastAccessBytes() const
{
    std::uint64_t total = data_->lastTrace().totalBytes();
    for (const auto &stage : recursion_)
        total += stage->oram.lastTrace().totalBytes();
    return total;
}

void
RecursivePathOram::enableIntegrity(std::uint64_t mac_seed,
                                   unsigned retry_budget)
{
    data_->enableIntegrity(mac_seed, retry_budget);
    for (std::size_t i = 0; i < recursion_.size(); ++i)
        recursion_[i]->oram.enableIntegrity(mac_seed + 31 * (i + 1),
                                            retry_budget);
}

void
RecursivePathOram::attachFaultInjector(dram::FaultInjector *injector)
{
    data_->attachFaultInjector(injector);
    for (auto &stage : recursion_)
        stage->oram.attachFaultInjector(injector);
}

std::uint32_t
RecursivePathOram::lastFaultsDetected() const
{
    std::uint32_t total = data_->lastFaultsDetected();
    for (const auto &stage : recursion_)
        total += stage->oram.lastFaultsDetected();
    return total;
}

std::uint32_t
RecursivePathOram::lastRetries() const
{
    std::uint32_t total = data_->lastRetries();
    for (const auto &stage : recursion_)
        total += stage->oram.lastRetries();
    return total;
}

std::uint64_t
RecursivePathOram::faultsDetected() const
{
    std::uint64_t total = data_->faultsDetected();
    for (const auto &stage : recursion_)
        total += stage->oram.faultsDetected();
    return total;
}

std::uint64_t
RecursivePathOram::faultsRecovered() const
{
    std::uint64_t total = data_->faultsRecovered();
    for (const auto &stage : recursion_)
        total += stage->oram.faultsRecovered();
    return total;
}

std::uint64_t
RecursivePathOram::retriesIssued() const
{
    std::uint64_t total = data_->retriesIssued();
    for (const auto &stage : recursion_)
        total += stage->oram.retriesIssued();
    return total;
}

void
RecursivePathOram::saveState(ByteWriter &w) const
{
    // Stage maps are blocks inside the next tree's image, so saving
    // every tree plus the one flat innermost map captures the whole
    // recursive position-map chain.
    static_cast<const FlatPositionMap *>(flatMap_.get())->saveState(w);
    for (const auto &stage : recursion_)
        stage->oram.saveState(w);
    data_->saveState(w);
}

void
RecursivePathOram::restoreState(ByteReader &r)
{
    static_cast<FlatPositionMap *>(flatMap_.get())->restoreState(r);
    for (auto &stage : recursion_)
        stage->oram.restoreState(r);
    data_->restoreState(r);
}

} // namespace tcoram::oram
