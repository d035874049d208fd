#include "oram/integrity.hh"

#include "common/log.hh"
#include "common/rng.hh"
#include "crypto/hmac.hh"

namespace tcoram::oram {

IntegrityVerifier::IntegrityVerifier(const PathOram &oram) : oram_(oram)
{
    const std::uint64_t buckets = oram_.config().numBuckets();
    nodeDigests_.resize(buckets);
    // Hash bottom-up so children are ready before parents.
    for (std::uint64_t i = buckets; i-- > 0;)
        nodeDigests_[i] = hashNode(i);
    root_ = nodeDigests_[0];
}

crypto::Digest256
IntegrityVerifier::hashNode(std::uint64_t index) const
{
    const crypto::Ciphertext &ct = oram_.bucketCiphertext(index);
    crypto::Sha256 h;
    std::uint8_t nonce_bytes[8];
    for (int i = 0; i < 8; ++i)
        nonce_bytes[i] = static_cast<std::uint8_t>(ct.nonce >> (8 * i));
    h.update(nonce_bytes, sizeof(nonce_bytes));
    h.update(ct.data);
    const std::uint64_t left = 2 * index + 1;
    const std::uint64_t right = 2 * index + 2;
    if (left < nodeDigests_.size())
        h.update(nodeDigests_[left].data(), nodeDigests_[left].size());
    if (right < nodeDigests_.size())
        h.update(nodeDigests_[right].data(), nodeDigests_[right].size());
    return h.finish();
}

std::vector<std::uint64_t>
IntegrityVerifier::pathIndices(Leaf leaf) const
{
    const unsigned depth = oram_.depth();
    std::vector<std::uint64_t> path;
    path.reserve(depth + 1);
    for (unsigned l = 0; l <= depth; ++l)
        path.push_back(oram_.bucketIndexOnPath(leaf, l));
    return path;
}

bool
IntegrityVerifier::verifyPath(Leaf leaf) const
{
    // Recompute from the leaf end upward. For the on-path child use
    // the digest recomputed in the previous step; off-path siblings
    // come from the stored digest array (they are covered by the root
    // through their own parents, all of which are on this path).
    const auto path = pathIndices(leaf);
    crypto::Digest256 below{};
    bool have_below = false;
    std::uint64_t below_index = 0;

    for (std::size_t i = path.size(); i-- > 0;) {
        const std::uint64_t index = path[i];
        const crypto::Ciphertext &ct = oram_.bucketCiphertext(index);
        crypto::Sha256 h;
        std::uint8_t nonce_bytes[8];
        for (int b = 0; b < 8; ++b)
            nonce_bytes[b] = static_cast<std::uint8_t>(ct.nonce >> (8 * b));
        h.update(nonce_bytes, sizeof(nonce_bytes));
        h.update(ct.data);
        const std::uint64_t left = 2 * index + 1;
        const std::uint64_t right = 2 * index + 2;
        if (left < nodeDigests_.size()) {
            const auto &ld = (have_below && below_index == left)
                                 ? below
                                 : nodeDigests_[left];
            h.update(ld.data(), ld.size());
        }
        if (right < nodeDigests_.size()) {
            const auto &rd = (have_below && below_index == right)
                                 ? below
                                 : nodeDigests_[right];
            h.update(rd.data(), rd.size());
        }
        below = h.finish();
        below_index = index;
        have_below = true;
    }
    return crypto::digestEqual(below, root_);
}

void
IntegrityVerifier::commitPath(Leaf leaf)
{
    const auto path = pathIndices(leaf);
    for (std::size_t i = path.size(); i-- > 0;)
        nodeDigests_[path[i]] = hashNode(path[i]);
    root_ = nodeDigests_[0];
}

// ---------------------------------------------------------------------------
// BucketAuthenticator
// ---------------------------------------------------------------------------

BucketAuthenticator::BucketAuthenticator(std::uint64_t mac_seed,
                                         std::uint64_t buckets)
{
    tcoram_assert(buckets > 0, "authenticator over an empty tree");
    // Expand the seed into a 32-byte HMAC key.
    key_.reserve(32);
    for (std::uint64_t word = 0; word < 4; ++word) {
        const std::uint64_t v = mixSeed(mac_seed, word);
        for (int i = 0; i < 8; ++i)
            key_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    tags_.resize(buckets);
}

crypto::Digest256
BucketAuthenticator::tagFor(std::uint64_t index,
                            const crypto::Ciphertext &ct) const
{
    msgScratch_.clear();
    for (int i = 0; i < 8; ++i)
        msgScratch_.push_back(static_cast<std::uint8_t>(index >> (8 * i)));
    for (int i = 0; i < 8; ++i)
        msgScratch_.push_back(static_cast<std::uint8_t>(ct.nonce >> (8 * i)));
    msgScratch_.insert(msgScratch_.end(), ct.data.begin(), ct.data.end());
    return crypto::hmacSha256(key_, msgScratch_);
}

void
BucketAuthenticator::commit(std::uint64_t index, const crypto::Ciphertext &ct)
{
    tcoram_assert(index < tags_.size(), "bucket index out of range");
    tags_[index] = tagFor(index, ct);
}

bool
BucketAuthenticator::verify(std::uint64_t index,
                            const crypto::Ciphertext &ct) const
{
    tcoram_assert(index < tags_.size(), "bucket index out of range");
    return crypto::digestEqual(tags_[index], tagFor(index, ct));
}

// ---------------------------------------------------------------------------
// RecoveryEngine
// ---------------------------------------------------------------------------

RecoveryEngine::RecoveryEngine(unsigned retry_budget) : budget_(retry_budget)
{
    tcoram_assert(budget_ >= 1, "recovery needs at least one retry");
    tcoram_assert(budget_ < 63, "retry budget overflows the backoff sum");
}

void
RecoveryEngine::saveState(ByteWriter &w) const
{
    w.u32(budget_);
    w.u64(detected_);
    w.u64(retries_);
    w.u64(recovered_);
}

void
RecoveryEngine::restoreState(ByteReader &r)
{
    budget_ = r.u32();
    detected_ = r.u64();
    retries_ = r.u64();
    recovered_ = r.u64();
}

} // namespace tcoram::oram
