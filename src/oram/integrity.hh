/**
 * @file
 * Integrity verification for Path ORAM, after Ren et al. (HPEC 2013),
 * which the paper relies on for DRAM-tamper detection (§4.3) and for
 * the certified-program mitigation of §10. Two mechanisms:
 *
 * IntegrityVerifier — the Merkle tree mirroring the ORAM tree: each
 * node's digest covers its bucket ciphertext and its children's
 * digests, so verifying one root-to-leaf path costs O(path) hashes —
 * the same buckets the ORAM access already touches — and the on-chip
 * trusted state is one digest. This is the adversarial-tamper
 * detector the attack experiments drive.
 *
 * BucketAuthenticator + RecoveryEngine — the fault-tolerant datapath's
 * per-bucket HMAC tags, verified inline on every path decode
 * (oram/path_oram.cc). Per-bucket tags (rather than one Merkle root)
 * localize a corruption to the exact bucket so a bounded-retry
 * re-read can recover from TRANSIENT faults (bit flips in transit,
 * stuck bytes that heal); the trusted tag store is O(N) on-chip state,
 * the price of localization. The RecoveryEngine owns the retry budget
 * and the exponential-backoff slot schedule whose cost the
 * RateEnforcer charges into the observable stream as dummy-equivalent
 * occupancy (timing/rate_enforcer.cc) — recovery must not modulate
 * the timing channel.
 */

#ifndef TCORAM_ORAM_INTEGRITY_HH
#define TCORAM_ORAM_INTEGRITY_HH

#include <cstdint>
#include <vector>

#include "common/serial.hh"
#include "crypto/hmac.hh"
#include "crypto/sha256.hh"
#include "oram/path_oram.hh"

namespace tcoram::oram {

class IntegrityVerifier
{
  public:
    /**
     * Build the full hash tree over @p oram's current DRAM image and
     * latch the root digest on chip.
     */
    explicit IntegrityVerifier(const PathOram &oram);

    /**
     * Verify the path to @p leaf against the trusted root: recompute
     * the digests of on-path nodes from the *actual* stored
     * ciphertexts (using stored digests for off-path siblings) and
     * compare to the latched root.
     *
     * @return true iff every on-path bucket is authentic.
     */
    bool verifyPath(Leaf leaf) const;

    /**
     * Re-hash the path to @p leaf after a legitimate ORAM write-back
     * and update the trusted root. Call after every access.
     */
    void commitPath(Leaf leaf);

    /** The on-chip trusted root digest. */
    const crypto::Digest256 &root() const { return root_; }

    /** Bucket indices on the path to @p leaf, root first. */
    std::vector<std::uint64_t> pathIndices(Leaf leaf) const;

  private:
    crypto::Digest256 hashNode(std::uint64_t index) const;

    const PathOram &oram_;
    std::vector<crypto::Digest256> nodeDigests_;
    crypto::Digest256 root_{};
};

/**
 * Per-bucket HMAC-SHA256 tags over (bucket index, nonce, ciphertext).
 * Including the index prevents bucket-swap splices; including the
 * nonce binds the tag to the exact stored version.
 */
class BucketAuthenticator
{
  public:
    /**
     * @param mac_seed seed of the tag HMAC key (derived per tree)
     * @param buckets  tree size; one latched tag per bucket
     */
    BucketAuthenticator(std::uint64_t mac_seed, std::uint64_t buckets);

    /** Recompute and latch the tag of bucket @p index over @p ct. */
    void commit(std::uint64_t index, const crypto::Ciphertext &ct);

    /** Verify @p ct against bucket @p index's latched tag. */
    bool verify(std::uint64_t index, const crypto::Ciphertext &ct) const;


  private:
    crypto::Digest256 tagFor(std::uint64_t index,
                             const crypto::Ciphertext &ct) const;

    std::vector<std::uint8_t> key_;
    std::vector<crypto::Digest256> tags_;
    /** Reused message buffer: tagging must not allocate per bucket. */
    mutable std::vector<std::uint8_t> msgScratch_;
};

/**
 * Bounded-retry recovery policy and its counters. A detected
 * corruption triggers a re-read of the pristine DRAM ciphertext;
 * retry i costs 2^(i-1) backoff slots (exponential backoff), every
 * one of which the enforcer fires as an observable dummy-equivalent
 * slot. Budget exhaustion means the corruption is persistent — not a
 * transient fault — and recovery degrades to fatal-with-context.
 */
class RecoveryEngine
{
  public:
    static constexpr unsigned kDefaultRetryBudget = 4;

    explicit RecoveryEngine(unsigned retry_budget = kDefaultRetryBudget);

    unsigned retryBudget() const { return budget_; }

    /** Backoff slots owed for an access that needed @p retries
     *  retries: sum over i in [1, retries] of 2^(i-1). */
    static std::uint64_t
    backoffSlots(std::uint64_t retries)
    {
        return (std::uint64_t{1} << retries) - 1;
    }

    void recordDetection() { ++detected_; }
    void recordRetry() { ++retries_; }
    void recordRecovery() { ++recovered_; }

    /** Corrupted path decodes detected (one per failed verify pass). */
    std::uint64_t faultsDetected() const { return detected_; }
    /** Re-reads issued. */
    std::uint64_t retriesIssued() const { return retries_; }
    /** Accesses that saw a corruption and still completed. */
    std::uint64_t faultsRecovered() const { return recovered_; }

    /** Checkpoint support. */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    unsigned budget_;
    std::uint64_t detected_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t recovered_ = 0;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_INTEGRITY_HH
