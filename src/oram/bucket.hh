/**
 * @file
 * Path ORAM bucket: a fixed-size container of Z block slots, padded
 * with dummies, serialized to a fixed-size byte layout and encrypted
 * with probabilistic (CTR) encryption so that every write-back yields
 * fresh-looking ciphertext (paper §3).
 */

#ifndef TCORAM_ORAM_BUCKET_HH
#define TCORAM_ORAM_BUCKET_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "crypto/ctr.hh"

namespace tcoram::oram {

/** One block slot inside a bucket. */
struct BlockSlot
{
    BlockId id = kInvalidId; ///< kInvalidId marks a dummy slot
    Leaf leaf = 0;
    std::vector<std::uint8_t> payload;

    bool isDummy() const { return id == kInvalidId; }
};

/** Plaintext bucket of exactly Z slots. */
class Bucket
{
  public:
    Bucket(unsigned z, std::uint64_t block_bytes);

    /** Number of real (non-dummy) blocks held. */
    unsigned occupancy() const;
    bool full() const { return occupancy() == slots_.size(); }

    /** Insert a real block; returns false if no dummy slot is free. */
    bool insert(const BlockSlot &slot);

    /** Clear every slot back to dummy. */
    void clear();

    std::vector<BlockSlot> &slots() { return slots_; }
    const std::vector<BlockSlot> &slots() const { return slots_; }

    /** Fixed serialized size: Z * (16-byte header + block payload). */
    std::uint64_t serializedBytes() const;

    /**
     * Serialize to the fixed layout (dummies included). Allocating
     * convenience wrapper over BucketCodec::encode; the ORAM hot path
     * uses the codec directly over arena buffers.
     */
    std::vector<std::uint8_t> serialize() const;

    /** Rebuild from serialize() output. */
    static Bucket deserialize(const std::vector<std::uint8_t> &bytes,
                              unsigned z, std::uint64_t block_bytes);

    /** Serialize then encrypt under @p cipher with @p nonce. */
    crypto::Ciphertext seal(const crypto::CtrCipher &cipher,
                            std::uint64_t nonce) const;

    /** Decrypt and deserialize. */
    static Bucket unseal(const crypto::CiphertextView &ct,
                         const crypto::CtrCipher &cipher, unsigned z,
                         std::uint64_t block_bytes);

  private:
    std::uint64_t blockBytes_;
    std::vector<BlockSlot> slots_;
};

} // namespace tcoram::oram

#endif // TCORAM_ORAM_BUCKET_HH
