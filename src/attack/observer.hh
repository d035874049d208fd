/**
 * @file
 * Adversary observation models (paper §3.2, §4.2). The server can
 * watch the processor's I/O pins — or, even without direct probing,
 * detect ORAM accesses by re-reading the ORAM tree's root bucket:
 * every access rewrites the whole path (root included) under
 * probabilistic encryption, so the root's ciphertext changes iff at
 * least one access happened between two reads.
 */

#ifndef TCORAM_ATTACK_OBSERVER_HH
#define TCORAM_ATTACK_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "crypto/ctr.hh"
#include "oram/path_oram.hh"

namespace tcoram::attack {

/**
 * Records the exact start time of every ORAM access — the strongest
 * ("perfect monitoring") adversary the leakage definition assumes.
 */
class TimingTraceRecorder
{
  public:
    void noteAccess(Cycles start) { trace_.push_back(start); }
    const std::vector<Cycles> &trace() const { return trace_; }

    /**
     * Inter-access gaps, the feature the rate-learning attack of
     * Figure 1 consumes.
     */
    std::vector<Cycles> gaps() const;

  private:
    std::vector<Cycles> trace_;
};

/**
 * Root-bucket probe (§3.2): the adversary repeatedly reads the root
 * bucket of a PathOram's DRAM image and reports whether >= 1 access
 * occurred since the previous probe.
 */
class RootBucketProbe
{
  public:
    explicit RootBucketProbe(const oram::PathOram &oram);

    /**
     * Probe now. @return true iff the root ciphertext differs from
     * the previous probe (i.e. >= 1 ORAM access happened in between).
     */
    bool probe();

  private:
    const oram::PathOram &oram_;
    /** Owning copy: the tree image is rewritten under the view. */
    crypto::Ciphertext lastSeen_;
};

} // namespace tcoram::attack

#endif // TCORAM_ATTACK_OBSERVER_HH
