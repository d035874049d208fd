#include "attack/observer.hh"

namespace tcoram::attack {

std::vector<Cycles>
TimingTraceRecorder::gaps() const
{
    std::vector<Cycles> g;
    for (std::size_t i = 1; i < trace_.size(); ++i)
        g.push_back(trace_[i] - trace_[i - 1]);
    return g;
}

RootBucketProbe::RootBucketProbe(const oram::PathOram &oram) : oram_(oram)
{
    lastSeen_ = oram_.bucketCiphertext(0);
}

bool
RootBucketProbe::probe()
{
    const crypto::Ciphertext &current = oram_.bucketCiphertext(0);
    const bool changed = !(current == lastSeen_);
    lastSeen_ = current;
    return changed;
}

} // namespace tcoram::attack
