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
    lastSeen_ = crypto::Ciphertext::copyOf(oram_.bucketCiphertext(0));
}

bool
RootBucketProbe::probe()
{
    const crypto::CiphertextView current = oram_.bucketCiphertext(0);
    if (current == lastSeen_)
        return false;
    lastSeen_.nonce = current.nonce;
    lastSeen_.data.assign(current.data.begin(), current.data.end());
    return true;
}

} // namespace tcoram::attack
