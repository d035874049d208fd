#include "attack/observer.hh"

namespace tcoram::attack {

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
