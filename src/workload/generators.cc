#include "workload/generators.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"

namespace tcoram::workload {

namespace {

/** Smallest n with static_cast<double>(n) >= x, for the fetch-jump
 *  test on an instruction count (exact below 2^53); NaN never fires. */
InstCount
firstCountAtLeast(double x)
{
    if (!(x > 0.0))
        return x <= 0.0 ? 0 : std::numeric_limits<InstCount>::max();
    if (x >= 0x1.0p64)
        return std::numeric_limits<InstCount>::max();
    auto n = static_cast<InstCount>(x);
    if (static_cast<double>(n) < x)
        ++n;
    return n;
}

} // namespace

SyntheticTrace::Draws::Extra
SyntheticTrace::Draws::extraFor(const Phase &p, std::uint32_t g)
{
    const double extra = p.extraCyclesPerInst * static_cast<double>(g);
    Extra e;
    e.whole = static_cast<std::uint32_t>(extra);
    e.oneMore = BernoulliCut(extra - e.whole);
    return e;
}

SyntheticTrace::Draws::Draws(const Phase &p)
    : fetchJumpAfter(firstCountAtLeast(p.instsPerFetchJump)),
      codeLine(std::max<std::uint64_t>(p.codeBytes / 64, 1)),
      gap(std::max(p.instsPerMemOp, 1.0)),
      burst(p.burstProb),
      store(p.storeFraction),
      mayGoCold(p.hotFraction < 1.0),
      hot(p.hotWeight),
      mixTotal(p.mix.stream + p.mix.strided + p.mix.random +
               p.mix.pointerChase),
      lines(std::max<std::uint64_t>(p.workingSetBytes / 64, 1)),
      coldLine(lines),
      stack(p.stackWeight),
      stackWord(std::max<std::uint64_t>(p.stackBytes / 8, p.wordsPerLine))
{
    for (std::uint32_t g = 0; g < kExtraTable; ++g)
        extra[g] = extraFor(p, g);
    const std::uint64_t hot_lines = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(p.hotFraction *
                                   static_cast<double>(lines)),
        1);
    hotWords = hot_lines * p.wordsPerLine;
    hotLine = BoundedDraw(hot_lines);
    lineWord = BoundedDraw(p.wordsPerLine);
}

SyntheticTrace::SyntheticTrace(const Profile &profile, std::uint64_t seed)
    : profile_(profile), rng_(seed)
{
    tcoram_assert(!profile_.phases.empty(), "profile has no phases: ",
                  profile_.name);
    draws_.reserve(profile_.phases.size());
    for (const Phase &p : profile_.phases)
        draws_.emplace_back(p);
    instsLeftInPhase_ = profile_.phases[0].instructions;
}

bool
SyntheticTrace::operator==(const SyntheticTrace &o) const
{
    return profile_ == o.profile_ && rng_ == o.rng_ &&
           phaseIdx_ == o.phaseIdx_ &&
           instsLeftInPhase_ == o.instsLeftInPhase_ &&
           instsSinceFetchJump_ == o.instsSinceFetchJump_ &&
           streamPos_ == o.streamPos_ && coldStreamPos_ == o.coldStreamPos_ &&
           stridePos_ == o.stridePos_ && chasePos_ == o.chasePos_ &&
           fetchPos_ == o.fetchPos_ && burstLeft_ == o.burstLeft_;
}

void
SyntheticTrace::advancePhase(InstCount insts)
{
    if (instsLeftInPhase_ == kInvalidId)
        return;
    if (insts >= instsLeftInPhase_) {
        phaseIdx_ = (phaseIdx_ + 1) % profile_.phases.size();
        instsLeftInPhase_ = phase().instructions;
        // Reset walk positions so each phase starts at its own region.
        streamPos_ = 0;
        coldStreamPos_ = 0;
        stridePos_ = 0;
        chasePos_ = 0;
    } else {
        instsLeftInPhase_ -= insts;
    }
}

Addr
SyntheticTrace::dataAddr(const Phase &p, const Draws &d)
{
    // Hot/cold selection: cold accesses (probability 1 - hotWeight)
    // touch a fresh line somewhere in the full working set — these are
    // the LLC-miss producers. Hot accesses walk a cache-resident
    // region at word granularity, with a slice going to the small
    // stack window, keeping L1 behaviour realistic.
    const bool cold = d.mayGoCold && !d.hot.draw(rng_);

    if (cold) {
        tcoram_assert(d.mixTotal > 0, "empty pattern mix in ",
                      profile_.name);
        double pick = rng_.nextDouble() * d.mixTotal;
        Addr line;
        if ((pick -= p.mix.stream) < 0) {
            line = coldStreamPos_++ % d.lines;
        } else if ((pick -= p.mix.strided) < 0) {
            coldStreamPos_ += p.strideBytes / 64 ? p.strideBytes / 64 : 1;
            line = coldStreamPos_ % d.lines;
        } else if ((pick -= p.mix.random) < 0) {
            line = d.coldLine.draw(rng_);
        } else {
            // Pointer chase: the next element depends on the current
            // one, a dependent-miss chain.
            chasePos_ = chasePos_ * 6364136223846793005ull +
                        1442695040888963407ull;
            line = chasePos_ % d.lines;
        }
        return profile_.dataBase + line * 64;
    }

    // Stack/locals slice: revisits a tiny window (L1-resident).
    if (d.stack.draw(rng_))
        return profile_.dataBase + d.stackWord.draw(rng_) * 8;

    // Hot walk at word granularity over the hot region.
    tcoram_assert(d.mixTotal > 0, "empty pattern mix in ", profile_.name);
    double pick = rng_.nextDouble() * d.mixTotal;
    std::uint64_t word_offset;
    if ((pick -= p.mix.stream) < 0) {
        word_offset = streamPos_++ % d.hotWords;
    } else if ((pick -= p.mix.strided) < 0) {
        stridePos_ += std::max<std::uint64_t>(p.strideBytes / 8, 1);
        word_offset = stridePos_ % d.hotWords;
    } else if ((pick -= p.mix.random) < 0) {
        // Random hot references show spatial reuse too: pick a line,
        // then a word within it (two draws, in that order).
        const std::uint64_t hot_line = d.hotLine.draw(rng_);
        word_offset = hot_line * p.wordsPerLine + d.lineWord.draw(rng_);
    } else {
        chasePos_ =
            chasePos_ * 6364136223846793005ull + 1442695040888963407ull;
        word_offset = chasePos_ % d.hotWords;
    }
    return profile_.dataBase + word_offset * 8;
}

TraceOp
SyntheticTrace::next()
{
    const Phase &p = phase();
    Draws &d = draws_[phaseIdx_];
    TraceOp op;

    // Instruction-fetch discontinuity? Modeled as its own trace record
    // so the L1I sees non-sequential lines at the profile's jump rate.
    ++instsSinceFetchJump_;
    if (instsSinceFetchJump_ >= d.fetchJumpAfter && d.fetchJump.draw(rng_)) {
        instsSinceFetchJump_ = 0;
        fetchPos_ = d.codeLine.draw(rng_);
        op.gapInsts = 1;
        op.extraGapCycles = 0;
        op.addr = fetchPos_ * 64; // code segment at address 0
        op.kind = OpKind::InstFetch;
        advancePhase(op.gapInsts);
        return op;
    }

    // Gap until the next data access.
    std::uint64_t gap;
    if (burstLeft_ > 0) {
        --burstLeft_;
        gap = 1;
    } else {
        gap = d.gap.draw(rng_);
        if (d.burst.draw(rng_))
            burstLeft_ = p.burstLen;
    }
    op.gapInsts = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        gap, std::numeric_limits<std::uint32_t>::max()));

    // Extra gap cycles: long-latency instructions inside the gap.
    const Draws::Extra extra = op.gapInsts < kExtraTable
                                   ? d.extra[op.gapInsts]
                                   : Draws::extraFor(p, op.gapInsts);
    op.extraGapCycles = extra.whole + (extra.oneMore.draw(rng_) ? 1u : 0u);

    op.addr = dataAddr(p, d);
    op.kind = d.store.draw(rng_) ? OpKind::Store : OpKind::Load;
    advancePhase(op.gapInsts);
    return op;
}

} // namespace tcoram::workload
