#include "sim/workload_driver.hh"

#include <algorithm>

#include "common/log.hh"
#include "oram/oram_config.hh"

namespace tcoram::sim {

WorkloadReplayRun::WorkloadReplayRun(const WorkloadReplayConfig &cfg)
    : cfg_(cfg)
{
    tcoram_assert(cfg_.shards >= 1, "workload replay needs a shard");
    numBlocks_ = oram::OramConfig::benchConfig().numBlocks;
    ServingStack::Config sc =
        ServingStack::seededBy(cfg_.seed, oram::OramDeviceSpec{});
    sc.shards = cfg_.shards;
    sc.rate = cfg_.rate;
    sc.epoch0 = Cycles{1} << 18;
    sc.opts.threads = cfg_.threads;
    sc.opts.recordLatencies = false;
    stack_ = std::make_unique<ServingStack>(sc);
    source_ = workload::loadWorkload(cfg_.workload);
    const std::uint32_t ranks = source_->ranks();
    tcoram_assert(ranks >= 1, "workload replay: workload has no ranks");
    sessions_.reserve(ranks);
    for (std::uint32_t rank = 0; rank < ranks; ++rank) {
        Session s;
        s.sid = stack_->scheduler().openSession(
            mixSeed(cfg_.seed, 0x5e55'0000ull + rank), -1.0);
        s.rank = rank;
        sessions_.push_back(s);
    }
}

WorkloadReplayRun::~WorkloadReplayRun() = default;

bool
WorkloadReplayRun::submitAccess(Session &s, std::uint64_t key,
                                bool is_write)
{
    const timing::OramTransaction txn = timing::OramTransaction::real(
        key % numBlocks_, is_write, s.sid);
    if (!stack_->scheduler().trySubmit(s.sid, s.clock, txn).has_value())
        return false;
    s.awaiting = true;
    return true;
}

bool
WorkloadReplayRun::advanceSession(Session &s)
{
    using workload::WorkloadOp;
    using workload::WorkloadOpKind;
    for (;;) {
        if (s.scanLeft > 0) {
            const std::uint64_t key = s.scanKey++;
            --s.scanLeft;
            return submitAccess(s, key, false);
        }
        const WorkloadOp op = source_->getNext(s.rank);
        switch (op.kind) {
        case WorkloadOpKind::Think:
            s.clock += op.thinkCycles;
            continue;
        case WorkloadOpKind::End:
            s.ended = true;
            return true;
        case WorkloadOpKind::Get:
            return submitAccess(s, op.key, false);
        case WorkloadOpKind::Put:
            return submitAccess(s, op.key, true);
        case WorkloadOpKind::Scan:
            s.scanKey = op.key;
            s.scanLeft = op.scanLen;
            continue;
        }
    }
}

void
WorkloadReplayRun::run()
{
    tcoram_assert(!ran_, "workload replay already driven");
    ran_ = true;
    RingScheduler &sched = stack_->scheduler();
    for (;;) {
        for (Session &s : sessions_)
            if (!s.ended && !s.awaiting)
                advanceSession(s);
        sched.runUntilIdle();
        SessionRing::Completion c;
        while (sched.lane(0).popCompletion(c)) {
            Session &s = sessions_[c.sessionId];
            tcoram_assert(s.awaiting, "stray completion");
            s.awaiting = false;
            s.clock = std::max(s.clock, c.completion.done);
            s.lastDone = std::max(s.lastDone, c.completion.done);
            ++s.opsDone;
        }
        bool done = true;
        for (const Session &s : sessions_)
            if (!s.ended || s.awaiting) {
                done = false;
                break;
            }
        if (done)
            break;
    }
    Cycles last = 0;
    for (const Session &s : sessions_)
        last = std::max(last, s.lastDone);
    stack_->drainAfter(last);
}

std::uint64_t
WorkloadReplayRun::opsCompleted() const
{
    std::uint64_t n = 0;
    for (const Session &s : sessions_)
        n += s.opsDone;
    return n;
}

} // namespace tcoram::sim
