#include "sim/recovery_run.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "oram/oram_config.hh"
#include "sim/checkpoint.hh"

namespace tcoram::sim {

namespace {

/** Deterministic per-(session, k) backlog block id, spread wide so the
 *  PRF router sees distinct blocks (same scheme as the benches). */
std::uint64_t
blockId(std::uint32_t session, std::uint64_t k)
{
    return session * 1'000'003ull + k * 7919ull;
}

/** Largest workload-driven backlog, in accesses (the lane ring holds
 *  all of it). */
constexpr std::uint64_t kMaxWorkloadBacklog = 1u << 24;

/** Probe block ids live in their own sparse range so write-then-read
 *  probes land on blocks the backlog never touched. */
std::uint64_t
probeBlockId(std::uint64_t i)
{
    return 0xbe57'0000ull + i * 104'729ull;
}

} // namespace

RecoveryRun::RecoveryRun(const RecoveryRunConfig &cfg) : cfg_(cfg)
{
    tcoram_assert(cfg_.shards >= 1, "recovery run needs a shard");
    if (workloadDriven())
        materializeWorkload(); // overrides cfg_.sessions to the ranks
    tcoram_assert(cfg_.sessions >= 1, "recovery run needs a session");
    // One lane, sized to hold the whole backlog: start() queues all of
    // it before anything is served.
    ServingStack::Config sc = ServingStack::seededBy(cfg_.seed, cfg_.inner);
    sc.shards = cfg_.shards;
    sc.rate = cfg_.rate;
    sc.epoch0 = cfg_.epoch0;
    sc.opts.ringCapacity = std::max<std::uint64_t>(backlogTotal(), 2);
    stack_ = std::make_unique<ServingStack>(sc);
    // Session 0 carries a finite budget so the shared LeakageMonitor
    // exists and its ledger is exercised (and checkpointed); with a
    // single-rate set each decision reveals lg 1 = 0 bits, so the
    // budget admits and can never be exceeded.
    for (std::uint32_t s = 0; s < cfg_.sessions; ++s)
        stack_->scheduler().openSession(mixSeed(cfg_.seed, 0x5e55ull + s),
                                        s == 0 ? 64.0 : -1.0);
    probeArrival_.assign(cfg_.sessions, cfg_.txnsPerSession);
    // Probe arrivals must stay past every planned arrival (per-session
    // arrival order is asserted at enqueue).
    for (const PlannedOp &op : plan_)
        probeArrival_[op.session] =
            std::max(probeArrival_[op.session], op.arrival + 1);
}

void
RecoveryRun::materializeWorkload()
{
    using workload::WorkloadOp;
    using workload::WorkloadOpKind;
    const auto source = workload::loadWorkload(*cfg_.workload);
    checkpointIntervalOps_ = source->checkpointIntervalOps();
    cfg_.sessions = source->ranks();
    const std::uint64_t blocks = oram::OramConfig::benchConfig().numBlocks;
    // Walk each rank's stream to End, mapping access ops onto blocks
    // (header comment); think time stretches the rank's arrival clock.
    // A checkpointAfter request becomes a served-count mark: serve
    // until servedTotal() hits it, snapshot, continue.
    for (std::uint32_t rank = 0; rank < cfg_.sessions; ++rank) {
        Cycles arrival = 0;
        for (;;) {
            const WorkloadOp op = source->getNext(rank);
            if (op.kind == WorkloadOpKind::End)
                break;
            if (op.kind == WorkloadOpKind::Think) {
                arrival += op.thinkCycles;
                continue;
            }
            const std::uint32_t n =
                op.kind == WorkloadOpKind::Scan ? op.scanLen : 1;
            if (n > kMaxWorkloadBacklog - plan_.size()) {
                tcoram_fatal("workload '", cfg_.workload->method,
                             "': rank ", rank, "'s ", n,
                             "-access op takes the backlog past its "
                             "limit of ", kMaxWorkloadBacklog,
                             " accesses (", plan_.size(), " so far)");
            }
            for (std::uint32_t j = 0; j < n; ++j) {
                plan_.push_back({rank, arrival++, (op.key + j) % blocks,
                                 op.kind == WorkloadOpKind::Put});
            }
            if (op.checkpointAfter)
                marks_.push_back(plan_.size());
        }
    }
    std::sort(marks_.begin(), marks_.end());
    marks_.erase(std::unique(marks_.begin(), marks_.end()), marks_.end());
}

RecoveryRun::~RecoveryRun() = default;

void
RecoveryRun::submit(std::uint32_t session, Cycles arrival,
                    const timing::OramTransaction &txn)
{
    const bool ok =
        stack_->scheduler().trySubmit(session, arrival, txn).has_value();
    tcoram_assert(ok, "recovery backlog overflows its lane");
}

void
RecoveryRun::collect()
{
    SessionRing::Completion c;
    while (stack_->scheduler().lane(0).popCompletion(c))
        lastReal_ = std::max(lastReal_, c.completion.done);
}

void
RecoveryRun::start()
{
    tcoram_assert(!started_, "run already started or restored");
    started_ = true;
    if (workloadDriven()) {
        for (const PlannedOp &op : plan_)
            submit(op.session, op.arrival,
                   timing::OramTransaction::real(op.blockId, op.isWrite,
                                                 op.session));
        return;
    }
    // Open-loop: the whole backlog arrives up front (session s's k-th
    // transaction at cycle k), the saturation regime where every shard
    // serves back-to-back and the slot grid never breaks.
    for (std::uint64_t k = 0; k < cfg_.txnsPerSession; ++k)
        for (std::uint32_t s = 0; s < cfg_.sessions; ++s)
            submit(s, k,
                   timing::OramTransaction::real(blockId(s, k), k % 3 == 0,
                                                 s));
}

bool
RecoveryRun::serveOne()
{
    tcoram_assert(started_, "start() or restoreFrom() first");
    const std::uint64_t served = servedTotal();
    if (stack_->scheduler().runUntilServed(served + 1) == served)
        return false;
    collect();
    return true;
}

Cycles
RecoveryRun::finish()
{
    stack_->scheduler().runUntilIdle();
    collect();
    // The drain horizon is derived from lastReal_, which restoreFrom()
    // reloads — an interrupted-and-restored run and the uninterrupted
    // one compute the identical horizon and hence identical streams.
    return stack_->drainAfter(lastReal_);
}

std::string
RecoveryRun::saveTo(const std::string &path) const
{
    ByteWriter w;
    w.b(started_);
    w.u64(lastReal_);
    w.u64(probeArrival_.size());
    for (const Cycles a : probeArrival_)
        w.u64(a);
    stack_->device().saveState(w);
    stack_->scheduler().saveState(w);
    return saveCheckpoint(path, w.data());
}

std::string
RecoveryRun::restoreFrom(const std::string &path)
{
    tcoram_assert(!started_,
                  "restore must target a freshly constructed run");
    std::vector<std::uint8_t> payload;
    if (std::string err = loadCheckpoint(path, payload); !err.empty())
        return err;
    ByteReader r(payload);
    started_ = r.b();
    lastReal_ = r.u64();
    const std::uint64_t probes = r.u64();
    tcoram_assert(probes == probeArrival_.size(),
                  "snapshot session count mismatch");
    for (Cycles &a : probeArrival_)
        a = r.u64();
    stack_->device().restoreState(r);
    stack_->scheduler().restoreState(r);
    if (!r.atEnd())
        return std::string("checkpoint: payload does not match this "
                           "configuration (decode ") +
               (r.ok() ? "left trailing bytes)" : "overran)");
    return {};
}

std::uint64_t
RecoveryRun::sumFunctional(
    std::uint64_t (oram::FunctionalOramDevice::*counter)() const) const
{
    std::uint64_t n = 0;
    const oram::ShardedOramDevice &array = stack_->device();
    for (std::uint32_t i = 0; i < array.shardCount(); ++i)
        if (const auto *dev = dynamic_cast<const oram::FunctionalOramDevice *>(
                &array.innerDevice(i)))
            n += (dev->*counter)();
    return n;
}

std::uint64_t
RecoveryRun::recoverySlots() const
{
    const RingScheduler &sched = stack_->scheduler();
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < sched.shardCount(); ++i)
        n += sched.shard(i).enforcer().counters().recoverySlots();
    return n;
}

std::uint64_t
RecoveryRun::evictionsIssued() const
{
    return stack_->device().evictionsIssued();
}

std::uint64_t
RecoveryRun::verifyPayloads(std::uint64_t probes)
{
    if (cfg_.inner.kind != "functional")
        return 0; // timing backends move no payloads
    tcoram_assert(started_ && stack_->scheduler().idle(),
                  "probe after the backlog is drained");
    const std::uint64_t bytes = stack_->device().shardConfig().blockBytes;
    std::vector<std::uint8_t> wrote(bytes);
    std::vector<std::uint8_t> read(bytes);
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < probes; ++i) {
        const auto s = static_cast<std::uint32_t>(i % cfg_.sessions);
        const std::uint64_t id = probeBlockId(i);
        for (std::uint64_t j = 0; j < bytes; ++j)
            wrote[j] = static_cast<std::uint8_t>(
                mixSeed(cfg_.seed, i * bytes + j));
        std::fill(read.begin(), read.end(), 0);

        // Write then read back-to-back: the queue is empty, so each
        // submit is served immediately and the span views stay valid.
        timing::OramTransaction wt =
            timing::OramTransaction::real(id, /*is_write=*/true, s);
        wt.data = wrote;
        submit(s, probeArrival_[s]++, wt);
        serveOne();

        timing::OramTransaction rt =
            timing::OramTransaction::real(id, /*is_write=*/false, s);
        rt.out = read;
        submit(s, probeArrival_[s]++, rt);
        serveOne();

        if (read != wrote)
            ++mismatches;
    }
    return mismatches;
}

std::string
RecoveryRun::csvHeader()
{
    return "kind,shards,sessions,txns_per_session,rate,fault_spec,"
           "served,last_real,faults_injected,faults_detected,"
           "faults_recovered,retries,recovery_slots";
}

std::string
RecoveryRun::csvRow() const
{
    std::ostringstream os;
    os << cfg_.inner.kind << ',' << cfg_.shards << ',' << cfg_.sessions
       << ',' << cfg_.txnsPerSession << ',' << cfg_.rate << ','
       << (cfg_.inner.fault.enabled() ? cfg_.inner.fault.toString() : "none")
       << ',' << servedTotal() << ',' << lastReal_ << ',' << faultsInjected()
       << ',' << faultsDetected() << ',' << faultsRecovered() << ','
       << retriesIssued() << ',' << recoverySlots();
    return os.str();
}

} // namespace tcoram::sim
