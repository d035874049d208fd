#include "sim/serving_stack.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace tcoram::sim {

std::optional<OffPeriodGap>
firstOffPeriodGap(std::span<const Cycles> starts, Cycles period)
{
    for (std::size_t j = 1; j < starts.size(); ++j)
        if (starts[j] - starts[j - 1] != period)
            return OffPeriodGap{j, starts[j] - starts[j - 1]};
    return std::nullopt;
}

ServingStack::Config
ServingStack::seededBy(std::uint64_t seed, oram::OramDeviceSpec inner)
{
    Config c;
    c.inner = std::move(inner);
    c.inner.keySeed = mixSeed(seed, 0x0de71ce5ull);
    c.calibSeed = seed;
    c.routeSeed = mixSeed(seed, 0x0072a7e5ull);
    return c;
}

namespace {

protocol::LeakageParams
singleRateParams(Cycles epoch0)
{
    protocol::LeakageParams p;
    p.rateCount = 1;
    p.epoch0 = epoch0;
    return p;
}

} // namespace

ServingStack::ServingStack(const Config &cfg)
    : rate_(cfg.rate), mem_(dram::DramConfig{}), rng_(cfg.calibSeed),
      rates_(std::vector<Cycles>{cfg.rate}),
      schedule_(cfg.epoch0, 2, Cycles{1} << 40), learner_(rates_),
      device_(cfg.inner, cfg.oram, cfg.shards, cfg.routeSeed, mem_, rng_,
              cfg.record),
      sched_(device_, rates_, schedule_, learner_, cfg.rate,
             singleRateParams(cfg.epoch0), cfg.opts)
{
}

Cycles
ServingStack::shardPeriod(std::uint32_t i) const
{
    const timing::OramDeviceIf &dev = device_.shard(i);
    return std::max(rate_ + dev.accessLatency(), dev.occupancyPerAccess());
}

Cycles
ServingStack::period() const
{
    return rate_ + device_.accessLatency();
}

Cycles
ServingStack::drainAfter(Cycles last)
{
    constexpr Cycles kSlackPeriods = 8;
    const Cycles horizon = last + kSlackPeriods * period();
    sched_.drainUntil(horizon);
    return horizon;
}

const timing::RecordingOramDevice &
ServingStack::recorder(std::uint32_t i) const
{
    const timing::RecordingOramDevice *rec = device_.recorder(i);
    tcoram_assert(rec != nullptr, "stream accessors need a recorded stack");
    return *rec;
}

std::vector<ServingStack::Event>
ServingStack::shardStream(std::uint32_t i) const
{
    const timing::RecordingOramDevice &rec = recorder(i);
    std::vector<Event> out;
    out.reserve(rec.records().size());
    for (const auto &r : rec.records())
        out.push_back({r.completion.start,
                       r.kind == timing::OramTransaction::Kind::Real});
    return out;
}

std::vector<Cycles>
ServingStack::shardStarts(std::uint32_t i) const
{
    return recorder(i).startCycles();
}

std::string
ServingStack::streamCsv() const
{
    std::ostringstream os;
    os << "shard,start,kind\n";
    for (std::uint32_t i = 0; i < device_.shardCount(); ++i)
        for (const Event &e : shardStream(i))
            os << i << ',' << e.start << ',' << (e.real ? 'r' : 'd')
               << '\n';
    return os.str();
}

bool
ServingStack::allTokensRetired() const
{
    for (std::size_t l = 0; l < sched_.laneCount(); ++l) {
        const SessionRing &ring = sched_.lane(l);
        if (ring.drained() != ring.submitted() ||
            ring.retiredFence() != ring.submitted())
            return false;
    }
    return true;
}

} // namespace tcoram::sim
