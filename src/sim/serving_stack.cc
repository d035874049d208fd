#include "sim/serving_stack.hh"

#include <sstream>

#include "common/log.hh"
#include "oram/oram_config.hh"

namespace tcoram::sim {

namespace {

oram::OramDeviceSpec
keyed(oram::OramDeviceSpec inner, std::uint64_t seed)
{
    inner.keySeed = mixSeed(seed, 0x0de71ce5ull);
    return inner;
}

protocol::LeakageParams
singleRateParams(Cycles epoch0)
{
    protocol::LeakageParams p;
    p.rateCount = 1;
    p.epoch0 = epoch0;
    return p;
}

} // namespace

ServingStack::ServingStack(oram::OramDeviceSpec inner, std::uint32_t shards,
                           Cycles rate, Cycles epoch0, std::uint64_t seed,
                           const RingScheduler::Options &opts)
    : rate_(rate), mem_(dram::DramConfig{}), rng_(seed),
      rates_(std::vector<Cycles>{rate}),
      schedule_(epoch0, 2, Cycles{1} << 40), learner_(rates_),
      device_(keyed(std::move(inner), seed),
              oram::OramConfig::benchConfig(), shards,
              mixSeed(seed, 0x0072a7e5ull), mem_, rng_, /*record=*/true),
      sched_(device_, rates_, schedule_, learner_, rate,
             singleRateParams(epoch0), opts)
{
}

Cycles
ServingStack::shardPeriod(std::uint32_t i) const
{
    return rate_ + device_.shard(i).accessLatency();
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

std::vector<ServingStack::Event>
ServingStack::shardStream(std::uint32_t i) const
{
    const timing::RecordingOramDevice *rec = device_.recorder(i);
    tcoram_assert(rec != nullptr, "serving stacks always record");
    std::vector<Event> out;
    out.reserve(rec->records().size());
    for (const auto &r : rec->records())
        out.push_back({r.completion.start,
                       r.kind == timing::OramTransaction::Kind::Real});
    return out;
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
