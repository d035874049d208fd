#include "workload/workload_source.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>

#include "common/log.hh"
#include "common/rng.hh"
#include "workload/generators.hh"
#include "workload/op_trace.hh"
#include "workload/spec_suite.hh"

namespace tcoram::workload {

const char *
toString(WorkloadOpKind kind)
{
    switch (kind) {
    case WorkloadOpKind::Get:
        return "get";
    case WorkloadOpKind::Put:
        return "put";
    case WorkloadOpKind::Scan:
        return "scan";
    case WorkloadOpKind::Think:
        return "think";
    case WorkloadOpKind::End:
        return "end";
    }
    return "?";
}

namespace {

/**
 * Adapter over the Profile/SyntheticTrace generators: each TraceOp
 * becomes an optional Think (the instruction gap) followed by one
 * access op — loads and fetches read, stores write. Keys are 64-byte
 * line ids, the granularity the LLC-miss stream hits the ORAM at.
 */
class SyntheticWorkload : public WorkloadSource
{
  public:
    explicit SyntheticWorkload(const WorkloadParams &params)
        : WorkloadSource(params)
    {
        const Profile profile = specProfile(params_.profile);
        states_.reserve(params_.ranks);
        for (std::uint32_t rank = 0; rank < params_.ranks; ++rank)
            states_.emplace_back(profile, mixSeed(params_.seed, rank));
    }

    const char *method() const override { return "synthetic"; }

    WorkloadOp
    getNext(std::uint32_t rank) override
    {
        tcoram_assert(rank < states_.size(), "unknown rank ", rank);
        RankState &st = states_[rank];
        if (st.emitted >= params_.opsPerRank)
            return WorkloadOp::end();
        if (st.pending) {
            const WorkloadOp op = *st.pending;
            st.pending.reset();
            ++st.emitted;
            return op;
        }
        const TraceOp t = st.trace.next();
        WorkloadOp access =
            t.kind == OpKind::Store
                ? WorkloadOp::put(t.addr >> 6, params_.valueBytes)
                : WorkloadOp::get(t.addr >> 6);
        const std::uint64_t gap =
            static_cast<std::uint64_t>(t.gapInsts) + t.extraGapCycles;
        if (gap > 0) {
            st.pending = access;
            return WorkloadOp::think(gap);
        }
        ++st.emitted;
        return access;
    }

  private:
    struct RankState
    {
        RankState(const Profile &profile, std::uint64_t seed)
            : trace(profile, seed)
        {
        }

        SyntheticTrace trace;
        std::uint64_t emitted = 0;
        std::optional<WorkloadOp> pending;
    };

    std::vector<RankState> states_;
};

/** Replays a recorded op-trace file (workload/op_trace.hh). */
class TraceReplayWorkload : public WorkloadSource
{
  public:
    TraceReplayWorkload(const WorkloadParams &params, OpTrace trace)
        : WorkloadSource(params), trace_(std::move(trace)),
          cursors_(trace_.rankCount(), 0)
    {
        // The file's rank count IS the source's rank count.
        params_.ranks = trace_.rankCount();
    }

    const char *method() const override { return "trace"; }

    WorkloadOp
    getNext(std::uint32_t rank) override
    {
        tcoram_assert(rank < cursors_.size(), "unknown rank ", rank);
        const auto &ops = trace_.ops[rank];
        if (cursors_[rank] >= ops.size())
            return WorkloadOp::end();
        return ops[cursors_[rank]++];
    }

  private:
    OpTrace trace_;
    std::vector<std::size_t> cursors_;
};

/**
 * Skewed-popularity closed-loop KV client: Zipf(theta) keys over
 * [0, keySpace), a get/scan/put split, value sizes spanning
 * [1, 2*valueBytes) so both inline and spilled records are exercised,
 * and optional geometric think times between access ops.
 *
 * The Zipf draw is the standard Gray et al. inverse-CDF
 * approximation: one uniform draw per key, no per-key tables beyond
 * the zeta normalizer computed once at load.
 */
class KvClientWorkload : public WorkloadSource
{
  public:
    explicit KvClientWorkload(const WorkloadParams &params)
        : WorkloadSource(params)
    {
        tcoram_assert(params_.keySpace >= 1, "kv workload: empty key space");
        tcoram_assert(params_.zipfTheta >= 0.0 && params_.zipfTheta < 1.0,
                      "kv workload: zipf theta ", params_.zipfTheta,
                      " outside [0, 1)");
        tcoram_assert(params_.getFraction >= 0.0 &&
                          params_.getFraction + params_.scanFraction <= 1.0,
                      "kv workload: get + scan fractions exceed 1");
        const double theta = params_.zipfTheta;
        const auto n = static_cast<double>(params_.keySpace);
        if (theta > 0.0 && params_.keySpace > 1) {
            zetan_ = 0.0;
            for (std::uint64_t i = 1; i <= params_.keySpace; ++i)
                zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
            const double zeta2 = 1.0 + std::pow(0.5, theta);
            alpha_ = 1.0 / (1.0 - theta);
            eta_ = (1.0 - std::pow(2.0 / n, 1.0 - theta)) /
                   (1.0 - zeta2 / zetan_);
        }
        states_.reserve(params_.ranks);
        for (std::uint32_t rank = 0; rank < params_.ranks; ++rank)
            states_.push_back(
                RankState{Rng(mixSeed(params_.seed, 0x6b76'0000ull + rank))});
    }

    const char *method() const override { return "kv"; }

    WorkloadOp
    getNext(std::uint32_t rank) override
    {
        tcoram_assert(rank < states_.size(), "unknown rank ", rank);
        RankState &st = states_[rank];
        if (st.emitted >= params_.opsPerRank)
            return WorkloadOp::end();
        if (params_.thinkCycles > 0 && st.thinkNext) {
            st.thinkNext = false;
            return WorkloadOp::think(
                st.rng.nextGeometric(
                    static_cast<double>(params_.thinkCycles)));
        }
        st.thinkNext = true;
        ++st.emitted;
        // Fixed draw order (selector, key, size) keeps the stream a
        // pure function of (params, rank) whatever the op mix.
        const double sel = st.rng.nextDouble();
        const std::uint64_t key = zipfDraw(st.rng);
        if (sel < params_.getFraction)
            return WorkloadOp::get(key);
        if (sel < params_.getFraction + params_.scanFraction) {
            const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                params_.scanLen, params_.keySpace - key));
            return WorkloadOp::scan(key, std::max<std::uint32_t>(len, 1));
        }
        const std::uint32_t bytes =
            1 + static_cast<std::uint32_t>(st.rng.nextBounded(
                    std::max<std::uint64_t>(
                        2ull * params_.valueBytes - 1, 1)));
        return WorkloadOp::put(key, bytes);
    }

  private:
    struct RankState
    {
        Rng rng;
        std::uint64_t emitted = 0;
        bool thinkNext = false;
    };

    std::uint64_t
    zipfDraw(Rng &rng) const
    {
        if (params_.zipfTheta == 0.0 || params_.keySpace == 1)
            return rng.nextBounded(params_.keySpace);
        const double u = rng.nextDouble();
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, params_.zipfTheta))
            return 1;
        const auto n = static_cast<double>(params_.keySpace);
        const auto k = static_cast<std::uint64_t>(
            n * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return std::min(k, params_.keySpace - 1);
    }

    double zetan_ = 1.0;
    double alpha_ = 1.0;
    double eta_ = 0.0;
    std::vector<RankState> states_;
};

/**
 * Daly-style checkpoint workload: steady per-rank write streams with
 * checkpointAfter markers on Daly's first-order optimum interval
 * t_opt = sqrt(2*delta*M) - delta (t_opt = M once delta >= M/2),
 * converted to ops via the modeled per-op cost. The harness snapshots
 * the PR 7 RecoveryRun chain at each marker.
 */
class DalyWorkload : public WorkloadSource
{
  public:
    explicit DalyWorkload(const WorkloadParams &params)
        : WorkloadSource(params)
    {
        tcoram_assert(params_.mttiCycles > 0.0,
                      "daly workload: MTTI must be positive");
        tcoram_assert(params_.opCycles > 0,
                      "daly workload: op cost must be positive");
        const auto delta = static_cast<double>(params_.checkpointCycles);
        const double m = params_.mttiCycles;
        const double topt =
            delta < m / 2.0 ? std::sqrt(2.0 * delta * m) - delta : m;
        intervalOps_ = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::llround(topt /
                                static_cast<double>(params_.opCycles))));
        emitted_.assign(params_.ranks, 0);
    }

    const char *method() const override { return "daly"; }

    WorkloadOp
    getNext(std::uint32_t rank) override
    {
        tcoram_assert(rank < emitted_.size(), "unknown rank ", rank);
        std::uint64_t &emitted = emitted_[rank];
        if (emitted >= params_.opsPerRank)
            return WorkloadOp::end();
        // Per-rank sequential keys: the checkpoint chain is about
        // state volume and cadence, not popularity skew.
        WorkloadOp op = WorkloadOp::put(
            (static_cast<std::uint64_t>(rank) << 32) | emitted,
            params_.valueBytes);
        ++emitted;
        if (emitted % intervalOps_ == 0)
            op.checkpointAfter = true;
        return op;
    }

    std::uint64_t checkpointIntervalOps() const override
    {
        return intervalOps_;
    }

  private:
    std::uint64_t intervalOps_ = 1;
    std::vector<std::uint64_t> emitted_;
};

/** @p value as an unsigned integer no larger than @p max; dies naming
 *  the spec and the key on a sign, junk or a value out of range. */
std::uint64_t
parseU64(const std::string &spec, const std::string &key,
         const std::string &value,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || value[0] < '0' || value[0] > '9' || *end != '\0')
        tcoram_fatal("workload spec '", spec, "': key '", key,
                     "' wants an unsigned integer, got '", value, "'");
    if (errno == ERANGE || v > max)
        tcoram_fatal("workload spec '", spec, "': key '", key,
                     "' must be at most ", max, ", got '", value, "'");
    return v;
}

std::uint32_t
parseU32(const std::string &spec, const std::string &key,
         const std::string &value)
{
    return static_cast<std::uint32_t>(parseU64(
        spec, key, value, std::numeric_limits<std::uint32_t>::max()));
}

double
parseF64(const std::string &spec, const std::string &key,
         const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        tcoram_fatal("workload spec '", spec, "': key '", key,
                     "' wants a number, got '", value, "'");
    return v;
}

} // namespace

WorkloadRegistry::WorkloadRegistry()
{
    registerMethod("synthetic", [](const WorkloadParams &p) {
        return std::make_unique<SyntheticWorkload>(p);
    });
    registerMethod("trace", [](const WorkloadParams &p)
                                -> std::unique_ptr<WorkloadSource> {
        if (p.path.empty())
            tcoram_fatal("workload method 'trace' needs path=<file>");
        OpTrace trace;
        if (const std::string err = readOpTrace(p.path, trace);
            !err.empty())
            tcoram_fatal("workload method 'trace': ", err);
        return std::make_unique<TraceReplayWorkload>(p, std::move(trace));
    });
    registerMethod("kv", [](const WorkloadParams &p) {
        return std::make_unique<KvClientWorkload>(p);
    });
    registerMethod("daly", [](const WorkloadParams &p) {
        return std::make_unique<DalyWorkload>(p);
    });
}

WorkloadRegistry &
WorkloadRegistry::instance()
{
    static WorkloadRegistry registry;
    return registry;
}

void
WorkloadRegistry::registerMethod(const std::string &method, Factory factory)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[method] = std::move(factory);
}

std::unique_ptr<WorkloadSource>
WorkloadRegistry::load(const WorkloadParams &params) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(params.method);
        if (it == entries_.end()) {
            std::vector<std::string> names;
            names.reserve(entries_.size());
            for (const auto &[method, factory] : entries_)
                names.push_back(method);
            std::sort(names.begin(), names.end());
            std::string known;
            for (const std::string &m : names)
                known += (known.empty() ? "" : ", ") + m;
            tcoram_fatal("unknown workload method '", params.method,
                         "' (known: ", known, ")");
        }
        factory = it->second;
    }
    return factory(params);
}

bool
WorkloadRegistry::contains(const std::string &method) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.find(method) != entries_.end();
}

std::vector<std::string>
WorkloadRegistry::methods() const
{
    std::vector<std::string> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.reserve(entries_.size());
        for (const auto &[method, factory] : entries_)
            out.push_back(method);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::unique_ptr<WorkloadSource>
loadWorkload(const WorkloadParams &params)
{
    return WorkloadRegistry::instance().load(params);
}

WorkloadParams
parseWorkloadSpec(const std::string &spec)
{
    WorkloadParams params;
    const std::size_t colon = spec.find(':');
    params.method = spec.substr(0, colon);
    if (params.method.empty())
        tcoram_fatal("workload spec '", spec, "': empty method");
    if (!WorkloadRegistry::instance().contains(params.method)) {
        std::string known;
        for (const std::string &m : WorkloadRegistry::instance().methods())
            known += (known.empty() ? "" : ", ") + m;
        tcoram_fatal("workload spec '", spec, "': unknown method '",
                     params.method, "' (known: ", known, ")");
    }
    std::string rest =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string item = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos)
            tcoram_fatal("workload spec '", spec, "': item '", item,
                         "' is not key=value");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "seed")
            params.seed = parseU64(spec, key, value);
        else if (key == "ranks")
            params.ranks = parseU32(spec, key, value);
        else if (key == "ops")
            params.opsPerRank = parseU64(spec, key, value);
        else if (key == "profile")
            params.profile = value;
        else if (key == "path")
            params.path = value;
        else if (key == "keys")
            params.keySpace = parseU64(spec, key, value);
        else if (key == "theta")
            params.zipfTheta = parseF64(spec, key, value);
        else if (key == "get")
            params.getFraction = parseF64(spec, key, value);
        else if (key == "scan")
            params.scanFraction = parseF64(spec, key, value);
        else if (key == "scanlen")
            params.scanLen = parseU32(spec, key, value);
        else if (key == "value")
            params.valueBytes = parseU32(spec, key, value);
        else if (key == "think")
            params.thinkCycles = parseU64(spec, key, value);
        else if (key == "mtti")
            params.mttiCycles = parseF64(spec, key, value);
        else if (key == "delta")
            params.checkpointCycles = parseU64(spec, key, value);
        else if (key == "opcycles")
            params.opCycles = parseU64(spec, key, value);
        else
            tcoram_fatal("workload spec '", spec, "': unknown key '", key,
                         "'");
    }
    if (params.ranks == 0)
        tcoram_fatal("workload spec '", spec, "': ranks must be >= 1");
    return params;
}

std::uint32_t
observedBurstDepth(const WorkloadParams &params, std::uint32_t cap,
                   std::uint64_t scanOps)
{
    tcoram_assert(cap >= 1, "burst-depth cap must be >= 1");
    const std::unique_ptr<WorkloadSource> source = loadWorkload(params);
    std::uint64_t max_run = 1;
    for (std::uint32_t rank = 0; rank < source->ranks(); ++rank) {
        std::uint64_t run = 0;
        for (std::uint64_t i = 0; i < scanOps; ++i) {
            const WorkloadOp op = source->getNext(rank);
            if (op.kind == WorkloadOpKind::End)
                break;
            if (op.kind == WorkloadOpKind::Think) {
                run = 0;
                continue;
            }
            run += op.kind == WorkloadOpKind::Scan ? op.scanLen : 1;
            max_run = std::max(max_run, run);
        }
    }
    const std::uint64_t depth = max_run * source->ranks();
    return static_cast<std::uint32_t>(
        std::clamp<std::uint64_t>(depth, 1, cap));
}

} // namespace tcoram::workload
