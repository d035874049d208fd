/**
 * @file
 * Shared pieces of the repository benchmark: the run options, the
 * result record every workload fills (metrics with units, correctness
 * counts), host-time helpers and the span recorder of traced runs.
 *
 * Spans live only in the benchmark: each one brackets a call into a
 * library layer from here, never code inside the library.
 */

#ifndef TCBENCH_COMMON_HH
#define TCBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <vector>

namespace tcbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Median (mean of the middle pair for even counts); 0 when empty. */
double median(std::vector<double> v);

/**
 * Interquartile mean: the mean of the middle half of the samples
 * (all of them below four). The host-rate estimator: a few outlying
 * repetitions cannot move it, and when a shared host changes speed
 * part-way through a run it averages both stretches instead of
 * jumping to whichever held the majority.
 */
double interquartileMean(std::vector<double> v);

/**
 * Lower decile (nearest rank); 0 when empty. The set-up estimator:
 * set-up is short and memory-bound, and neighbours on a shared host
 * only ever add time to it, in stretches that can cover a whole run,
 * so the fast tenth of many samples is what stays put from run to
 * run while still moving with the work set-up does.
 */
double lowerDecile(std::vector<double> v);

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the measured window (host seconds). */
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one run reports. `attempted`/`failed` count the workload's
 * verification units (grid: cells, KV: ops); `problems` carries a
 * line per failed check, printed before the JSON line.
 */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> problems;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
    /** Verified-correct units / attempted. */
    double okFrac() const
    {
        const std::uint64_t bad = failed < attempted ? failed : attempted;
        return attempted ? static_cast<double>(attempted - bad) /
                               static_cast<double>(attempted)
                         : 0.0;
    }
};

/**
 * In-memory span recorder: name, start, end and the enclosing span,
 * one log per thread. The per-layer metrics are sums over its spans.
 */
class SpanLog
{
  public:
    struct Span
    {
        /** Static-storage name (string literal or interned). */
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        std::int64_t parent = -1;
    };

    /** Open a span nested in the innermost open one; returns its id. */
    std::size_t open(const char *name);
    void close(std::size_t id);
    /** Record a finished span that started at @p start and ends now,
     *  nested in the innermost open span. */
    void add(const char *name, Clock::time_point start);

    double seconds(std::size_t id) const
    {
        return static_cast<double>(spans_[id].endNs - spans_[id].startNs) *
               1e-9;
    }
    const std::vector<Span> &spans() const { return spans_; }

    /** Append another thread's spans (parents re-based); its top-level
     *  spans become children of span @p parent (-1: stay top-level). */
    void merge(const SpanLog &other, std::int64_t parent = -1);

    /** Total seconds of every span named @p name. */
    double totalSeconds(const char *name) const;

    /** RAII span. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name)
            : log_(log), id_(log.open(name))
        {
        }
        ~Scope() { log_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log_;
        std::size_t id_;
    };

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/**
 * Run fn(0) .. fn(n-1) at once: fn(0) on the calling thread, the rest
 * on their own threads. Joins every thread, then rethrows the first
 * exception any of them raised.
 */
template <class Fn>
void
runOnThreads(std::size_t n, Fn &&fn)
{
    std::vector<std::exception_ptr> errors(n);
    auto guarded = [&](std::size_t i) {
        try {
            fn(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t i = 1; i < n; ++i)
        pool.emplace_back(guarded, i);
    guarded(0);
    for (auto &t : pool)
        t.join();
    for (const auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

Result runGrid(const Options &opt);
Result runKv(const Options &opt, bool write_heavy);

} // namespace tcbench

#endif // TCBENCH_COMMON_HH
