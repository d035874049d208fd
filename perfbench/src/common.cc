#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

namespace tcbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
interquartileMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

double
lowerDecile(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 10];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
SpanLog::open(const char *name)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.startNs = nowNs();
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::close(std::size_t id)
{
    Span &s = spans_[id];
    s.endNs = nowNs();
    // Spans close innermost-first (RAII scopes); the stack top is id.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanLog::add(const char *name, Clock::time_point start)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start.time_since_epoch())
                    .count();
    s.endNs = nowNs();
    spans_.push_back(s);
}

void
SpanLog::merge(const SpanLog &other, std::int64_t parent)
{
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
        s.parent = s.parent >= 0 ? s.parent + base : parent;
        spans_.push_back(s);
    }
}

double
SpanLog::totalSeconds(const char *name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (std::strcmp(s.name, name) == 0)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

} // namespace tcbench
