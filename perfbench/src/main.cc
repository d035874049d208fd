/**
 * @file
 * tcbench: the repository benchmark binary.
 *
 *   tcbench --workload <fig6_grid|kv_read|kv_write> --seed <n>
 *           --seconds <s> --trace <0|1>
 *
 * Runs one workload for a measured window of --seconds host seconds,
 * checks its outputs, and prints as the last stdout line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. perfbench/run.py builds and invokes it; BENCHMARK.json
 * and perfbench/NOTES.md define every metric.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"
#include "common/log.hh"

using namespace tcbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tcbench: %s\nusage: tcbench --workload "
                 "<fig6_grid|kv_read|kv_write> --seed <n> --seconds <s> "
                 "--trace <0|1>\n",
                 why);
    std::exit(2);
}

void
printJson(const Result &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        // Non-finite values cannot be written as JSON numbers; they
        // only arise from a broken run, which is reported as such.
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "0") != 0;
        } else {
            usage(("unknown flag " + a).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opt.seconds > 0.0) || opt.seconds > 120.0)
        usage("--seconds must be in (0, 120]");

    tcoram::setQuiet(true);
    Result r;
    if (opt.workload == "fig6_grid")
        r = runGrid(opt);
    else if (opt.workload == "kv_read")
        r = runKv(opt, /*write_heavy=*/false);
    else if (opt.workload == "kv_write")
        r = runKv(opt, /*write_heavy=*/true);
    else
        usage(("unknown workload " + opt.workload).c_str());

    for (const std::string &p : r.problems)
        std::printf("FAILED CHECK: %s\n", p.c_str());
    if (r.attempted == 0)
        r.fail("no unit was attempted");
    printJson(r);
    return 0;
}
