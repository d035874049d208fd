/**
 * @file
 * Table 1 reproduction: dump the timing model the simulator actually
 * instantiates (core, on-chip memory, memory system) and the derived
 * ORAM figures the paper quotes in §9.1.2 — 1488-cycle access latency
 * and 24.2 KB moved per access.
 */

#include <cstdio>

#include "bench_common.hh"
#include "cache/cache_config.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"

using namespace tcoram;

int
main()
{
    setQuiet(true);
    bench::banner("Table 1: timing model (processor clock = 1 GHz)");

    const auto l1i = cache::l1IConfig();
    const auto l1d = cache::l1DConfig();
    const auto l2 = cache::l2Config();
    std::printf("Core model                         in-order, single-issue\n");
    std::printf("Write buffer                       8 entries, non-blocking\n");
    std::printf("L1 I cache                         %llu KB, %u-way, hit+miss %llu+%llu\n",
                (unsigned long long)(l1i.sizeBytes >> 10), l1i.ways,
                (unsigned long long)l1i.hitLatency,
                (unsigned long long)l1i.missLatency);
    std::printf("L1 D cache                         %llu KB, %u-way, hit+miss %llu+%llu\n",
                (unsigned long long)(l1d.sizeBytes >> 10), l1d.ways,
                (unsigned long long)l1d.hitLatency,
                (unsigned long long)l1d.missLatency);
    std::printf("Unified/inclusive L2 (LLC)         %llu KB, %u-way, hit+miss %llu+%llu\n",
                (unsigned long long)(l2.sizeBytes >> 10), l2.ways,
                (unsigned long long)l2.hitLatency,
                (unsigned long long)l2.missLatency);
    std::printf("Cache/ORAM block size              64 Bytes\n");

    const dram::DramConfig dc;
    std::printf("DRAM channels                      %u\n", dc.channels);
    std::printf("Banks per channel                  %u\n", dc.banksPerChannel);
    std::printf("Off-chip pin bandwidth             %llu Bytes/DRAM cycle\n",
                (unsigned long long)dc.bytesPerCycle);
    std::printf("DRAM cycles per CPU cycle          %.3f\n",
                dc.dramCyclesPerCpuCycle);
    std::printf("DDR timing (tRCD/tCAS/tRP/tRAS)    %u/%u/%u/%u\n", dc.tRCD,
                dc.tCAS, dc.tRP, dc.tRAS);
    std::printf("base_dram flat latency             40 cycles\n");

    bench::banner("Derived ORAM figures (paper §9.1.2)");
    const auto oc = oram::OramConfig::paperConfig();
    Rng rng(1);
    dram::DramModel mem(dc);
    oram::TimingOramDevice dev(oc, mem, rng);
    std::printf("ORAM capacity                      %llu blocks (4 GB)\n",
                (unsigned long long)oc.numBlocks);
    std::printf("Z (blocks/bucket)                  %u\n", oc.z);
    std::printf("Recursion levels                   %zu (32 B blocks)\n",
                oc.recursionChain().size());
    std::printf("Data-tree depth                    %u\n", oc.treeDepth());
    std::printf("Bytes per access   paper: 24.2 KB  measured: %.1f KB\n",
                static_cast<double>(dev.bytesPerAccess()) / 1024.0);
    std::printf("Access latency     paper: 1488 cy  measured: %llu cy\n",
                (unsigned long long)dev.accessLatency());
    return 0;
}
