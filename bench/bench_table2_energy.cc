/**
 * @file
 * Table 2 reproduction: the 45 nm energy coefficients and the paper's
 * two derived numbers — 0.303 nJ per DRAM cache-line transfer
 * (§9.1.3) and ~984 nJ per full ORAM access (§9.1.4).
 */

#include <cstdio>

#include "bench_common.hh"
#include "common/rng.hh"
#include "dram/dram_model.hh"
#include "oram/oram_device.hh"
#include "power/energy_model.hh"

using namespace tcoram;

int
main()
{
    setQuiet(true);
    const power::EnergyCoefficients c;

    bench::banner("Table 2: processor energy model (45 nm), nJ/event");
    std::printf("ALU/FPU per instruction            %.4f\n", c.aluPerInst);
    std::printf("Reg file int/fp per instruction    %.4f / %.4f\n",
                c.regFileInt, c.regFileFp);
    std::printf("Fetch buffer (256 bits)            %.4f\n", c.fetchBuffer);
    std::printf("L1 I hit/refill (line)             %.3f\n", c.l1iHit);
    std::printf("L1 D hit (64 bits)                 %.3f\n", c.l1dHit);
    std::printf("L1 D refill (line)                 %.3f\n", c.l1dRefill);
    std::printf("L2 hit/refill (line)               %.3f\n", c.l2HitRefill);
    std::printf("L1 I/D leakage per cycle           %.3f / %.3f\n",
                c.l1iLeakPerCycle, c.l1dLeakPerCycle);
    std::printf("L2 leakage per hit/refill          %.3f\n", c.l2LeakPerHit);
    std::printf("AES per 16 B chunk                 %.3f\n", c.aesPerChunk);
    std::printf("Stash per 16 B rd/wr               %.3f\n", c.stashPerChunk);
    std::printf("DRAM ctrl per DRAM cycle           %.3f\n",
                c.dramCtrlPerDramCycle);

    bench::banner("Derived energies");
    std::printf("DRAM line transfer  paper: 0.303 nJ  measured: %.3f nJ\n",
                c.dramLineNj());
    // The paper's composition: 2*758 chunks, 1984 DRAM cycles.
    std::printf("ORAM access (paper inputs 2*758 chunks, 1488 cycles):\n");
    std::printf("                    paper: ~984 nJ   measured: %.1f nJ\n",
                c.oramAccessNj(2 * 758, 1488));

    // And with our own calibrated timing device:
    Rng rng(1);
    dram::DramModel mem{dram::DramConfig{}};
    oram::TimingOramDevice dev(oram::OramConfig::paperConfig(), mem, rng);
    std::printf("ORAM access (our calibration, %llu chunks, %llu cycles):\n",
                (unsigned long long)dev.chunksPerAccess(),
                (unsigned long long)dev.accessLatency());
    std::printf("                                     measured: %.1f nJ\n",
                c.oramAccessNj(dev.chunksPerAccess(),
                               dev.accessLatency()));
    return 0;
}
