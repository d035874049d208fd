#include "sim/system_config.hh"

#include <sstream>

#include "oram/oram_device.hh"

namespace tcoram::sim {

dram::BackendSpec
SystemConfig::memorySpec() const
{
    // base_dram's flat latency is BackendSpec's default (§9.1.2).
    dram::BackendSpec spec;
    switch (scheme) {
      case Scheme::BaseDram:
        spec.kind = "flat";
        break;
      case Scheme::ProtectedDram:
        // §10 variant: public-state (closed-page) row buffers.
        spec.kind = "banked";
        spec.dram.closedPage = true;
        break;
      default:
        spec.kind = "banked";
        break;
    }
    // Timing-fault kinds (delay/refuse) live in the memory layer: wrap
    // the scheme's backend in the FaultyMemory decorator. Data kinds
    // are the functional datapath's job and do not touch the memory
    // spec.
    const dram::FaultSpec &fault = device.fault;
    if (fault.enabled() && fault.has(dram::kFaultTimingMask)) {
        spec.faultInner = spec.kind;
        spec.kind = "faulty";
        spec.fault = fault;
        // Keep only the kinds this layer injects; the datapath arms
        // flip/stuck from the same parsed spec independently.
        spec.fault.kinds &= dram::kFaultTimingMask;
    }
    return spec;
}

SystemConfig
SystemConfig::baseDram()
{
    SystemConfig c;
    c.name = "base_dram";
    c.scheme = Scheme::BaseDram;
    return c;
}

SystemConfig
SystemConfig::baseOram()
{
    SystemConfig c;
    c.name = "base_oram";
    c.scheme = Scheme::BaseOram;
    return c;
}

SystemConfig
SystemConfig::staticScheme(Cycles rate)
{
    SystemConfig c;
    c.scheme = Scheme::Static;
    c.staticRate = rate;
    c.initialRate = rate;
    std::ostringstream os;
    os << "static_" << rate;
    c.name = os.str();
    return c;
}

SystemConfig
SystemConfig::dynamicScheme(std::size_t rate_count, unsigned epoch_growth)
{
    SystemConfig c;
    c.scheme = Scheme::Dynamic;
    c.rateCount = rate_count;
    c.epochGrowth = epoch_growth;
    std::ostringstream os;
    os << "dynamic_R" << rate_count << "_E" << epoch_growth;
    c.name = os.str();
    return c;
}

SystemConfig
SystemConfig::protectedDram(std::size_t rate_count, unsigned epoch_growth)
{
    SystemConfig c = dynamicScheme(rate_count, epoch_growth);
    c.scheme = Scheme::ProtectedDram;
    // DRAM accesses are ~40 cycles, not ~1500: the useful rate band
    // sits proportionally lower (idle slot cost is one line transfer).
    c.rateLo = 32;
    c.rateHi = 4096;
    c.initialRate = 512;
    std::ostringstream os;
    os << "protected_dram_R" << rate_count << "_E" << epoch_growth;
    c.name = os.str();
    return c;
}

} // namespace tcoram::sim
