/**
 * @file
 * Memory-backend registry: maps a backend kind name to a factory so
 * the sim layer (and any future front-end) selects its main memory by
 * configuration instead of hard-coded constructor calls. Built-ins:
 *
 *   "flat"   — fixed-latency insecure DRAM (FlatMemory)
 *   "banked" — banked multi-channel DDR3 model (DramModel)
 *   "faulty" — FaultyMemory fault injector wrapping faultInner
 *
 * SystemConfig::memorySpec() picks the kind from the scheme and the
 * fault spec. To substitute a backend, re-register one of those kinds
 * at program start (perfbench wraps "flat" and "banked" in counting
 * decorators this way); every later make() of that kind gets it.
 */

#ifndef TCORAM_DRAM_BACKEND_REGISTRY_HH
#define TCORAM_DRAM_BACKEND_REGISTRY_HH

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dram/dram_config.hh"
#include "dram/faulty_memory.hh"
#include "dram/memory_if.hh"

namespace tcoram::dram {

/**
 * Everything a backend factory may need; derived from SystemConfig by
 * the sim layer (kept here so the dram layer stays below sim in the
 * dependency order).
 */
struct BackendSpec
{
    std::string kind = "banked";
    /** FlatMemory access latency (the base_dram baseline, §9.1.2). */
    Cycles flatLatency = 40;
    /** Banked-model geometry/timing. */
    DramConfig dram;
    /** For "faulty": the injected fault configuration. */
    FaultSpec fault;
    /** For "faulty": the wrapped backend's kind (must not be "faulty"). */
    std::string faultInner = "banked";
};

class BackendRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<MemoryIf>(const BackendSpec &)>;

    /** The process-wide registry (built-ins pre-registered). */
    static BackendRegistry &instance();

    /** Register @p kind; replaces any previous factory of that name. */
    void registerBackend(const std::string &kind, Factory factory);

    /** Instantiate spec.kind (fatal on unknown kind). */
    std::unique_ptr<MemoryIf> make(const BackendSpec &spec) const;

    /** Registered kind names, sorted. */
    std::vector<std::string> kinds() const;

  private:
    BackendRegistry();

    struct Entry
    {
        std::string kind;
        Factory factory;
    };
    /** Guards entries_: parallel experiment workers make() concurrently. */
    mutable std::mutex mutex_;
    std::vector<Entry> entries_;
};

/** Convenience: BackendRegistry::instance().make(spec). */
std::unique_ptr<MemoryIf> makeMemory(const BackendSpec &spec);

} // namespace tcoram::dram

#endif // TCORAM_DRAM_BACKEND_REGISTRY_HH
