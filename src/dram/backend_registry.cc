#include "dram/backend_registry.hh"

#include <algorithm>

#include "common/log.hh"
#include "dram/dram_model.hh"
#include "dram/flat_memory.hh"

namespace tcoram::dram {

BackendRegistry::BackendRegistry()
{
    entries_.push_back(
        {"flat", [](const BackendSpec &spec) -> std::unique_ptr<MemoryIf> {
             return std::make_unique<FlatMemory>(spec.flatLatency);
         }});
    entries_.push_back(
        {"banked", [](const BackendSpec &spec) -> std::unique_ptr<MemoryIf> {
             return std::make_unique<DramModel>(spec.dram);
         }});
    entries_.push_back(
        {"faulty", [](const BackendSpec &spec) -> std::unique_ptr<MemoryIf> {
             tcoram_assert(spec.faultInner != "faulty",
                           "faulty backend cannot wrap itself");
             BackendSpec inner_spec = spec;
             inner_spec.kind = spec.faultInner;
             return std::make_unique<FaultyMemory>(
                 BackendRegistry::instance().make(inner_spec), spec.fault);
         }});
}

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::registerBackend(const std::string &kind, Factory factory)
{
    tcoram_assert(!kind.empty(), "backend kind must be named");
    tcoram_assert(factory != nullptr, "backend factory must be callable");
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &e : entries_) {
        if (e.kind == kind) {
            e.factory = std::move(factory);
            return;
        }
    }
    entries_.push_back({kind, std::move(factory)});
}

std::unique_ptr<MemoryIf>
BackendRegistry::make(const BackendSpec &spec) const
{
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &e : entries_) {
            if (e.kind == spec.kind) {
                factory = e.factory;
                break;
            }
        }
    }
    if (!factory) {
        tcoram_fatal("unknown memory backend \"", spec.kind,
                     "\" (registered: ", joinNames(kinds()), ")");
    }
    return factory(spec);
}

std::vector<std::string>
BackendRegistry::kinds() const
{
    std::vector<std::string> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.reserve(entries_.size());
        for (const auto &e : entries_)
            out.push_back(e.kind);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::unique_ptr<MemoryIf>
makeMemory(const BackendSpec &spec)
{
    return BackendRegistry::instance().make(spec);
}

} // namespace tcoram::dram
