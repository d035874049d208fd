/**
 * @file
 * Named-scalar export of the KV-serving counters (gem5-style stats
 * dump), for regression tracking and ad-hoc inspection.
 */

#ifndef TCORAM_SIM_STAT_DUMP_HH
#define TCORAM_SIM_STAT_DUMP_HH

#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "sim/kv_backend.hh"

namespace tcoram::sim {

/**
 * Flatten KV-serving counters into kv.* keys (hit/miss, spill
 * counts, probe depth, p99 latencies). The latency arguments come
 * from the harness (KvServingRun::getLatencyPercentile) because the
 * samples live there, not in KVStats.
 */
StatDump toStatDump(const KVStats &s, Cycles get_p99 = 0,
                    Cycles put_p99 = 0);

/** The kv.* dump rendered through the columnar stat plane
 *  (sim/column_batch.hh): one (stat, value) row per key, emitted in
 *  key order with byte-stable classic-locale formatting. */
std::string kvStatsCsv(const KVStats &s, Cycles get_p99 = 0,
                       Cycles put_p99 = 0);

} // namespace tcoram::sim

#endif // TCORAM_SIM_STAT_DUMP_HH
