/**
 * @file
 * Machine-readable experiment output: CSV emission for result grids
 * and single runs, so the bench harness's numbers can be diffed,
 * plotted, or regression-tracked without scraping stdout.
 */

#ifndef TCORAM_SIM_REPORT_HH
#define TCORAM_SIM_REPORT_HH

#include <string>

#include "sim/experiment.hh"

namespace tcoram::sim {

/** CSV header matching csvRow(). */
std::string csvHeader();

/** One result as a CSV row (no trailing newline). */
std::string csvRow(const SimResult &r);

/** Serialize a whole grid (header + one row per run, config-major). */
std::string toCsv(const Grid &grid);

/** Write a grid to @p path (fatal on any I/O error, the final flush
 *  included). */
void writeCsv(const Grid &grid, const std::string &path);

} // namespace tcoram::sim

#endif // TCORAM_SIM_REPORT_HH
