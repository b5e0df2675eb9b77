/**
 * @file
 * Tabular heatmap snapshots with CSV export.
 *
 * A Heatmap is a labelled integer table — one row per spatial element
 * (NoC link, LLC bank), one column per metric — snapshotted from live
 * model counters so Fig. 6-style hot-spot plots regenerate from data
 * instead of aggregates. Producers: MeshNoc::linkHeatmap() (per-link
 * occupancy: flits, queueing wait, backlog) and LlcModel::bankHeatmap()
 * (per-bank contention: accesses, hits, misses, queueing wait).
 */

#ifndef SPMRT_OBS_HEATMAP_HPP
#define SPMRT_OBS_HEATMAP_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace spmrt {
namespace obs {

/**
 * One snapshot table. The first CSV column is the row label; the
 * remaining columns are the registered metric names.
 */
struct Heatmap
{
    std::string labelColumn;          ///< header of the label column
    std::vector<std::string> columns; ///< metric column headers
    std::vector<std::string> labels;  ///< one per row
    std::vector<std::vector<uint64_t>> rows; ///< values, columns.size() each

    /** Append one row (label + values, one per column). */
    void
    addRow(std::string label, std::vector<uint64_t> values)
    {
        labels.push_back(std::move(label));
        rows.push_back(std::move(values));
    }

    /** CSV text: header line, then one line per row. */
    std::string csv() const;
    /** Write csv() to @p path; false (with a warning) on failure. */
    bool writeCsv(const std::string &path) const;
};

} // namespace obs
} // namespace spmrt

#endif // SPMRT_OBS_HEATMAP_HPP
