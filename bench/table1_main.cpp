/**
 * @file
 * Reproduces Table 1: simulated cycles and dynamic operation counts for
 * all nine workloads under the six runtime configurations (two static
 * stack variants and four work-stealing placement variants).
 *
 * Expected shape (paper): work-stealing matches or beats the static
 * runtime everywhere it applies, with the largest wins on irregular
 * inputs; dynamic instruction counts are higher under work-stealing
 * (spawn/steal overhead and idle-core steal attempts), and higher again
 * with the SPM task queue (failed steals get cheaper, so idle cores
 * issue more of them).
 */

#include "bench/fleet_util.hpp"
#include "bench/rows.hpp"

using namespace spmrt;
using namespace spmrt::bench;

int
main(int argc, char **argv)
{
    Report report("table1_main", argc, argv);
    report.comment("Table 1: cycles (K) and dynamic ops (K) per workload "
                   "and runtime configuration");
    if (quickMode())
        report.comment("QUICK MODE: shrunken inputs");

    // Every (row, configuration) cell is one job of one fleet batch; the
    // cells of a row share its generated input through the batch's asset
    // cache.
    const std::vector<WorkloadRow> rows = table1Rows();
    const std::vector<Variant> variants = table1Variants();
    std::vector<Cell> cells;
    std::vector<std::pair<const WorkloadRow *, const Variant *>> labels;
    for (const WorkloadRow &row : rows) {
        if (!report.wants(row.workload + "/" + row.input))
            continue;
        serve::JobRequest base = serve::makeWorkloadRequest(row.spec);
        base.machine = MachineConfig{}; // the paper's 16x8 machine
        base.armChecker = false;        // a measurement, not an audit
        for (const Variant &variant : variants) {
            if (variant.isStatic && !row.hasStatic)
                continue;
            serve::JobRequest req = base;
            req.name = log::format("table1/%s/%s/%s", row.workload.c_str(),
                                   row.input.c_str(), variant.label);
            applyVariant(req, variant);
            cells.push_back(std::move(req));
            labels.emplace_back(&row, &variant);
        }
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &[row, variant] = labels[i];
        report.row()
            .cell("workload", row->workload)
            .cell("input", row->input)
            .cell("config", variant->label)
            .cell("cycles_k", results[i].job.cycles / 1000.0)
            .cell("ops_k", results[i].instructions / 1000.0)
            .cell("steals", results[i].stealHits)
            .cell("ok", results[i].ok());
    }
    return report.finish();
}
