/**
 * @file
 * Reproduces Fig. 9: speedup of every runtime configuration over the
 * static runtime with stack in SPM, for the workloads that have a static
 * baseline.
 *
 * Every (workload, variant) cell is one job of the bench's fleet batch
 * (fleet_util.hpp's runCells); static cells run the static runtime via
 * JobRequest::staticRuntime, and each result is checked against the
 * registry's digest.
 *
 * Expected shape (paper): 1.2x-28.5x speedups for irregular inputs
 * (PageRank/BFS/SpMV/SpMT on skewed inputs, NQueens, UTS), minimal
 * overhead or slight gains on balanced ones (MatMul, uniform graphs);
 * the SPM placement variants add up to ~25% over the naive runtime.
 */

#include "bench/fleet_util.hpp"
#include "bench/rows.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** One Fig. 9 cell (workload x runtime variant) as a fleet job. */
serve::JobRequest
cellRequest(const WorkloadRow &row, const Variant &variant,
            const MachineConfig &machine_cfg)
{
    serve::JobRequest req = serve::makeWorkloadRequest(row.spec);
    req.name = log::format("fig09/%s/%s/%s", row.workload.c_str(),
                           row.input.c_str(), variant.label);
    req.machine = machine_cfg;
    applyVariant(req, variant);
    req.armChecker = false;
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("fig09_speedup", argc, argv);
    report.comment("Fig. 9: speedup over the static runtime (stack in "
                   "SPM)");
    if (quickMode())
        report.comment("QUICK MODE: shrunken inputs");

    // The whole figure is one batch; rows settle in submission order.
    MachineConfig machine_cfg;
    const std::vector<Variant> variants = table1Variants();
    std::vector<WorkloadRow> rows;
    std::vector<Cell> cells;
    for (const WorkloadRow &row : table1Rows()) {
        if (!row.hasStatic)
            continue; // Fig. 10 covers the spawn-sync workloads
        // One representative input per workload (the headline one);
        // table1_main covers the full input matrix.
        bool representative =
            (row.workload == "MatMul" && row.input == "128") ||
            ((row.workload == "PageRank" || row.workload == "BFS" ||
              row.workload == "SpMV" || row.workload == "SpMT") &&
             row.input == "email") ||
            (row.workload == "NQueens" && row.input != "6") ||
            row.workload == "UTS";
        if (!representative)
            continue;
        if (!report.wants(row.workload + "/" + row.input))
            continue;
        for (const Variant &variant : variants)
            cells.push_back(cellRequest(row, variant, machine_cfg));
        rows.push_back(row);
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    for (size_t r = 0; r < rows.size(); ++r) {
        const CellResult *cell = &results[r * variants.size()];
        double baseline = 0;
        bool all_ok = true;
        for (size_t i = 0; i < variants.size(); ++i) {
            all_ok = all_ok && cell[i].ok();
            if (std::string(variants[i].label) == "static spm-stack")
                baseline = static_cast<double>(cell[i].job.cycles);
        }
        Report &out = report.row()
                          .cell("workload", rows[r].workload)
                          .cell("input", rows[r].input);
        for (size_t i = 0; i < variants.size(); ++i) {
            const double cycles = static_cast<double>(cell[i].job.cycles);
            out.cell(variants[i].label,
                     cycles != 0 ? baseline / cycles : 0.0);
        }
        out.cell("ok", all_ok);
    }

    report.comment("paper: up to 3.94x for statically schedulable "
                   "workloads, up to 28.5x for dynamic ones");
    return report.finish();
}
