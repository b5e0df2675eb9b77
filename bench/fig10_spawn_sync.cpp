/**
 * @file
 * Reproduces Fig. 10: MatrixTranspose and CilkSort (the spawn-and-sync
 * workloads with no static baseline) across the four work-stealing
 * placement variants, normalized to having both stack and task queue in
 * SPM.
 *
 * Every (workload, variant) cell is one job of the bench's fleet batch
 * (fleet_util.hpp's runCells), checked against the registry's digest.
 *
 * Expected shape (paper): both workloads benefit from the SPM stack;
 * normalized performance of the other variants falls between ~0.6 and
 * 1.0.
 */

#include "bench/fleet_util.hpp"
#include "bench/rows.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** One Fig. 10 cell (workload x placement variant) as a fleet job. */
serve::JobRequest
cellRequest(const WorkloadRow &row, const Variant &variant,
            const MachineConfig &machine_cfg)
{
    serve::JobRequest req = serve::makeWorkloadRequest(row.spec);
    req.name = log::format("fig10/%s/%s/%s", row.workload.c_str(),
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
    Report report("fig10_spawn_sync", argc, argv);
    report.comment("Fig. 10: spawn-sync workloads, normalized to "
                   "both-in-SPM");

    // The whole figure is one batch; rows settle in submission order.
    MachineConfig machine_cfg;
    const std::vector<Variant> variants = wsVariants();
    std::vector<WorkloadRow> rows;
    std::vector<Cell> cells;
    for (const WorkloadRow &row : table1Rows()) {
        if (row.hasStatic)
            continue; // only MatrixTranspose and CilkSort
        if (!report.wants(row.workload + "/" + row.input))
            continue;
        for (const Variant &variant : variants)
            cells.push_back(cellRequest(row, variant, machine_cfg));
        rows.push_back(row);
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    for (size_t r = 0; r < rows.size(); ++r) {
        // The last variant (both SPM) normalizes the row.
        const CellResult *cell = &results[r * variants.size()];
        const double best =
            static_cast<double>(cell[variants.size() - 1].job.cycles);
        for (size_t i = 0; i < variants.size(); ++i) {
            report.row()
                .cell("workload", rows[r].workload)
                .cell("input", rows[r].input)
                .cell("variant", variants[i].label)
                .cell("cycles", cell[i].job.cycles)
                .cell("normalized",
                      best / static_cast<double>(cell[i].job.cycles))
                .cell("ok", cell[i].ok());
        }
    }

    return report.finish();
}
