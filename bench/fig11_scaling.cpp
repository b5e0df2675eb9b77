/**
 * @file
 * Reproduces Fig. 11: workload scaling from 2 to 128 active cores under
 * the work-stealing runtime with both stack and task queue in SPM,
 * reported as speedup over one active core. (As in the paper, UTS is
 * excluded for simulation-time reasons.)
 *
 * Both sections run as one fleet batch (fleet_util.hpp's runCells):
 * every (workload, core-count) cell is an independent job, so the sweep
 * parallelizes across host threads, each run is guarded by the hang
 * watchdog, and a failed cell degrades to a reported failure instead of
 * killing the bench.
 *
 * Expected shape (paper): NQueens and CilkSort scale best; MatMul scales
 * well (high arithmetic intensity); the memory-bound graph/sparse
 * kernels flatten as they saturate the single DRAM channel.
 *
 * Beyond the paper's figure, the "saturation" section exploits the
 * free-parameter machine geometry: the same workloads at full machine
 * width on the paper 128-core machine and the big256/big1024 presets,
 * each at 1/2/4 DRAM channels, work-stealing against the static
 * fork-join runtime. Each work-stealing leg exports per-geometry NoC
 * and LLC heatmap CSVs for offline plotting. SPMRT_MACHINE overrides
 * the base machine of both sections (the CI geometry-smoke job runs the
 * quick sweep on a 16x16 dual-channel rucheY machine this way).
 */

#include "bench/fleet_util.hpp"
#include "bench/rows.hpp"
#include "common/env.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** The Fig. 11 subset: one input per workload, smaller than Table 1. */
std::vector<WorkloadRow>
scalingRows()
{
    std::vector<WorkloadRow> rows;
    for (WorkloadRow &row : table1Rows()) {
        // Large-parallelism inputs: a 128-core scaling study needs far
        // more than 128 leaf tasks or the curve caps at the input's
        // parallelism instead of the machine's.
        bool keep =
            (row.workload == "MatMul" && row.input == "256") ||
            (row.workload == "PageRank" && row.input == "uniform") ||
            (row.workload == "BFS" && row.input == "uniform") ||
            (row.workload == "SpMV" && row.input == "c-58") ||
            (row.workload == "SpMT" && row.input == "c-58") ||
            (row.workload == "MatTrans" && row.input == "256") ||
            (row.workload == "CilkSort" && row.input == "65536") ||
            (row.workload == "NQueens" && row.input == "8");
        if (quickMode())
            keep = (row.workload == "MatMul") ||
                   (row.workload == "NQueens" && row.input == "7") ||
                   (row.workload == "CilkSort");
        if (keep && (rows.empty() || rows.back().workload != row.workload))
            rows.push_back(std::move(row));
    }
    return rows;
}

/** One scaling cell as a fleet job. */
serve::JobRequest
cellRequest(const WorkloadRow &row, const MachineConfig &machine_cfg,
            uint32_t cores)
{
    serve::JobRequest req = serve::makeWorkloadRequest(row.spec);
    req.name = log::format("fig11/%s/x%u", row.workload.c_str(), cores);
    req.machine = machine_cfg;
    req.runtime.activeCores = cores;
    req.armChecker = false;
    return req;
}

/** The saturation study's workload subset: one compute-bound and one
 *  mixed divide-and-conquer row, picked out of the Fig. 11 set (every
 *  extra row multiplies a sweep that already spans up to 1024 simulated
 *  cores). */
std::vector<WorkloadRow>
saturationRows()
{
    std::vector<WorkloadRow> rows;
    for (WorkloadRow &row : scalingRows())
        if (row.workload == "NQueens" || row.workload == "CilkSort")
            rows.push_back(std::move(row));
    return rows;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("fig11_scaling", argc, argv);

    // The base machine: the paper's 16x8 platform unless SPMRT_MACHINE
    // names another geometry. Only N cores participate per cell; the
    // sweep runs over every power of two up to the full machine.
    MachineConfig machine_cfg = MachineConfig::fromEnv(MachineConfig{});
    std::vector<uint32_t> core_counts;
    for (uint32_t n = 1; n <= machine_cfg.numCores(); n *= 2)
        core_counts.push_back(n);
    if (quickMode())
        core_counts = {1, 8, machine_cfg.numCores()};

    report.comment("Fig. 11: speedup over one active core, work-stealing "
                   "runtime, both in SPM");
    report.comment("machine: %s; ideal speedup at %u cores: %ux",
                   machine_cfg.geometry().c_str(), machine_cfg.numCores(),
                   machine_cfg.numCores());

    // Both sections are one batch, submitted in the order their rows
    // print.
    std::vector<Cell> cells;
    std::vector<std::string> scaling;
    for (const WorkloadRow &row : scalingRows()) {
        if (!report.wants(row.workload))
            continue;
        for (uint32_t cores : core_counts)
            cells.push_back(cellRequest(row, machine_cfg, cores));
        scaling.push_back(row.workload);
    }

    // ---- Saturation study: WS vs static across machine scales ----------
    // The scaling question the paper's fixed platform cannot ask: does
    // the work-stealing runtime's advantage over the static schedule
    // survive as the machine grows from 128 to 1024 cores, and how much
    // of the gap is the DRAM channel count? Each (geometry, workload)
    // work-stealing leg exports per-geometry heatmap CSVs.
    std::vector<std::pair<std::string, std::string>> saturation;
    if (report.wants("saturation")) {
        std::vector<MachineConfig> scales;
        if (!env::stringValue("SPMRT_MACHINE").empty()) {
            // An explicit machine spec pins the study to that machine
            // (the CI geometry-smoke path); only the channel axis sweeps.
            scales = {machine_cfg};
        } else {
            scales = {MachineConfig::paper(), MachineConfig::big256()};
            if (!quickMode())
                scales.push_back(MachineConfig::big1024());
        }
        std::vector<uint32_t> channel_counts = {1, 2, 4};
        if (quickMode())
            channel_counts = {1, 2};

        const std::vector<WorkloadRow> sat_rows = saturationRows();
        for (const MachineConfig &base : scales) {
            for (uint32_t channels : channel_counts) {
                MachineConfig cfg = base;
                cfg.dramChannels = channels;
                for (const WorkloadRow &row : sat_rows) {
                    const std::string geometry = cfg.geometry();
                    serve::JobRequest ws =
                        cellRequest(row, cfg, cfg.numCores());
                    ws.name = log::format("fig11sat/%s/%s/ws",
                                          row.workload.c_str(),
                                          geometry.c_str());
                    serve::JobRequest st =
                        cellRequest(row, cfg, cfg.numCores());
                    st.name = log::format("fig11sat/%s/%s/static",
                                          row.workload.c_str(),
                                          geometry.c_str());
                    st.staticRuntime = true;
                    cells.emplace_back(
                        std::move(ws),
                        [tag = row.workload + "_" + geometry](Machine &m) {
                            return writeHeatmaps(m, "fig11", tag);
                        });
                    cells.emplace_back(std::move(st));
                    saturation.emplace_back(row.workload, geometry);
                }
            }
        }
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    const CellResult *cell = results.data();
    for (const std::string &workload : scaling) {
        Report &r = report.row()
                        .cell("workload", workload)
                        .cell("geometry", machine_cfg.geometry());
        const double serial = static_cast<double>(cell[0].job.cycles);
        bool all_ok = true;
        for (uint32_t cores : core_counts) {
            const CellResult &result = *cell++;
            all_ok = all_ok && result.ok();
            r.cell(log::format("x%u", cores).c_str(),
                   result.ok() && result.job.cycles != 0
                       ? serial / static_cast<double>(result.job.cycles)
                       : 0.0);
        }
        r.cell("ok", all_ok);
    }

    if (!saturation.empty())
        report.comment("saturation: WS vs static fork-join at full "
                       "machine width; ws_over_static > 1 means dynamic "
                       "task parallelism still pays at that scale");
    for (const auto &[workload, geometry] : saturation) {
        const CellResult &ws = *cell++;
        const CellResult &st = *cell++;
        const bool ok = ws.ok() && st.ok();
        report.row()
            .cell("workload", workload + "-sat")
            .cell("geometry", geometry)
            .cell("cycles_ws", ws.job.cycles)
            .cell("cycles_static", st.job.cycles)
            .cell("ws_over_static",
                  ok && ws.job.cycles != 0
                      ? static_cast<double>(st.job.cycles) /
                            static_cast<double>(ws.job.cycles)
                      : 0.0)
            .cell("ok", ok);
    }
    return report.finish();
}
