/**
 * @file
 * Reproduces Fig. 11: workload scaling from 2 to 128 active cores under
 * the work-stealing runtime with both stack and task queue in SPM,
 * reported as speedup over one active core. (As in the paper, UTS is
 * excluded for simulation-time reasons.)
 *
 * The whole sweep is submitted as one supervised batch to the
 * FleetServer: every (workload, core-count) cell is an independent job,
 * so the sweep parallelizes across host threads, each run is guarded by
 * the hang watchdog, and a failed cell degrades to a reported failure
 * instead of killing the bench.
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

#include <atomic>
#include <memory>

#include "bench/fleet_util.hpp"
#include "bench/rows.hpp"
#include "common/env.hpp"
#include "obs/heatmap.hpp"
#include "serve/server.hpp"

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

/**
 * One scaling cell as a supervised fleet job; @p inspect sees the
 * worker's machine at the digest stage (traceJob).
 */
serve::JobRequest
cellRequest(const WorkloadRow &row, const MachineConfig &machine_cfg,
            uint32_t cores,
            std::function<void(Machine &)> inspect = nullptr)
{
    serve::JobRequest req = serve::makeWorkloadRequest(row.spec);
    req.name = log::format("fig11/%s/x%u", row.workload.c_str(), cores);
    req.cacheKey = req.name;
    req.machine = machine_cfg;
    req.runtime.activeCores = cores;
    req.armChecker = false;
    traceJob(req, std::move(inspect));
    return req;
}

/**
 * Export the run's NoC-link and LLC-bank heatmaps, tagged by workload
 * and machine geometry; returns how many of the two could not be
 * written.
 */
uint32_t
exportHeatmaps(Machine &m, const std::string &workload)
{
    std::string tag = log::format("%s_%s", workload.c_str(),
                                  m.config().geometry().c_str());
    obs::Heatmap noc_map = m.mem().noc().linkHeatmap();
    bool noc_ok = noc_map.writeCsv(
        log::format("BENCH_fig11_noc_heatmap_%s.csv", tag.c_str()).c_str());
    obs::Heatmap llc_map = m.mem().llc().bankHeatmap();
    bool llc_ok = llc_map.writeCsv(
        log::format("BENCH_fig11_llc_heatmap_%s.csv", tag.c_str()).c_str());
    return (noc_ok ? 0 : 1) + (llc_ok ? 0 : 1);
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

    serve::FleetServer server(benchFleetConfig());
    report.comment("batch of supervised fleet jobs across %u host workers",
                   server.workerCount());

    // Submit the whole sweep up front, then settle row by row.
    struct PendingRow
    {
        std::string workload;
        std::vector<serve::FleetServer::JobId> ids;
    };
    std::vector<PendingRow> pending;
    for (const WorkloadRow &row : scalingRows()) {
        if (!report.wants(row.workload))
            continue;
        PendingRow p;
        p.workload = row.workload;
        for (uint32_t cores : core_counts)
            p.ids.push_back(
                server.submit(cellRequest(row, machine_cfg, cores)));
        pending.push_back(std::move(p));
    }

    for (const PendingRow &p : pending) {
        Report &r = report.row()
                        .cell("workload", p.workload)
                        .cell("geometry", machine_cfg.geometry());
        double serial = 0;
        bool all_ok = true;
        for (size_t i = 0; i < core_counts.size(); ++i) {
            serve::JobReport job = server.wait(p.ids[i]);
            bool ok = job.status == serve::JobStatus::Ok;
            if (!ok)
                report.fail("%s x%u: %s (%s)", p.workload.c_str(),
                            core_counts[i],
                            serve::jobStatusName(job.status),
                            job.error.c_str());
            all_ok = all_ok && ok;
            if (i == 0)
                serial = static_cast<double>(job.cycles);
            r.cell(log::format("x%u", core_counts[i]).c_str(),
                   ok && job.cycles != 0
                       ? serial / static_cast<double>(job.cycles)
                       : 0.0);
        }
        r.cell("ok", all_ok);
    }

    // ---- Saturation study: WS vs static across machine scales ----------
    // The scaling question the paper's fixed platform cannot ask: does
    // the work-stealing runtime's advantage over the static schedule
    // survive as the machine grows from 128 to 1024 cores, and how much
    // of the gap is the DRAM channel count? Each (geometry, workload)
    // work-stealing leg exports per-geometry heatmap CSVs.
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

        struct SatCell
        {
            std::string workload;
            std::string geometry;
            serve::FleetServer::JobId ws;
            serve::FleetServer::JobId st;
        };
        std::vector<SatCell> cells;
        // Heatmap writes run on fleet workers; Report::fail is not
        // thread-safe, so count failures here and report once settled.
        auto unwritten = std::make_shared<std::atomic<uint32_t>>(0);
        const std::vector<WorkloadRow> sat_rows = saturationRows();
        for (const MachineConfig &base : scales) {
            for (uint32_t channels : channel_counts) {
                MachineConfig cfg = base;
                cfg.dramChannels = channels;
                for (const WorkloadRow &row : sat_rows) {
                    SatCell cell;
                    cell.workload = row.workload;
                    cell.geometry = cfg.geometry();
                    serve::JobRequest ws = cellRequest(
                        row, cfg, cfg.numCores(),
                        [workload = row.workload, unwritten](Machine &m) {
                            *unwritten += exportHeatmaps(m, workload);
                        });
                    ws.name = log::format("fig11sat/%s/%s/ws",
                                          row.workload.c_str(),
                                          cell.geometry.c_str());
                    ws.cacheKey = ws.name;
                    serve::JobRequest st =
                        cellRequest(row, cfg, cfg.numCores());
                    st.name = log::format("fig11sat/%s/%s/static",
                                          row.workload.c_str(),
                                          cell.geometry.c_str());
                    st.cacheKey = st.name;
                    st.staticRuntime = true;
                    cell.ws = server.submit(std::move(ws));
                    cell.st = server.submit(std::move(st));
                    cells.push_back(std::move(cell));
                }
            }
        }

        report.comment("saturation: WS vs static fork-join at full "
                       "machine width; ws_over_static > 1 means dynamic "
                       "task parallelism still pays at that scale");
        for (const SatCell &cell : cells) {
            serve::JobReport ws = server.wait(cell.ws);
            serve::JobReport st = server.wait(cell.st);
            bool ok = ws.status == serve::JobStatus::Ok &&
                      st.status == serve::JobStatus::Ok;
            if (!ok)
                report.fail("%s on %s: ws=%s static=%s",
                            cell.workload.c_str(), cell.geometry.c_str(),
                            serve::jobStatusName(ws.status),
                            serve::jobStatusName(st.status));
            report.row()
                .cell("workload", cell.workload + "-sat")
                .cell("geometry", cell.geometry)
                .cell("cycles_ws", ws.cycles)
                .cell("cycles_static", st.cycles)
                .cell("ws_over_static",
                      ok && ws.cycles != 0
                          ? static_cast<double>(st.cycles) /
                                static_cast<double>(ws.cycles)
                          : 0.0)
                .cell("ok", ok);
        }
        if (uint32_t failed = unwritten->load())
            report.fail("saturation: %u heatmap CSV(s) could not be written",
                        failed);
    }

    serve::FleetServer::Totals totals = server.totals();
    report.comment("fleet: %llu jobs, %.2f sims/sec",
                   static_cast<unsigned long long>(totals.jobs),
                   totals.simsPerSec);
    return report.finish();
}
