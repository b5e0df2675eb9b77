/**
 * @file
 * Reproduces Fig. 6: execution time of one PageRank iteration's six
 * parallel kernels with and without the read-only data duplication
 * optimization (Sec. 4.3), on the work-stealing runtime with stack and
 * queue in SPM.
 *
 * Each configuration is one supervised FleetServer job; both are
 * submitted up front, run behind the hang watchdog, and the batch
 * totals are asserted per status at the end. Per-kernel cycle counts
 * flow back through a side-channel shared with the job closures, and
 * the heatmap CSVs are written by each job's digest stage (which runs
 * on the worker while its machine is still alive).
 *
 * Expected shape: duplication reduces most kernels' time; the paper
 * reports an overall 1.57x on its PageRank input.
 *
 * Also exports per-link NoC and per-bank LLC heatmaps for both runs
 * (BENCH_fig06_noc_heatmap_*.csv / BENCH_fig06_llc_heatmap_*.csv): the
 * without-duplication run concentrates traffic on the links around the
 * environment's home core, which the heatmap makes visible.
 */

#include <array>
#include <memory>

#include "bench/fleet_util.hpp"
#include "graph/generators.hpp"
#include "workloads/pagerank.hpp"

using namespace spmrt;
using namespace spmrt::bench;
using namespace spmrt::workloads;

namespace {

/** One Fig. 6 configuration (± read-only duplication) as a fleet job. */
serve::JobRequest
configRequest(bool duplicate, std::shared_ptr<const HostGraph> graph,
              std::shared_ptr<std::array<Cycles, kPageRankKernels>> kernels)
{
    serve::JobRequest req;
    req.name = log::format("fig06/%s", duplicate ? "with-duplication"
                                                 : "without-duplication");
    req.cacheKey = req.name;
    req.machine = MachineConfig{};
    req.runtime = RuntimeConfig::full();
    req.runtime.roDuplication = duplicate;
    req.armChecker = false;
    req.prepare = [duplicate, graph,
                   kernels](Machine &machine, serve::AssetCache &) {
        maybeArmTrace(machine);
        auto data = std::make_shared<PageRankData>(
            pagerankSetup(machine, *graph));
        serve::PreparedJob prep;
        prep.root = [data, kernels](TaskContext &tc) {
            (void)pagerankIteration(tc, *data, kernels.get());
        };
        prep.digest = [duplicate](Machine &m) {
            maybeWriteTrace(m);
            // Contention heatmaps: per-link NoC occupancy and per-bank
            // LLC traffic for this run, as CSV for offline plotting.
            // Written here because the digest stage is the last point
            // where the worker's machine is alive.
            const char *tag = duplicate ? "with_rd" : "without_rd";
            obs::Heatmap noc_map = m.mem().noc().linkHeatmap();
            noc_map.writeCsv(
                log::format("BENCH_fig06_noc_heatmap_%s.csv", tag)
                    .c_str());
            obs::Heatmap llc_map = m.mem().llc().bankHeatmap();
            llc_map.writeCsv(
                log::format("BENCH_fig06_llc_heatmap_%s.csv", tag)
                    .c_str());
            return 0ull;
        };
        return prep;
    };
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("fig06_ro_duplication", argc, argv);
    const uint32_t vertices = scaled<uint32_t>(8192, 1024);
    const uint32_t degree = 16;
    auto graph = std::make_shared<const HostGraph>(
        genPowerLaw(vertices, degree, 0.7, 2023));

    report.comment("Fig. 6: PageRank kernel times with (w/ RD) and "
                   "without (w/o RD) read-only data duplication; "
                   "email-like graph V=%u E=%" PRIu64,
                   vertices, graph->numEdges());

    auto kernels_with =
        std::make_shared<std::array<Cycles, kPageRankKernels>>();
    auto kernels_without =
        std::make_shared<std::array<Cycles, kPageRankKernels>>();
    Cycles total_with = 0, total_without = 0;
    bool ran_both = true;

    serve::FleetServer server(benchFleetConfig());
    struct PendingConfig
    {
        bool duplicate;
        serve::FleetServer::JobId id;
    };
    std::vector<PendingConfig> pending;
    // Submission order matters under SPMRT_TRACE_OUT: the single
    // tracing worker runs the with-duplication job first, so the trace
    // records the same run the pre-fleet bench captured.
    for (bool duplicate : {true, false}) {
        if (!report.wants(duplicate ? "with-duplication"
                                    : "without-duplication")) {
            ran_both = false;
            continue;
        }
        pending.push_back(
            {duplicate,
             server.submit(configRequest(
                 duplicate, graph,
                 duplicate ? kernels_with : kernels_without))});
    }
    for (const PendingConfig &config : pending) {
        serve::JobReport job = server.wait(config.id);
        if (job.status != serve::JobStatus::Ok)
            report.fail("%s: %s (%s)", job.name.c_str(),
                        serve::jobStatusName(job.status),
                        job.error.c_str());
        (config.duplicate ? total_with : total_without) = job.cycles;
        const char *tag = config.duplicate ? "with_rd" : "without_rd";
        report.comment("wrote BENCH_fig06_noc_heatmap_%s.csv and "
                       "BENCH_fig06_llc_heatmap_%s.csv",
                       tag, tag);
    }

    if (ran_both && !report.listing()) {
        for (uint32_t k = 0; k < kPageRankKernels; ++k) {
            report.row()
                .cell("kernel", log::format("K%u", k + 1))
                .cell("with_rd_cycles", (*kernels_with)[k])
                .cell("without_rd_cycles", (*kernels_without)[k])
                .cell("ratio",
                      static_cast<double>((*kernels_without)[k]) /
                          static_cast<double>((*kernels_with)[k]));
        }
        report.row()
            .cell("kernel", "total")
            .cell("with_rd_cycles", total_with)
            .cell("without_rd_cycles", total_without)
            .cell("ratio", static_cast<double>(total_without) /
                               static_cast<double>(total_with));
        report.comment("paper: overall speedup 1.57x from duplication");
    }
    assertFleetTotals(report, server, pending.size());
    return report.finish();
}
