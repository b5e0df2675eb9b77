/**
 * @file
 * Reproduces Fig. 6: execution time of one PageRank iteration's six
 * parallel kernels with and without the read-only data duplication
 * optimization (Sec. 4.3), on the work-stealing runtime with stack and
 * queue in SPM.
 *
 * Each configuration is one job of the bench's fleet batch
 * (fleet_util.hpp's runCells). Per-kernel cycle counts flow back
 * through a side-channel shared with the job closures, and each job's
 * inspect writes its heatmap CSVs at the digest stage, while the
 * worker's machine is still alive.
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

/** One Fig. 6 configuration (± read-only duplication) as a fleet cell. */
Cell
configCell(bool duplicate, std::shared_ptr<const HostGraph> graph,
           std::shared_ptr<std::array<Cycles, kPageRankKernels>> kernels)
{
    serve::JobRequest req;
    req.name = log::format("fig06/%s", duplicate ? "with-duplication"
                                                 : "without-duplication");
    req.machine = MachineConfig{};
    req.runtime = RuntimeConfig::full();
    req.runtime.roDuplication = duplicate;
    req.armChecker = false;
    req.prepare = [graph, kernels](Machine &machine, serve::AssetCache &) {
        auto data = std::make_shared<PageRankData>(
            pagerankSetup(machine, *graph));
        serve::PreparedJob prep;
        prep.root = [data, kernels](TaskContext &tc) {
            (void)pagerankIteration(tc, *data, kernels.get());
        };
        return prep;
    };
    const char *tag = duplicate ? "with_rd" : "without_rd";
    return {std::move(req),
            [tag](Machine &m) { return writeHeatmaps(m, "fig06", tag); }};
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

    // Submission order matters under SPMRT_TRACE_OUT: the single
    // tracing worker runs the with-duplication job first, so the trace
    // records the same run the pre-fleet bench captured.
    std::vector<Cell> cells;
    for (bool duplicate : {true, false})
        if (report.wants(duplicate ? "with-duplication"
                                   : "without-duplication"))
            cells.push_back(configCell(
                duplicate, graph,
                duplicate ? kernels_with : kernels_without));
    const std::vector<CellResult> results =
        runCells(report, std::move(cells));

    if (results.size() == 2) {
        for (uint32_t k = 0; k < kPageRankKernels; ++k) {
            report.row()
                .cell("kernel", log::format("K%u", k + 1))
                .cell("with_rd_cycles", (*kernels_with)[k])
                .cell("without_rd_cycles", (*kernels_without)[k])
                .cell("ratio",
                      static_cast<double>((*kernels_without)[k]) /
                          static_cast<double>((*kernels_with)[k]));
        }
        const Cycles total_with = results[0].job.cycles;
        const Cycles total_without = results[1].job.cycles;
        report.row()
            .cell("kernel", "total")
            .cell("with_rd_cycles", total_with)
            .cell("without_rd_cycles", total_without)
            .cell("ratio", static_cast<double>(total_without) /
                               static_cast<double>(total_with));
        report.comment("paper: overall speedup 1.57x from duplication");
    }
    return report.finish();
}
