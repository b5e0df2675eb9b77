/**
 * @file
 * Ablation E12: work stealing vs. work dealing.
 *
 * The paper's related work cites Zakkak et al., who used work *dealing*
 * (spawns pushed to peers eagerly, no stealing) on an SPM manycore JVM.
 * Dealing balances only at spawn time; when task costs are unknown at
 * spawn (UTS subtrees, skewed rows) the imbalance it bakes in persists,
 * while stealing corrects it reactively. This ablation measures both
 * schedulers on a balanced loop, a skewed loop, and UTS.
 *
 * Every (workload, scheduler) cell is one job of the bench's fleet
 * batch (fleet_util.hpp's runCells).
 */

#include "bench/fleet_util.hpp"
#include "serve/workloads.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** One parallel-for cell (cost shape x stealing/dealing). */
serve::JobRequest
loopRequest(const char *shape, bool dealing, int64_t n,
            Cycles (*cost)(int64_t))
{
    serve::JobRequest req;
    req.name = log::format("abl_dealing/%s/%s", shape,
                           dealing ? "dealing" : "stealing");
    req.machine = MachineConfig{};
    req.runtime = RuntimeConfig::full();
    req.runtime.workDealing = dealing;
    req.armChecker = false;
    req.prepare = [n, cost](Machine &, serve::AssetCache &) {
        serve::PreparedJob prep;
        prep.root = [n, cost](TaskContext &tc) {
            ForOptions opts;
            opts.grain = 4;
            parallelFor(
                tc, 0, n,
                [cost](TaskContext &btc, int64_t i) {
                    btc.core().tick(cost(i));
                },
                opts);
        };
        return prep;
    };
    return req;
}

/** One UTS cell, checked against the registry's reference count. */
serve::JobRequest
utsRequest(bool dealing, const serve::FleetWorkload &tree)
{
    serve::JobRequest req = serve::makeWorkloadRequest(tree);
    req.name = log::format("abl_dealing/uts/%s",
                           dealing ? "dealing" : "stealing");
    req.machine = MachineConfig{};
    req.runtime.workDealing = dealing;
    req.armChecker = false;
    return req;
}

Cycles
uniformCost(int64_t)
{
    return 30;
}

Cycles
skewedCost(int64_t i)
{
    // Zipf-ish skew: cost unknown at spawn time.
    return 5 + 4000 / (1 + static_cast<Cycles>(i));
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("abl_dealing", argc, argv);
    const int64_t n = scaled<int64_t>(8192, 1024);
    report.comment("Ablation: work stealing vs. work dealing "
                   "(Zakkak-style)");

    const serve::FleetWorkload tree = {"uts", scaled<uint32_t>(128, 32), 7,
                                       scaled<double>(0.24, 0.2),
                                       "binomial", 4};

    // Each workload is a (stealing, dealing) pair of cells.
    std::vector<Cell> cells;
    std::vector<const char *> workloads;
    if (report.wants("uniform-loop")) {
        cells.push_back(loopRequest("uniform", false, n, uniformCost));
        cells.push_back(loopRequest("uniform", true, n, uniformCost));
        workloads.push_back("uniform loop");
    }
    if (report.wants("skewed-loop")) {
        cells.push_back(loopRequest("skewed", false, n, skewedCost));
        cells.push_back(loopRequest("skewed", true, n, skewedCost));
        workloads.push_back("skewed loop");
    }
    if (report.wants("uts")) {
        cells.push_back(utsRequest(false, tree));
        cells.push_back(utsRequest(true, tree));
        workloads.push_back("UTS");
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    for (size_t w = 0; w < workloads.size(); ++w) {
        const Cycles steal = results[2 * w].job.cycles;
        const Cycles deal = results[2 * w + 1].job.cycles;
        report.row()
            .cell("workload", workloads[w])
            .cell("stealing_cycles", steal)
            .cell("dealing_cycles", deal)
            .cell("ratio", static_cast<double>(deal) /
                               static_cast<double>(steal));
    }
    report.comment("expected: dealing loses across the board — every "
                   "spawn pays a remote enqueue round trip, and "
                   "imbalance baked in at spawn time is never corrected "
                   "— experimentally supporting the paper's choice of "
                   "stealing");
    return report.finish();
}
