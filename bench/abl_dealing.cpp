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
 * Every (workload, scheduler) cell is one supervised FleetServer job;
 * the whole sweep is submitted up front and the batch totals are
 * asserted per status at the end.
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
    req.cacheKey = req.name;
    req.machine = MachineConfig{};
    req.runtime = RuntimeConfig::full();
    req.runtime.workDealing = dealing;
    req.armChecker = false;
    req.prepare = [n, cost](Machine &machine, serve::AssetCache &) {
        maybeArmTrace(machine);
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
        prep.digest = [](Machine &m) {
            maybeWriteTrace(m);
            return 0ull;
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
    req.cacheKey = req.name;
    req.machine = MachineConfig{};
    req.runtime.workDealing = dealing;
    req.armChecker = false;
    traceJob(req);
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

    serve::FleetServer server(benchFleetConfig());
    struct PendingPair
    {
        const char *workload;
        serve::FleetServer::JobId stealing;
        serve::FleetServer::JobId dealing;
    };
    std::vector<PendingPair> pending;
    if (report.wants("uniform-loop"))
        pending.push_back(
            {"uniform loop",
             server.submit(loopRequest("uniform", false, n, uniformCost)),
             server.submit(loopRequest("uniform", true, n, uniformCost))});
    if (report.wants("skewed-loop"))
        pending.push_back(
            {"skewed loop",
             server.submit(loopRequest("skewed", false, n, skewedCost)),
             server.submit(loopRequest("skewed", true, n, skewedCost))});
    if (report.wants("uts"))
        pending.push_back({"UTS", server.submit(utsRequest(false, tree)),
                           server.submit(utsRequest(true, tree))});

    for (const PendingPair &p : pending) {
        serve::JobReport steal = server.wait(p.stealing);
        serve::JobReport deal = server.wait(p.dealing);
        for (const serve::JobReport *job : {&steal, &deal})
            if (job->status != serve::JobStatus::Ok)
                report.fail("%s: %s (%s)", job->name.c_str(),
                            serve::jobStatusName(job->status),
                            job->error.c_str());
        report.row()
            .cell("workload", p.workload)
            .cell("stealing_cycles", steal.cycles)
            .cell("dealing_cycles", deal.cycles)
            .cell("ratio", static_cast<double>(deal.cycles) /
                               static_cast<double>(steal.cycles));
    }
    report.comment("expected: dealing loses across the board — every "
                   "spawn pays a remote enqueue round trip, and "
                   "imbalance baked in at spawn time is never corrected "
                   "— experimentally supporting the paper's choice of "
                   "stealing");
    assertFleetTotals(report, server, pending.size() * 2);
    return report.finish();
}
