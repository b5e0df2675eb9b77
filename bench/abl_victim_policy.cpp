/**
 * @file
 * Ablation E11: victim-selection policy.
 *
 * The paper's runtime steals from uniformly random victims (Fig. 4's
 * choose_victim). On a physical mesh, steal cost grows with distance, so
 * two alternatives are interesting: Nearest (probe mesh neighbors first —
 * cheap steals, slow work diffusion) and RoundRobin (deterministic
 * sweep). This ablation measures all three on a steal-heavy dynamic
 * workload (UTS) and a skewed loop workload (PageRank, email-like).
 *
 * Every (workload, policy) cell is one supervised FleetServer job,
 * checked against the registry's digest; steal counters flow
 * back through a side-channel filled by each job's digest stage, and
 * the batch totals are asserted per status at the end.
 */

#include <memory>

#include "bench/fleet_util.hpp"
#include "serve/workloads.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** Steal counters a cell reports beyond its cycle count. */
struct CellStats
{
    uint64_t steals = 0;
    uint64_t stealAttempts = 0;
};

struct Policy
{
    const char *label;
    VictimPolicy policy;
};

/**
 * One (workload, policy) cell; its digest stage copies the machine's
 * steal counters into @p stats.
 */
serve::JobRequest
cellRequest(const char *workload, const serve::FleetWorkload &spec,
            const Policy &policy, std::shared_ptr<CellStats> stats)
{
    serve::JobRequest req = serve::makeWorkloadRequest(spec);
    req.name = log::format("abl_victim/%s/%s", workload, policy.label);
    req.cacheKey = req.name;
    req.machine = MachineConfig{};
    req.runtime.victimPolicy = policy.policy;
    req.armChecker = false;
    traceJob(req, [stats](Machine &m) {
        stats->steals = m.totalStat(&RuntimeStats::stealHits);
        stats->stealAttempts = m.totalStat(&RuntimeStats::stealAttempts);
    });
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("abl_victim_policy", argc, argv);
    const Policy policies[] = {
        {"random (paper)", VictimPolicy::Random},
        {"nearest-first", VictimPolicy::Nearest},
        {"round-robin", VictimPolicy::RoundRobin},
    };

    report.comment("Ablation: victim-selection policy, work-stealing "
                   "runtime (both in SPM)");

    const std::pair<const char *, serve::FleetWorkload> workloads[] = {
        {"UTS",
         {"uts", scaled<uint32_t>(128, 32), 7, scaled<double>(0.24, 0.2),
          "binomial", 4}},
        {"PageRank",
         {"pagerank", scaled<uint32_t>(8192, 1024), 77, 0.0, "email", 16}},
    };

    serve::FleetServer server(benchFleetConfig());
    struct PendingCell
    {
        const char *workload;
        const char *policy;
        serve::FleetServer::JobId id;
        std::shared_ptr<CellStats> stats;
    };
    std::vector<PendingCell> pending;
    for (const auto &[workload, spec] : workloads) {
        for (const Policy &policy : policies) {
            if (!report.wants(std::string(workload) + "/" + policy.label))
                continue;
            auto stats = std::make_shared<CellStats>();
            pending.push_back(
                {workload, policy.label,
                 server.submit(cellRequest(workload, spec, policy, stats)),
                 stats});
        }
    }

    for (const PendingCell &cell : pending) {
        serve::JobReport job = server.wait(cell.id);
        bool ok = job.status == serve::JobStatus::Ok;
        if (!ok)
            report.fail("%s/%s: %s (%s)", cell.workload, cell.policy,
                        serve::jobStatusName(job.status),
                        job.error.c_str());
        report.row()
            .cell("workload", cell.workload)
            .cell("policy", cell.policy)
            .cell("cycles", job.cycles)
            .cell("steals", cell.stats->steals)
            .cell("steal_tries", cell.stats->stealAttempts)
            .cell("ok", ok);
    }
    report.comment("expected: round-robin is the slowest policy on both "
                   "workloads");
    assertFleetTotals(report, server, pending.size());
    return report.finish();
}
