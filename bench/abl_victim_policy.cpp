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
 * Every (workload, policy) cell is one job of the bench's fleet batch
 * (fleet_util.hpp's runCells), checked against the registry's digest;
 * its steal counters come back with the cell's result.
 */

#include "bench/fleet_util.hpp"
#include "serve/workloads.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

struct Policy
{
    const char *label;
    VictimPolicy policy;
};

/** One (workload, policy) cell as a fleet job. */
serve::JobRequest
cellRequest(const char *workload, const serve::FleetWorkload &spec,
            const Policy &policy)
{
    serve::JobRequest req = serve::makeWorkloadRequest(spec);
    req.name = log::format("abl_victim/%s/%s", workload, policy.label);
    req.machine = MachineConfig{};
    req.runtime.victimPolicy = policy.policy;
    req.armChecker = false;
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

    std::vector<Cell> cells;
    std::vector<std::pair<const char *, const char *>> labels;
    for (const auto &[workload, spec] : workloads) {
        for (const Policy &policy : policies) {
            if (!report.wants(std::string(workload) + "/" + policy.label))
                continue;
            cells.push_back(cellRequest(workload, spec, policy));
            labels.emplace_back(workload, policy.label);
        }
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    for (size_t i = 0; i < results.size(); ++i)
        report.row()
            .cell("workload", labels[i].first)
            .cell("policy", labels[i].second)
            .cell("cycles", results[i].job.cycles)
            .cell("steals", results[i].stealHits)
            .cell("steal_tries", results[i].stealAttempts)
            .cell("ok", results[i].ok());
    report.comment("expected: round-robin is the slowest policy on both "
                   "workloads");
    return report.finish();
}
