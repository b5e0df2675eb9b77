/**
 * @file
 * Ablation E8 (DESIGN.md): the cost of locating a victim's task queue.
 *
 * Sec. 4.2 argues that placing every core's queue at a fixed SPM offset
 * lets a thief *compute* the remote queue address, where the naive
 * runtime must first load a queue pointer from a DRAM-resident table —
 * traffic that "diminishes the benefit of keeping stealing traffic away
 * from DRAM". This bench isolates that choice: SPM queues with computed
 * addressing vs. SPM queues behind a DRAM pointer table, on steal-heavy
 * workloads.
 *
 * Every (workload, addressing) cell is one job of the bench's fleet
 * batch (fleet_util.hpp's runCells), checked against the registry's
 * host reference digest; its instruction and steal counters come back
 * with the cell's result.
 */

#include "bench/fleet_util.hpp"
#include "serve/workloads.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

struct Mode
{
    const char *label;
    bool pointer_table;
};

/** One (workload, addressing) cell as a fleet job. */
serve::JobRequest
cellRequest(const char *workload, const serve::FleetWorkload &spec,
            const Mode &mode)
{
    serve::JobRequest req = serve::makeWorkloadRequest(spec);
    req.name = log::format("abl_queue/%s/%s", workload, mode.label);
    req.machine = MachineConfig{};
    req.runtime.queuePointerTable = mode.pointer_table;
    req.armChecker = false;
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("abl_queue_addressing", argc, argv);
    report.comment("Ablation: victim queue addressing (both configs "
                   "keep the queue itself in SPM)");

    const Mode modes[] = {
        {"fixed SPM offset (paper)", false},
        {"DRAM pointer table", true},
    };
    const std::pair<const char *, serve::FleetWorkload> workloads[] = {
        {"Fib", {"fib", scaled<uint32_t>(17, 12)}},
        {"UTS",
         {"uts", scaled<uint32_t>(9, 7), 42, scaled<double>(2.7, 2.0)}},
    };

    std::vector<Cell> cells;
    std::vector<std::pair<const char *, const char *>> labels;
    for (const auto &[workload, spec] : workloads) {
        for (const Mode &mode : modes) {
            if (!report.wants(std::string(workload) + "/" + mode.label))
                continue;
            cells.push_back(cellRequest(workload, spec, mode));
            labels.emplace_back(workload, mode.label);
        }
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    for (size_t i = 0; i < results.size(); ++i)
        report.row()
            .cell("workload", labels[i].first)
            .cell("addressing", labels[i].second)
            .cell("cycles", results[i].job.cycles)
            .cell("ops", results[i].instructions)
            .cell("steals", results[i].stealHits);
    report.comment("expected: the pointer table adds a DRAM load per "
                   "steal attempt, slowing steal-heavy workloads");
    return report.finish();
}
