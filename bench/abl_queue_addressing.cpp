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
 * Every (workload, addressing) cell is one supervised FleetServer job,
 * checked against the registry's host reference digest; the batch
 * totals are asserted per status at the end. Instruction and
 * steal counters flow back through a side-channel filled by each job's
 * digest stage (the last point where the worker's machine is alive).
 */

#include <memory>

#include "bench/fleet_util.hpp"
#include "serve/workloads.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** Machine counters a cell reports beyond its cycle count. */
struct CellStats
{
    uint64_t instructions = 0;
    uint64_t steals = 0;
};

struct Mode
{
    const char *label;
    bool pointer_table;
};

/**
 * One (workload, addressing) cell; its digest stage copies the
 * machine's instruction and steal counters into @p stats.
 */
serve::JobRequest
cellRequest(const char *workload, const serve::FleetWorkload &spec,
            const Mode &mode, std::shared_ptr<CellStats> stats)
{
    serve::JobRequest req = serve::makeWorkloadRequest(spec);
    req.name = log::format("abl_queue/%s/%s", workload, mode.label);
    req.cacheKey = req.name;
    req.machine = MachineConfig{};
    req.runtime.queuePointerTable = mode.pointer_table;
    req.armChecker = false;
    traceJob(req, [stats](Machine &m) {
        stats->instructions = m.totalInstructions();
        stats->steals = m.totalStat(&RuntimeStats::stealHits);
    });
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

    serve::FleetServer server(benchFleetConfig());
    struct PendingCell
    {
        const char *workload;
        const char *addressing;
        serve::FleetServer::JobId id;
        std::shared_ptr<CellStats> stats;
    };
    std::vector<PendingCell> pending;
    for (const auto &[workload, spec] : workloads) {
        for (const Mode &mode : modes) {
            if (!report.wants(std::string(workload) + "/" + mode.label))
                continue;
            auto stats = std::make_shared<CellStats>();
            pending.push_back(
                {workload, mode.label,
                 server.submit(cellRequest(workload, spec, mode, stats)),
                 stats});
        }
    }

    for (const PendingCell &cell : pending) {
        serve::JobReport job = server.wait(cell.id);
        if (job.status != serve::JobStatus::Ok)
            report.fail("%s/%s: %s (%s)", cell.workload, cell.addressing,
                        serve::jobStatusName(job.status),
                        job.error.c_str());
        report.row()
            .cell("workload", cell.workload)
            .cell("addressing", cell.addressing)
            .cell("cycles", job.cycles)
            .cell("ops", cell.stats->instructions)
            .cell("steals", cell.stats->steals);
    }
    report.comment("expected: the pointer table adds a DRAM load per "
                   "steal attempt, slowing steal-heavy workloads");
    assertFleetTotals(report, server, pending.size());
    return report.finish();
}
