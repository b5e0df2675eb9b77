/**
 * @file
 * Reproduces Fig. 10: MatrixTranspose and CilkSort (the spawn-and-sync
 * workloads with no static baseline) across the four work-stealing
 * placement variants, normalized to having both stack and task queue in
 * SPM.
 *
 * Every (workload, variant) cell is one supervised FleetServer job: the
 * whole figure is submitted up front, cells parallelize across host
 * workers behind the hang watchdog, each result is checked against the
 * registry's digest, and the batch totals are asserted per status at
 * the end.
 *
 * Expected shape (paper): both workloads benefit from the SPM stack;
 * normalized performance of the other variants falls between ~0.6 and
 * 1.0.
 */

#include "bench/fleet_util.hpp"
#include "bench/rows.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** One Fig. 10 cell (workload x placement variant) as a fleet job. */
serve::JobRequest
cellRequest(const WorkloadRow &row, const Variant &variant,
            const MachineConfig &machine_cfg)
{
    serve::JobRequest req = serve::makeWorkloadRequest(row.spec);
    req.name = log::format("fig10/%s/%s/%s", row.workload.c_str(),
                           row.input.c_str(), variant.label);
    req.cacheKey = req.name;
    req.machine = machine_cfg;
    applyVariant(req, variant);
    req.armChecker = false;
    traceJob(req);
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("fig10_spawn_sync", argc, argv);
    report.comment("Fig. 10: spawn-sync workloads, normalized to "
                   "both-in-SPM");

    serve::FleetServer server(benchFleetConfig());
    report.comment("batch of supervised fleet jobs across %u host workers",
                   server.workerCount());

    // Submit the whole figure up front, then settle row by row.
    MachineConfig machine_cfg;
    const std::vector<Variant> variants = wsVariants();
    struct PendingRow
    {
        std::string workload;
        std::string input;
        std::vector<serve::FleetServer::JobId> ids;
    };
    std::vector<PendingRow> pending;
    uint64_t submitted = 0;
    for (const WorkloadRow &row : table1Rows()) {
        if (row.hasStatic)
            continue; // only MatrixTranspose and CilkSort
        if (!report.wants(row.workload + "/" + row.input))
            continue;
        PendingRow p;
        p.workload = row.workload;
        p.input = row.input;
        for (const Variant &variant : variants)
            p.ids.push_back(
                server.submit(cellRequest(row, variant, machine_cfg)));
        submitted += p.ids.size();
        pending.push_back(std::move(p));
    }

    for (const PendingRow &p : pending) {
        // All four variants settle first; the last one (both SPM)
        // normalizes the row.
        std::vector<serve::JobReport> jobs;
        for (serve::FleetServer::JobId id : p.ids)
            jobs.push_back(server.wait(id));
        double best = static_cast<double>(jobs.back().cycles);
        for (size_t i = 0; i < variants.size(); ++i) {
            bool ok = jobs[i].status == serve::JobStatus::Ok ||
                      jobs[i].status == serve::JobStatus::CacheHit;
            if (!ok)
                report.fail("%s/%s %s: %s (%s)", p.workload.c_str(),
                            p.input.c_str(), variants[i].label,
                            serve::jobStatusName(jobs[i].status),
                            jobs[i].error.c_str());
            report.row()
                .cell("workload", p.workload)
                .cell("input", p.input)
                .cell("variant", variants[i].label)
                .cell("cycles", jobs[i].cycles)
                .cell("normalized",
                      best / static_cast<double>(jobs[i].cycles))
                .cell("ok", ok);
        }
    }

    assertFleetTotals(report, server, submitted);
    return report.finish();
}
