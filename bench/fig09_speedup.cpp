/**
 * @file
 * Reproduces Fig. 9: speedup of every runtime configuration over the
 * static runtime with stack in SPM, for the workloads that have a static
 * baseline.
 *
 * Every (workload, variant) cell is one supervised FleetServer job —
 * static cells run the static runtime via JobRequest::staticRuntime —
 * so the whole figure is a single batch submitted up front: cells
 * parallelize across host workers, each run sits behind the hang
 * watchdog, each result is checked against the registry's digest, and
 * the batch totals are asserted per status at the end (as fleet_batch
 * does), so a shed or quarantined cell cannot silently vanish from the
 * figure.
 *
 * Expected shape (paper): 1.2x-28.5x speedups for irregular inputs
 * (PageRank/BFS/SpMV/SpMT on skewed inputs, NQueens, UTS), minimal
 * overhead or slight gains on balanced ones (MatMul, uniform graphs);
 * the SPM placement variants add up to ~25% over the naive runtime.
 */

#include "bench/fleet_util.hpp"
#include "bench/rows.hpp"
#include "serve/server.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** One Fig. 9 cell (workload x runtime variant) as a fleet job. */
serve::JobRequest
cellRequest(const WorkloadRow &row, const Variant &variant,
            const MachineConfig &machine_cfg)
{
    serve::JobRequest req = serve::makeWorkloadRequest(row.spec);
    req.name = log::format("fig09/%s/%s/%s", row.workload.c_str(),
                           row.input.c_str(), variant.label);
    req.cacheKey = req.name;
    req.machine = machine_cfg;
    applyVariant(req, variant);
    req.armChecker = false;
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("fig09_speedup", argc, argv);
    report.comment("Fig. 9: speedup over the static runtime (stack in "
                   "SPM)");
    if (quickMode())
        report.comment("QUICK MODE: shrunken inputs");

    serve::FleetServer server(benchFleetConfig());
    report.comment("batch of supervised fleet jobs across %u host workers",
                   server.workerCount());

    // Submit the whole figure up front, then settle row by row.
    MachineConfig machine_cfg;
    const std::vector<Variant> variants = table1Variants();
    struct PendingRow
    {
        std::string workload;
        std::string input;
        std::vector<serve::FleetServer::JobId> ids;
    };
    std::vector<PendingRow> pending;
    uint64_t submitted = 0;
    for (const WorkloadRow &row : table1Rows()) {
        if (!row.hasStatic)
            continue; // Fig. 10 covers the spawn-sync workloads
        // One representative input per workload (the headline one);
        // table1_main covers the full input matrix.
        bool representative =
            (row.workload == "MatMul" && row.input == "128") ||
            ((row.workload == "PageRank" || row.workload == "BFS" ||
              row.workload == "SpMV" || row.workload == "SpMT") &&
             row.input == "email") ||
            (row.workload == "NQueens" && row.input != "6") ||
            row.workload == "UTS";
        if (!representative)
            continue;
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
        double baseline = 0;
        std::vector<double> cycles(variants.size(), 0);
        bool all_ok = true;
        for (size_t i = 0; i < variants.size(); ++i) {
            serve::JobReport job = server.wait(p.ids[i]);
            bool ok = job.status == serve::JobStatus::Ok ||
                      job.status == serve::JobStatus::CacheHit;
            if (!ok)
                report.fail("%s/%s %s: %s (%s)", p.workload.c_str(),
                            p.input.c_str(), variants[i].label,
                            serve::jobStatusName(job.status),
                            job.error.c_str());
            all_ok = all_ok && ok;
            cycles[i] = static_cast<double>(job.cycles);
            if (std::string(variants[i].label) == "static spm-stack")
                baseline = static_cast<double>(job.cycles);
        }
        Report &r = report.row()
                         .cell("workload", p.workload)
                         .cell("input", p.input);
        for (size_t i = 0; i < variants.size(); ++i)
            r.cell(variants[i].label,
                   cycles[i] != 0 ? baseline / cycles[i] : 0.0);
        r.cell("ok", all_ok);
    }

    assertFleetTotals(report, server, submitted);
    report.comment("paper: up to 3.94x for statically schedulable "
                   "workloads, up to 28.5x for dynamic ones");
    return report.finish();
}
