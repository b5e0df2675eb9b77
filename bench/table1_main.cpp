/**
 * @file
 * Reproduces Table 1: simulated cycles and dynamic operation counts for
 * all nine workloads under the six runtime configurations (two static
 * stack variants and four work-stealing placement variants).
 *
 * Expected shape (paper): work-stealing matches or beats the static
 * runtime everywhere it applies, with the largest wins on irregular
 * inputs; dynamic instruction counts are higher under work-stealing
 * (spawn/steal overhead and idle-core steal attempts), and higher again
 * with the SPM task queue (failed steals get cheaper, so idle cores
 * issue more of them).
 */

#include "bench/rows.hpp"

using namespace spmrt;
using namespace spmrt::bench;

int
main(int argc, char **argv)
{
    Report report("table1_main", argc, argv);
    report.comment("Table 1: cycles (K) and dynamic ops (K) per workload "
                   "and runtime configuration");
    if (quickMode())
        report.comment("QUICK MODE: shrunken inputs");

    serve::AssetCache assets; // one generated input serves all six runs
    for (const WorkloadRow &row : table1Rows()) {
        if (!report.wants(row.workload + "/" + row.input))
            continue;
        serve::JobRequest base = serve::makeWorkloadRequest(row.spec);
        base.machine = MachineConfig{}; // the paper's 16x8 machine
        base.armChecker = false;        // a measurement, not an audit
        for (const Variant &variant : table1Variants()) {
            if (variant.isStatic && !row.hasStatic)
                continue;
            serve::JobRequest req = base;
            applyVariant(req, variant);
            Machine machine(req.machine);
            maybeArmTrace(machine);
            serve::JobResult result = serve::runJob(req, machine, assets);
            maybeWriteTrace(machine);
            const bool verified = result.digest == req.expectedDigest;
            if (!verified)
                report.fail("%s/%s under '%s' failed verification",
                            row.workload.c_str(), row.input.c_str(),
                            variant.label);
            report.row()
                .cell("workload", row.workload)
                .cell("input", row.input)
                .cell("config", variant.label)
                .cell("cycles_k", result.cycles / 1000.0)
                .cell("ops_k", machine.totalInstructions() / 1000.0)
                .cell("steals",
                      machine.totalStat(&RuntimeStats::stealHits))
                .cell("ok", verified);
        }
    }
    return report.finish();
}
