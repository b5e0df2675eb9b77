/**
 * @file
 * Reproduces Fig. 7: Fib speedup across the four data-placement variants
 * of the work-stealing runtime, plus the Fib-S estimate of the software
 * 2-instruction stack-overflow checking scheme.
 *
 * Every (series, variant) cell is one supervised FleetServer job: the
 * whole figure is submitted up front, cells parallelize across host
 * workers behind the hang watchdog, each result is checked against the
 * registry's host reference digest, and the batch totals are asserted
 * per status at the end.
 *
 * Expected shape (paper): both-in-DRAM slowest; SPM stack matters more
 * than SPM queue; both-in-SPM fastest; Fib-S slightly below Fib for the
 * SPM-stack variants and identical when the stack is in DRAM... (the
 * paper's Fib-S bar equals Fib when everything is in DRAM because the
 * overflow check never runs a stack in SPM).
 */

#include "bench/fleet_util.hpp"
#include "serve/workloads.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** One Fig. 7 cell (series x placement variant) as a fleet job. */
serve::JobRequest
cellRequest(const char *series, const Variant &variant, uint32_t n)
{
    serve::JobRequest req = serve::makeWorkloadRequest({"fib", n});
    req.name = log::format("fig07/%s/%s", series, variant.label);
    req.cacheKey = req.name;
    req.machine = MachineConfig{};
    req.runtime = variant.cfg;
    req.runtime.swOverflowCheck = std::string(series) == "Fib-S";
    req.armChecker = false;
    traceJob(req);
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("fig07_fib_variants", argc, argv);
    const uint32_t n = scaled<uint32_t>(18, 12);
    report.comment("Fig. 7: fib(%u) across work-stealing placement "
                   "variants; speedup is relative to the naive "
                   "both-in-DRAM runtime",
                   n);

    serve::FleetServer server(benchFleetConfig());
    report.comment("batch of supervised fleet jobs across %u host workers",
                   server.workerCount());

    // Submit the whole figure up front, then settle cells in order.
    struct PendingCell
    {
        const char *series;
        const char *variant;
        serve::FleetServer::JobId id;
    };
    std::vector<PendingCell> pending;
    for (const char *series : {"Fib", "Fib-S"}) {
        for (const Variant &variant : wsVariants()) {
            if (!report.wants(std::string(series) + "/" + variant.label))
                continue;
            pending.push_back(
                {series, variant.label,
                 server.submit(cellRequest(series, variant, n))});
        }
    }

    Cycles baseline = 0;
    for (const PendingCell &cell : pending) {
        serve::JobReport job = server.wait(cell.id);
        if (job.status != serve::JobStatus::Ok &&
            job.status != serve::JobStatus::CacheHit)
            report.fail("%s/%s: %s (%s)", cell.series, cell.variant,
                        serve::jobStatusName(job.status),
                        job.error.c_str());
        if (baseline == 0)
            baseline = job.cycles;
        report.row()
            .cell("series", cell.series)
            .cell("variant", cell.variant)
            .cell("cycles", job.cycles)
            .cell("speedup",
                  static_cast<double>(baseline) /
                      static_cast<double>(job.cycles));
    }

    assertFleetTotals(report, server, pending.size());
    report.comment("paper: best variant ~2x the naive one; Fib-S "
                   "slightly below Fib");
    return report.finish();
}
