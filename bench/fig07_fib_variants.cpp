/**
 * @file
 * Reproduces Fig. 7: Fib speedup across the four data-placement variants
 * of the work-stealing runtime, plus the Fib-S estimate of the software
 * 2-instruction stack-overflow checking scheme.
 *
 * Every (series, variant) cell is one job of the bench's fleet batch
 * (fleet_util.hpp's runCells), checked against the registry's host
 * reference digest.
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
    req.machine = MachineConfig{};
    req.runtime = variant.cfg;
    req.runtime.swOverflowCheck = std::string(series) == "Fib-S";
    req.armChecker = false;
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

    std::vector<Cell> cells;
    std::vector<std::pair<const char *, const char *>> labels;
    for (const char *series : {"Fib", "Fib-S"}) {
        for (const Variant &variant : wsVariants()) {
            if (!report.wants(std::string(series) + "/" + variant.label))
                continue;
            cells.push_back(cellRequest(series, variant, n));
            labels.emplace_back(series, variant.label);
        }
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    Cycles baseline = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const Cycles cycles = results[i].job.cycles;
        if (baseline == 0)
            baseline = cycles;
        report.row()
            .cell("series", labels[i].first)
            .cell("variant", labels[i].second)
            .cell("cycles", cycles)
            .cell("speedup", static_cast<double>(baseline) /
                                 static_cast<double>(cycles));
    }

    report.comment("paper: best variant ~2x the naive one; Fib-S "
                   "slightly below Fib");
    return report.finish();
}
