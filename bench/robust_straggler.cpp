/**
 * @file
 * Robustness experiment: straggler cores under static vs. dynamic
 * scheduling.
 *
 * A FaultPlan slows a few cores for the whole run (+extra cycles on
 * every charged operation). The static runtime's fixed chunk assignment
 * puts 1/P of the iterations on each straggler, so the run lengthens by
 * roughly the stragglers' slowdown factor; the work-stealing runtime
 * re-balances reactively — healthy cores steal the straggler's share —
 * and degrades far less. That gap is the dynamic-parallelism argument
 * of the paper restated as a fault-tolerance property. Every cell is one
 * job of the bench's fleet batch (fleet_util.hpp's runCells), and every
 * result is checked against the host digest of the fault-free output:
 * the injection changes timing only.
 */

#include <memory>

#include "bench/fleet_util.hpp"
#include "graph/csr.hpp"
#include "serve/workloads.hpp"
#include "sim/fault.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/**
 * The reference loop under one scheduler as a fleet job: @p n
 * iterations of 40 cycles each, each storing a hash of its index into a
 * DRAM array. Every core in @p stragglers pays +@p extra cycles per op
 * for the whole run. The output is checked against its host digest, so
 * a result the injection changed fails the cell.
 */
serve::JobRequest
loopRequest(const char *label, bool use_static, int64_t n,
            const std::vector<CoreId> &stragglers, Cycles extra)
{
    std::vector<uint32_t> expected(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        expected[i] = static_cast<uint32_t>(i * 2654435761u);

    serve::JobRequest req;
    req.name = log::format("robust_straggler/%s/%s", label,
                           use_static ? "static" : "ws");
    req.machine = MachineConfig::small();
    req.runtime = RuntimeConfig::full();
    req.staticRuntime = use_static;
    req.armChecker = false;
    req.expectedDigest = serve::fnvDigest(expected);
    req.hasExpectedDigest = true;
    req.prepare = [n, stragglers, extra](Machine &machine,
                                         serve::AssetCache &) {
        Addr out = machine.dramAllocArray<uint32_t>(n);
        // Installed before the runtime is built, like a chaos plan; the
        // root closure keeps it alive until runJob clears it.
        auto plan = std::make_shared<FaultPlan>();
        for (CoreId core : stragglers)
            plan->stallCore(core, 0, ~0ull, extra);
        if (!stragglers.empty())
            machine.setFaultPlan(plan.get());
        serve::PreparedJob prep;
        prep.root = [n, out, plan](TaskContext &tc) {
            ForOptions opts;
            opts.grain = 4;
            parallelFor(
                tc, 0, n,
                [out](TaskContext &btc, int64_t i) {
                    btc.core().tick(40); // the "work" of one iteration
                    btc.core().store<uint32_t>(
                        out + static_cast<Addr>(i) * 4,
                        static_cast<uint32_t>(i * 2654435761u));
                },
                opts);
        };
        prep.digest = [n, out](Machine &m) {
            return serve::fnvDigest(downloadArray<uint32_t>(
                m, out, static_cast<uint32_t>(n)));
        };
        return prep;
    };
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("robust_straggler", argc, argv);
    const int64_t n = scaled<int64_t>(4096, 512);
    const Cycles extra = 80; // ~3x slower per 40-cycle iteration

    report.comment("Robustness: straggler cores, static vs. "
                   "work-stealing schedule");
    report.comment("%" PRId64 " iterations x 40 cycles on 32 cores; "
                   "stragglers pay +%" PRIu64 " cycles per op",
                   n, extra);

    // Stragglers avoid core 0 (it runs the root task under both
    // runtimes, which would conflate scheduler and root slowdown).
    const std::vector<std::vector<CoreId>> cases = {
        {}, {3}, {3, 7, 13, 21}};
    const char *labels[] = {"none", "1 straggler", "4 stragglers"};

    if (report.listing()) {
        for (const char *label : labels)
            (void)report.wants(label);
        return report.finish();
    }

    // The fault-free baseline always runs: the slowdown ratios need it,
    // even under --filter. Each case is a (static, ws) pair of cells.
    std::vector<Cell> cells;
    std::vector<size_t> ran;
    for (size_t c = 0; c < cases.size(); ++c) {
        if (c > 0 && !report.wants(labels[c]))
            continue;
        cells.push_back(loopRequest(labels[c], true, n, cases[c], extra));
        cells.push_back(loopRequest(labels[c], false, n, cases[c], extra));
        ran.push_back(c);
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    const Cycles static_base = results[0].job.cycles;
    const Cycles ws_base = results[1].job.cycles;
    for (size_t k = 0; k < ran.size(); ++k) {
        const Cycles st = results[2 * k].job.cycles;
        const Cycles ws = results[2 * k + 1].job.cycles;
        report.row()
            .cell("stragglers", labels[ran[k]])
            .cell("static_cycles", st)
            .cell("static_slowdown", static_cast<double>(st) / static_base)
            .cell("ws_cycles", ws)
            .cell("ws_slowdown", static_cast<double>(ws) / ws_base);
    }

    report.comment("Expectation: static slowdown tracks the straggler "
                   "slowdown factor; work stealing re-balances around "
                   "the slow cores and degrades much less.");
    return report.finish();
}
