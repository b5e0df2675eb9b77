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
 * of the paper restated as a fault-tolerance property. Results are
 * checked bit-identical between fault-free and perturbed runs: the
 * injection changes timing only.
 */

#include "bench/support.hpp"
#include "graph/csr.hpp"
#include "runtime/static_runtime.hpp"
#include "sim/fault.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

struct RunOut
{
    Cycles cycles;
    std::vector<uint32_t> result;
};

/** Run the reference loop under one scheduler, optionally perturbed. */
RunOut
runLoop(bool use_static, int64_t n, FaultPlan *plan)
{
    Machine machine{MachineConfig::small()};
    maybeArmTrace(machine);
    Addr out = machine.dramAllocArray<uint32_t>(n);
    if (plan != nullptr) {
        plan->resetInjected();
        machine.setFaultPlan(plan);
    }
    auto body = [&](TaskContext &tc) {
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
    Cycles cycles;
    if (use_static) {
        StaticRuntime rt(machine, RuntimeConfig::full());
        cycles = rt.run(body);
    } else {
        WorkStealingRuntime rt(machine, RuntimeConfig::full());
        cycles = rt.run(body);
    }
    machine.setFaultPlan(nullptr);
    maybeWriteTrace(machine);
    return {cycles, downloadArray<uint32_t>(machine, out,
                                            static_cast<uint32_t>(n))};
}

/** Whole-run straggler plan: each core in @p cores pays +extra per op. */
FaultPlan
stragglerPlan(const std::vector<CoreId> &cores, Cycles extra)
{
    FaultPlan plan;
    for (CoreId core : cores)
        plan.stallCore(core, 0, ~0ull, extra);
    return plan;
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

    // The fault-free baseline always runs: slowdown ratios and the
    // bit-identical result check need it, even under --filter.
    RunOut static_base, ws_base;
    for (size_t c = 0; c < cases.size(); ++c) {
        if (c > 0 && !report.wants(labels[c]))
            continue;
        FaultPlan plan = stragglerPlan(cases[c], extra);
        FaultPlan plan2 = plan; // independent copy for the second run
        RunOut st = runLoop(true, n, cases[c].empty() ? nullptr : &plan);
        RunOut ws =
            runLoop(false, n, cases[c].empty() ? nullptr : &plan2);
        if (c == 0) {
            static_base = st;
            ws_base = ws;
        }
        if (st.result != static_base.result ||
            ws.result != ws_base.result) {
            report.fail("results changed under fault injection (%s)",
                        labels[c]);
            return report.finish();
        }
        report.row()
            .cell("stragglers", labels[c])
            .cell("static_cycles", st.cycles)
            .cell("static_slowdown",
                  static_cast<double>(st.cycles) / static_base.cycles)
            .cell("ws_cycles", ws.cycles)
            .cell("ws_slowdown",
                  static_cast<double>(ws.cycles) / ws_base.cycles);
    }

    report.comment("Expectation: static slowdown tracks the straggler "
                   "slowdown factor; work stealing re-balances around "
                   "the slow cores and degrades much less.");
    return report.finish();
}
