/**
 * @file
 * Chaos tests: deterministic fault injection over real workloads.
 *
 * The invariant under test is the one fault.hpp promises: perturbations
 * change only timing, so (a) every run still terminates and produces
 * bit-identical results to the fault-free run, and (b) the same
 * (workload, seed, FaultPlan) triple gives identical cycle counts across
 * fresh runs. A violation of (a) is a runtime protocol bug; a violation
 * of (b) is nondeterminism in the simulator. The suite also exercises
 * the engine watchdog, which must fire on a genuine quiescence failure,
 * replay it byte for byte on a fresh machine, and stay quiet on healthy
 * runs.
 *
 * The fault matrix itself is routed through the FleetServer: each
 * (workload, chaos seed) cell is one supervised job with the standalone
 * digest as its expected reference, and the bit-identical-replay leg
 * rides on the server's cache validation — a bypassCache recompute whose
 * digest or cycle count disagrees with the stored entry comes back as
 * digest_mismatch, so an Ok status *is* the determinism assertion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "runtime/ws_runtime.hpp"
#include "serve/server.hpp"
#include "serve/workloads.hpp"
#include "sim/checker.hpp"
#include "sim/fault.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/fib.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace {

using namespace spmrt::workloads;

// ---- FaultPlan unit behaviour -------------------------------------------

TEST(FaultPlan, QueriesRespectWindows)
{
    FaultPlan plan;
    plan.stallCore(2, 100, 200, 5)
        .delayLinks(1, 0, 50, 60, 7)
        .slowLlcBank(3, 10, 20, 11);

    EXPECT_EQ(plan.coreStall(2, 99), 0u);
    EXPECT_EQ(plan.coreStall(2, 100), 5u);
    EXPECT_EQ(plan.coreStall(2, 199), 5u);
    EXPECT_EQ(plan.coreStall(2, 200), 0u) << "end is exclusive";
    EXPECT_EQ(plan.coreStall(1, 150), 0u) << "other cores unaffected";

    EXPECT_EQ(plan.linkDelay(1, 0, 55), 7u);
    EXPECT_EQ(plan.linkDelay(0, 1, 55), 0u);
    EXPECT_EQ(plan.llcDelay(3, 15), 11u);
    EXPECT_EQ(plan.llcDelay(2, 15), 0u);

    EXPECT_EQ(plan.injected().coreStallCycles, 10u);
    EXPECT_EQ(plan.injected().linkDelayCycles, 7u);
    EXPECT_EQ(plan.injected().llcDelayCycles, 11u);
    plan.resetInjected();
    EXPECT_EQ(plan.injected().coreStallCycles, 0u);
}

TEST(FaultPlan, LockHolderDelayFiresPeriodically)
{
    FaultPlan plan;
    plan.delayLockHolder(4, 3, 50);
    // Acquisitions 1..6 by core 4: the 3rd and 6th are delayed.
    for (int i = 1; i <= 6; ++i) {
        Cycles extra = plan.lockHolderDelay(4);
        EXPECT_EQ(extra, i % 3 == 0 ? 50u : 0u) << "acquisition " << i;
    }
    // Another core's acquisitions never hit.
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(plan.lockHolderDelay(5), 0u);
    EXPECT_EQ(plan.injected().lockHolderHits, 2u);
    EXPECT_EQ(plan.injected().lockHolderCycles, 100u);
}

TEST(FaultPlan, ChaosFactoryIsSeedDeterministic)
{
    MachineConfig cfg = MachineConfig::tiny();
    FaultPlan a = FaultPlan::chaos(7, cfg);
    FaultPlan b = FaultPlan::chaos(7, cfg);
    FaultPlan c = FaultPlan::chaos(8, cfg);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_NE(a.describe(), c.describe());
    // Generated windows must target real resources.
    for (const auto &w : a.coreStalls())
        EXPECT_LT(w.core, cfg.numCores());
    for (const auto &w : a.linkDelays()) {
        EXPECT_LT(w.x, cfg.meshCols);
        EXPECT_LT(w.y, cfg.meshRows);
    }
    for (const auto &w : a.llcSlows())
        EXPECT_LT(w.bank, cfg.llcBanks);
}

// ---- Chaos matrix over real workloads -----------------------------------

/**
 * One timed work-stealing run, optionally perturbed by @p plan. Every
 * chaos run doubles as a race-checker run: widened critical sections and
 * shifted steal timings must leave the protocol violation-free. (The
 * checker charges no cycles, so arming it here does not disturb the
 * bit-identical-cycles assertions below.)
 */
template <typename Kernel>
Cycles
runPerturbed(Machine &machine, FaultPlan *plan, const Kernel &kernel)
{
    ConcurrencyChecker *ck = machine.armChecker();
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    if (plan != nullptr)
        machine.setFaultPlan(plan);
    Cycles cycles = rt.run([&](TaskContext &tc) { kernel(tc); });
    machine.setFaultPlan(nullptr);
    EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
    return cycles;
}

constexpr uint64_t kChaosSeeds[] = {1, 2, 3, 4};

/** Sum of all injected-delay counters of @p plan. */
uint64_t
injectedTotal(const FaultPlan &plan)
{
    const auto &s = plan.injected();
    return s.coreStallCycles + s.linkDelayCycles + s.llcDelayCycles +
           s.lockHolderCycles;
}

/**
 * Run the chaos matrix for @p spec through the fleet server: one
 * supervised job per seed (expected digest = host reference, checker
 * armed) plus a bypassCache replay that the server validates to the
 * cycle against the cached first run.
 */
void
runFleetFaultMatrix(const serve::FleetWorkload &spec, Cycles horizon)
{
    serve::FleetConfig fcfg;
    fcfg.workers = 2;
    serve::FleetServer server(fcfg);
    for (uint64_t seed : kChaosSeeds) {
        serve::JobRequest req = serve::makeWorkloadRequest(spec);
        req.faultSeed = seed;
        req.faultHorizon = horizon;
        serve::JobReport a = server.wait(server.submit(std::move(req)));
        // Ok subsumes the old per-run assertions: a wrong result
        // reports digest_mismatch, a race reports checker_violation.
        EXPECT_EQ(a.status, serve::JobStatus::Ok)
            << spec.kind << " chaos seed " << seed << ": " << a.error;

        serve::JobRequest again = serve::makeWorkloadRequest(spec);
        again.faultSeed = seed;
        again.faultHorizon = horizon;
        again.bypassCache = true;
        serve::JobReport b = server.wait(server.submit(std::move(again)));
        EXPECT_EQ(b.status, serve::JobStatus::Ok)
            << spec.kind << " nondeterministic under chaos seed " << seed
            << ": " << b.error;
        EXPECT_EQ(b.cycles, a.cycles);
    }
    EXPECT_EQ(server.totals().failures, 0u);
}

TEST(Chaos, FibBitIdenticalUnderFaultMatrix)
{
    MachineConfig mcfg = MachineConfig::tiny();
    auto run = [&](FaultPlan *plan, Cycles *cycles) {
        Machine machine(mcfg);
        Addr out = machine.dramAlloc(8, 8);
        *cycles = runPerturbed(machine, plan, [&](TaskContext &tc) {
            fibKernel(tc, 13, out);
        });
        return machine.mem().peekAs<int64_t>(out);
    };

    // Standalone base run: sets the horizon and anchors the reference.
    Cycles base_cycles = 0;
    int64_t base = run(nullptr, &base_cycles);
    EXPECT_EQ(base, fibReference(13));
    Cycles horizon = std::max<Cycles>(base_cycles, 4096);

    // One standalone perturbed run proves the plans inject something —
    // otherwise the matrix is not testing what it claims.
    FaultPlan probe = FaultPlan::chaos(kChaosSeeds[0], mcfg, horizon);
    Cycles probe_cycles = 0;
    EXPECT_EQ(run(&probe, &probe_cycles), base) << probe.describe();
    EXPECT_GT(injectedTotal(probe), 0u)
        << "no plan perturbed anything; the matrix "
           "is not testing what it claims";

    runFleetFaultMatrix({"fib", 13, 0, 0.0}, horizon);
}

TEST(Chaos, CilksortBitIdenticalUnderFaultMatrix)
{
    constexpr uint32_t kN = 600;
    Machine machine(MachineConfig::tiny());
    CilkSortData data = cilksortSetup(machine, kN, 900);
    Cycles base_cycles = runPerturbed(machine, nullptr, [&](TaskContext &tc) {
        cilksortKernel(tc, data);
    });
    std::vector<uint32_t> base =
        downloadArray<uint32_t>(machine, data.data, kN);
    EXPECT_TRUE(std::is_sorted(base.begin(), base.end()));

    runFleetFaultMatrix({"cilksort", kN, 900, 0.0},
                        std::max<Cycles>(base_cycles, 4096));
}

TEST(Chaos, UtsBitIdenticalUnderFaultMatrix)
{
    UtsParams params = UtsParams::geometric(8, 2.5, 42);
    Machine machine(MachineConfig::tiny());
    UtsData data = utsSetup(machine, params);
    Cycles base_cycles = runPerturbed(machine, nullptr, [&](TaskContext &tc) {
        utsKernel(tc, data);
    });
    EXPECT_EQ(utsResult(machine, data), utsReference(params));

    runFleetFaultMatrix({"uts", 8, 42, 2.5},
                        std::max<Cycles>(base_cycles, 4096));
}

TEST(Chaos, WholeRunStragglerSlowsRunNotResult)
{
    // A core stalled for the entire run must cost wall-clock cycles and
    // change nothing else — the injection visibly has a timing effect.
    MachineConfig mcfg = MachineConfig::tiny();
    auto run = [&](FaultPlan *plan, Cycles *cycles) {
        Machine machine(mcfg);
        Addr out = machine.dramAlloc(8, 8);
        *cycles = runPerturbed(machine, plan, [&](TaskContext &tc) {
            fibKernel(tc, 12, out);
        });
        return machine.mem().peekAs<int64_t>(out);
    };
    Cycles base_cycles = 0;
    int64_t base = run(nullptr, &base_cycles);

    FaultPlan plan;
    plan.stallCore(1, 0, ~0ull, 3); // +3 cycles on every op, forever
    Cycles slow_cycles = 0;
    EXPECT_EQ(run(&plan, &slow_cycles), base);
    EXPECT_GT(plan.injected().coreStallCycles, 0u);
    EXPECT_GT(slow_cycles, base_cycles)
        << "a permanently stalled core should lengthen the run";
}

// ---- Watchdog -----------------------------------------------------------

TEST(ChaosDeathTest, WatchdogFiresOnQuiescenceFailure)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine machine(MachineConfig::tiny());
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.watchdogCycles = 100'000;
    WorkStealingRuntime rt(machine, cfg);
    // A ready count with no matching child: the root waits forever, the
    // other cores steal-spin forever, no task ever retires. The watchdog
    // must convert this hang into a panic with a structured dump.
    EXPECT_DEATH(rt.run([](TaskContext &tc) {
        tc.setReadyCount(1);
        tc.waitChildren();
    }),
                 "watchdog");
}

TEST(Chaos, SupervisedWatchdogThrowsCatchableSimAbort)
{
    // With a supervisor installed, the same quiescence failure that
    // panics above must instead surface as a typed, catchable SimAbort
    // carrying a structured runtime dump — thrown on the host stack,
    // never across a guest coroutine.
    Machine machine(MachineConfig::tiny());
    machine.engine().supervise(true);
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.watchdogCycles = 100'000;
    WorkStealingRuntime rt(machine, cfg);
    try {
        rt.run([](TaskContext &tc) {
            tc.setReadyCount(1);
            tc.waitChildren();
        });
        FAIL() << "supervised hang did not abort";
    } catch (const SimAbort &abort) {
        EXPECT_NE(abort.summary().find("watchdog"), std::string::npos)
            << abort.summary();
        EXPECT_FALSE(abort.dump().empty())
            << "hang aborts must carry a runtime state dump";
    }
}

/**
 * Run @p req once on a fresh supervised machine, as a fleet job does,
 * and return the SimAbort its hang raises.
 */
SimAbort
supervisedHang(const serve::JobRequest &req)
{
    Machine machine(req.machine);
    machine.engine().supervise(true);
    serve::AssetCache assets;
    try {
        serve::runJob(req, machine, assets);
    } catch (const SimAbort &abort) {
        return abort;
    }
    ADD_FAILURE() << req.name << " did not hang";
    return SimAbort("", "");
}

TEST(Chaos, SupervisedHangIsReproducible)
{
    // A hang is a pure function of its spec: a second run on a fresh
    // machine replays the same summary and dump byte for byte, which is
    // why the fleet runs every job once.
    serve::JobRequest denial;
    denial.name = "hang/denial";
    denial.runtime.watchdogCycles = 60'000;
    denial.armChecker = false;
    denial.prepare = [](Machine &, serve::AssetCache &) {
        serve::PreparedJob prep;
        prep.root = [](TaskContext &tc) {
            tc.setReadyCount(1);
            tc.waitChildren();
        };
        return prep;
    };
    // Core 0 stalls 1M cycles per operation against a 60k-cycle bound.
    serve::JobRequest straggler = denial;
    straggler.name = "hang/straggler";
    straggler.prepare = [](Machine &machine, serve::AssetCache &) {
        auto plan = std::make_shared<FaultPlan>();
        plan->stallCore(0, 0, ~0ull, 1'000'000);
        machine.setFaultPlan(plan.get());
        Addr out = machine.dramAlloc(8, 8);
        serve::PreparedJob prep;
        prep.root = [plan, out](TaskContext &tc) {
            fibKernel(tc, 10, out);
        };
        return prep;
    };
    for (const serve::JobRequest &req : {denial, straggler}) {
        SimAbort first = supervisedHang(req);
        SimAbort second = supervisedHang(req);
        EXPECT_NE(first.summary().find("watchdog"), std::string::npos)
            << req.name << ": " << first.summary();
        EXPECT_FALSE(first.dump().empty()) << req.name;
        EXPECT_EQ(first.summary(), second.summary()) << req.name;
        EXPECT_EQ(first.dump(), second.dump()) << req.name;
    }
}

TEST(Chaos, WatchdogStaysQuietOnHealthyRun)
{
    Machine machine(MachineConfig::tiny());
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.watchdogCycles = 1'000'000; // tight but fair for fib(12)
    Addr out = machine.dramAlloc(8, 8);
    WorkStealingRuntime rt(machine, cfg);
    rt.run([&](TaskContext &tc) { fibKernel(tc, 12, out); });
    EXPECT_EQ(machine.mem().peekAs<int64_t>(out), fibReference(12));
}

} // namespace
} // namespace spmrt
