/**
 * @file
 * Scheduler equivalence suite: the indexed-heap fast scheduler vs. the
 * retained linear-scan reference scheduler.
 *
 * The engine contract is that the fast path changes *host* cost only:
 * same deterministic argmin with lowest-id tie-break, same RNG
 * consumption under perturbation, same watchdog semantics. So for every
 * workload and scheduling regime — strict, seed-perturbed, and
 * fault-injected — the two schedulers must produce byte-identical
 * results, identical final cycle counts, and identical context-switch
 * counts, with the concurrency checker armed and reporting zero
 * violations on both. Any drift here means the fast scheduler is not a
 * pure optimization and invalidates every recorded experiment.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "serve/assets.hpp"
#include "serve/workloads.hpp"
#include "sim/checker.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace spmrt {
namespace {

constexpr Cycles kWindow = 8; ///< perturbation admission window

/** Scheduling regime of one equivalence run. */
struct Regime
{
    const char *name;
    bool perturb = false;
    uint64_t schedSeed = 0;
    bool fault = false;
    uint64_t faultSeed = 0;
};

std::vector<Regime>
makeRegimes()
{
    std::vector<Regime> regimes;
    regimes.push_back({"strict", false, 0, false, 0});
    for (uint64_t seed = 1; seed <= 4; ++seed)
        regimes.push_back({"perturbed", true, seed, false, 0});
    regimes.push_back({"faulted", false, 0, true, 5});
    regimes.push_back({"perturbed+faulted", true, 2, true, 9});
    return regimes;
}

/** Everything the two schedulers must agree on. */
struct Outcome
{
    uint64_t digest = 0;
    Cycles cycles = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
    uint64_t packets = 0;
    uint64_t walkedTraversals = 0;
    size_t violations = 0;
    std::string report;
};

/** The equivalence workloads (serve/workloads.hpp specs). */
const serve::FleetWorkload kWorkloads[] = {
    {"fib", 12},
    {"cilksort", 400, 900},
    {"uts", 7, 42, 2.2},
    {"nqueens", 6},
};

/**
 * Run @p workload once under @p regime on the chosen scheduler, on an
 * arbitrary machine geometry.
 */
Outcome
runOnceOn(const MachineConfig &cfg, const serve::FleetWorkload &workload,
          const Regime &regime, bool reference)
{
    serve::JobRequest req = serve::makeWorkloadRequest(workload);
    req.machine = cfg;
    if (regime.perturb) {
        req.scheduleSeed = regime.schedSeed;
        req.scheduleWindow = kWindow;
    }
    if (regime.fault) {
        req.faultSeed = regime.faultSeed;
        req.faultHorizon = 200'000;
    }
    Machine machine(req.machine);
    machine.engine().setReferenceScheduler(reference);
    serve::AssetCache assets;
    serve::JobResult result = serve::runJob(req, machine, assets);

    Outcome out;
    out.digest = result.digest;
    out.cycles = result.cycles;
    out.switches = machine.engine().switchCount();
    out.syncPoints = machine.engine().syncPointCount();
    out.packets = machine.mem().noc().packetsRouted();
    out.walkedTraversals = machine.mem().noc().walkedTraversals();
    if (ConcurrencyChecker *ck = machine.checker()) {
        out.violations = ck->violations().size();
        out.report = ck->report();
    }
    return out;
}

/** The historical single-geometry entry point: runs on tiny(). */
Outcome
runOnce(const serve::FleetWorkload &workload, const Regime &regime,
        bool reference)
{
    return runOnceOn(MachineConfig::tiny(), workload, regime, reference);
}

/** Assert @p fast and @p oracle ran the identical simulation, cleanly. */
void
expectSameRun(const Outcome &fast, const Outcome &oracle)
{
    EXPECT_EQ(fast.digest, oracle.digest) << "result diverged";
    EXPECT_EQ(fast.cycles, oracle.cycles) << "cycle counts diverged";
    EXPECT_EQ(fast.switches, oracle.switches) << "switch counts diverged";
    EXPECT_EQ(fast.syncPoints, oracle.syncPoints)
        << "syncPoint counts diverged";
    EXPECT_EQ(fast.violations, 0u) << "fast:\n" << fast.report;
    EXPECT_EQ(oracle.violations, 0u) << "reference:\n" << oracle.report;
}

class SchedulerEquivalence : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SchedulerEquivalence, FastMatchesReferenceBitForBit)
{
    const serve::FleetWorkload &workload = kWorkloads[GetParam()];
    SCOPED_TRACE(workload.kind);

    for (const Regime &regime : makeRegimes()) {
        SCOPED_TRACE(regime.name);
        Outcome fast = runOnce(workload, regime, false);
        Outcome oracle = runOnce(workload, regime, true);

        EXPECT_EQ(fast.digest, serve::workloadReference(workload))
            << regime.name << ": fast scheduler computed a wrong result";
        expectSameRun(fast, oracle);
    }
}

std::string
workloadName(const ::testing::TestParamInfo<size_t> &info)
{
    return kWorkloads[info.param].kind;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SchedulerEquivalence,
                         ::testing::Range<size_t>(0, std::size(kWorkloads)),
                         workloadName);

// ---- Free machine geometry: equivalence off the paper floorplan ----------

/**
 * A machine the paper never built: Y-ruched, single-edge LLC, dual
 * DRAM channel. Nothing in the scheduler-equivalence contract is
 * allowed to depend on the floorplan, so this leg crosses the fast
 * scheduler against the reference on such a machine, checker armed.
 */
MachineConfig
offPaperConfig()
{
    MachineConfig cfg = MachineConfig::small(); // 8x4, 32 cores
    cfg.rucheY = 2;
    cfg.dramChannels = 2;
    cfg.llcPlacement = LlcPlacement::Top;
    cfg.validate();
    return cfg;
}

TEST(GeometryEquivalence, OffPaperMachineMatchesSequentialBitForBit)
{
    const MachineConfig cfg = offPaperConfig();
    const Regime regimes[] = {
        {"strict", false, 0, false, 0},
        {"faulted", false, 0, true, 5},
    };
    for (size_t wi : {size_t{0}, size_t{1}}) { // fib, cilksort
        const serve::FleetWorkload &workload = kWorkloads[wi];
        SCOPED_TRACE(workload.kind);
        for (const Regime &regime : regimes) {
            SCOPED_TRACE(regime.name);
            Outcome fast = runOnceOn(cfg, workload, regime, false);
            Outcome oracle = runOnceOn(cfg, workload, regime, true);
            EXPECT_EQ(fast.digest, serve::workloadReference(workload))
                << "fast run computed a wrong result off-paper";
            expectSameRun(fast, oracle);
        }
    }
}

/**
 * The scale acceptance gate: the 32x32 four-channel big1024() preset
 * must run every equivalence workload byte-identically under both
 * schedulers — digests, cycle counts, and switch/syncPoint counts —
 * with the checker armed. A 1024-core machine is where a route table
 * compiled for the 16x8 floorplan, or a heap key too narrow for the
 * core ids, actually breaks.
 */
TEST(GeometryEquivalence, Big1024FastMatchesReference)
{
    const MachineConfig cfg = MachineConfig::big1024();
    const Regime strict{"strict", false, 0, false, 0};
    for (const serve::FleetWorkload &workload : kWorkloads) {
        SCOPED_TRACE(workload.kind);
        Outcome fast = runOnceOn(cfg, workload, strict, false);
        Outcome oracle = runOnceOn(cfg, workload, strict, true);
        EXPECT_EQ(fast.digest, serve::workloadReference(workload))
            << "fast run computed a wrong result on big1024";
        expectSameRun(fast, oracle);
    }
}

// ---- Memory fast paths vs. the fully-uncached reference ------------------

/**
 * Cross the memory hot paths under the fast scheduler against the
 * reference scheduler on the strict, perturbed and fault-injected
 * regimes. Every digest, cycle count, and switch/syncPoint count must
 * match, with the checker armed and silent — proving the local-SPM fast
 * path, burst accounting, and route tables stay pure host
 * optimizations under every interleaving the schedulers produce. The
 * route tables' own oracle is the per-hop walk in test_noc_routes.cpp.
 */
TEST(SchedulerEquivalence, MemoryFastPathsMatchUncachedReference)
{
    const Regime regimes[] = {
        {"strict", false, 0, false, 0},
        {"perturbed", true, 3, false, 0},
        {"faulted", false, 0, true, 7},
    };
    for (const serve::FleetWorkload &workload : kWorkloads) {
        SCOPED_TRACE(workload.kind);
        for (const Regime &regime : regimes) {
            SCOPED_TRACE(regime.name);
            Outcome fast = runOnce(workload, regime, false);
            Outcome oracle = runOnce(workload, regime, true);

            EXPECT_EQ(fast.digest, serve::workloadReference(workload));
            expectSameRun(fast, oracle);
        }
    }
}

/**
 * The per-hop fault queries must provably engage for every packet
 * whenever the fault plan carries link-delay windows, and for none when
 * it does not.
 */
TEST(SchedulerEquivalence, RouteFallbackEngagesDuringFaultWindows)
{
    const serve::FleetWorkload &workload = kWorkloads[0]; // fib

    FaultPlan probe = FaultPlan::chaos(5, MachineConfig::tiny());
    ASSERT_TRUE(probe.hasLinkDelays())
        << "chaos seed 5 must include link-delay windows for this test";

    Outcome faulted = runOnce(workload, {"faulted", false, 0, true, 5},
                              false);
    EXPECT_EQ(faulted.walkedTraversals, faulted.packets)
        << "a plan with link windows must be queried for every packet";
    EXPECT_GT(faulted.walkedTraversals, 0u);

    Outcome strict = runOnce(workload, {"strict", false, 0, false, 0},
                             false);
    EXPECT_EQ(strict.walkedTraversals, 0u)
        << "without link windows no packet queries the plan";
    EXPECT_GT(strict.packets, 0u);
}

// ---- Engine-level equivalence of the primitive operations ----------------

/** Drive raw engine primitives and compare the two schedulers' traces. */
struct EngineTrace
{
    std::vector<std::pair<CoreId, Cycles>> order;
    uint64_t switches = 0;
    Cycles maxTime = 0;
};

EngineTrace
interleaveTrace(bool reference, uint64_t perturb_seed)
{
    Engine engine(4, 64 * 1024);
    engine.setReferenceScheduler(reference);
    if (perturb_seed != 0)
        engine.perturbSchedule(perturb_seed, 4);
    EngineTrace trace;
    for (CoreId i = 0; i < 4; ++i) {
        engine.setBody(i, [&engine, &trace, i] {
            for (int k = 0; k < 20; ++k) {
                engine.advance(i, 3 + (i * 7 + k) % 5);
                engine.syncPoint(i);
                trace.order.emplace_back(i, engine.time(i));
            }
        });
    }
    engine.run();
    trace.switches = engine.switchCount();
    trace.maxTime = engine.maxTime();
    return trace;
}

TEST(SchedulerEquivalence, PrimitiveInterleavingsMatch)
{
    for (uint64_t seed : {0ull, 1ull, 2ull, 3ull}) {
        EngineTrace fast = interleaveTrace(false, seed);
        EngineTrace oracle = interleaveTrace(true, seed);
        EXPECT_EQ(fast.order, oracle.order) << "seed " << seed;
        EXPECT_EQ(fast.switches, oracle.switches) << "seed " << seed;
        EXPECT_EQ(fast.maxTime, oracle.maxTime) << "seed " << seed;
    }
}

TEST(SchedulerEquivalence, BlockUnblockMatches)
{
    // Core 0 parks; core 1 advances past it and wakes it at a later time;
    // both then interleave. Exercises heap erase/insert and the cached
    // other-min fold on unblock.
    auto run = [](bool reference) {
        Engine engine(2, 64 * 1024);
        engine.setReferenceScheduler(reference);
        EngineTrace trace;
        engine.setBody(0, [&engine, &trace] {
            engine.block(0);
            for (int k = 0; k < 10; ++k) {
                engine.advance(0, 2);
                engine.syncPoint(0);
                trace.order.emplace_back(0u, engine.time(0));
            }
        });
        engine.setBody(1, [&engine, &trace] {
            for (int k = 0; k < 10; ++k) {
                engine.advance(1, 5);
                engine.syncPoint(1);
                trace.order.emplace_back(1u, engine.time(1));
            }
            engine.unblock(0, 17);
        });
        engine.run();
        trace.switches = engine.switchCount();
        trace.maxTime = engine.maxTime();
        return trace;
    };
    EngineTrace fast = run(false);
    EngineTrace oracle = run(true);
    EXPECT_EQ(fast.order, oracle.order);
    EXPECT_EQ(fast.switches, oracle.switches);
    EXPECT_EQ(fast.maxTime, oracle.maxTime);
    EXPECT_EQ(fast.maxTime, 50u);
}

TEST(SchedulerEquivalence, MaxTimeIsLiveDuringARun)
{
    // maxTime() is O(1) via the high-water mark; it must still be exact
    // when sampled from inside guest code, where the running core can be
    // ahead of every fold point.
    Engine engine(2, 64 * 1024);
    Cycles sampled = 0;
    engine.setBody(0, [&engine, &sampled] {
        engine.advance(0, 100);
        sampled = engine.maxTime();
        engine.syncPoint(0);
    });
    engine.setBody(1, [&engine] {
        engine.advance(1, 40);
        engine.syncPoint(1);
    });
    engine.run();
    EXPECT_EQ(sampled, 100u);
    EXPECT_EQ(engine.maxTime(), 100u);
}

TEST(SchedulerEquivalence, SchedulerSelectionIsExplicit)
{
    Engine engine(1, 64 * 1024);
    bool initial = engine.referenceScheduler();
    engine.setReferenceScheduler(!initial);
    EXPECT_EQ(engine.referenceScheduler(), !initial);
    engine.setReferenceScheduler(initial);
    EXPECT_EQ(engine.referenceScheduler(), initial);
}

// One engine alternating the fast and reference schedulers between runs:
// the state one scheduler leaves behind (clocks, heap, cached minima,
// recycled coroutine stacks, a core parked and woken) must carry into the
// other. Each run must match the same run on an engine that never changes
// mode. The suite name is the one the host-parallel engine's tests used,
// when a mode change also switched the shard count.
TEST(ShardEngine, ReusableAcrossModeChanges)
{
    constexpr CoreId kCores = 4;
    auto runAll = [](const std::vector<bool> &modes) {
        Engine engine(kCores, 64 * 1024);
        std::vector<EngineTrace> traces;
        for (bool reference : modes) {
            engine.setReferenceScheduler(reference);
            EngineTrace trace;
            engine.setBody(0, [&engine, &trace] {
                engine.block(0);
                for (int k = 0; k < 3; ++k) {
                    engine.advance(0, 2);
                    engine.syncPoint(0);
                    trace.order.emplace_back(0u, engine.time(0));
                }
            });
            for (CoreId i = 1; i < kCores; ++i) {
                engine.setBody(i, [&engine, &trace, i] {
                    for (int k = 0; k < 3; ++k) {
                        engine.advance(i, 2 + i);
                        engine.syncPoint(i);
                        trace.order.emplace_back(i, engine.time(i));
                    }
                    if (i == kCores - 1)
                        engine.unblock(0, engine.time(i) + 5);
                });
            }
            engine.run();
            trace.switches = engine.switchCount();
            trace.maxTime = engine.maxTime();
            traces.push_back(std::move(trace));
        }
        return traces;
    };
    const std::vector<bool> mixed = {false, true, false, true, false};
    const std::vector<EngineTrace> switched = runAll(mixed);
    const std::vector<EngineTrace> fastOnly =
        runAll(std::vector<bool>(mixed.size(), false));
    const std::vector<EngineTrace> referenceOnly =
        runAll(std::vector<bool>(mixed.size(), true));
    ASSERT_EQ(switched.size(), mixed.size());
    for (size_t run = 0; run < mixed.size(); ++run) {
        EXPECT_EQ(switched[run].order.size(), 3u * kCores) << "run " << run;
        EXPECT_EQ(switched[run].order, fastOnly[run].order) << "run " << run;
        EXPECT_EQ(switched[run].order, referenceOnly[run].order)
            << "run " << run;
        EXPECT_EQ(switched[run].switches, fastOnly[run].switches)
            << "run " << run;
        EXPECT_EQ(switched[run].maxTime, fastOnly[run].maxTime)
            << "run " << run;
    }
    // Clocks persist across runs in every mode: core 3 advances 15 per
    // run, and core 0 wakes 5 cycles after it and then advances 6.
    EXPECT_EQ(switched.back().maxTime, 5u * 15u + 5u + 6u);
}

} // namespace
} // namespace spmrt
