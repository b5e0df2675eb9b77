/**
 * @file
 * Integration tests across modules: multi-kernel sequences on one
 * machine, machine/runtime reuse, active-core scaling, configuration
 * equivalences (placement variants must change timing, never results),
 * and engine block/unblock behaviour.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "graph/generators.hpp"
#include "matrix/generators.hpp"
#include "workloads/bfs.hpp"
#include "workloads/fib.hpp"
#include "workloads/matmul.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/pagerank.hpp"

namespace spmrt {
namespace {

using namespace spmrt::workloads;

TEST(Integration, PageRankThenBfsOnSharedGraph)
{
    // Two different kernels over the same uploaded graph, run back to
    // back on one machine with one runtime.
    HostGraph graph = genUniformRandom(300, 6, 42);
    Machine machine(MachineConfig::tiny());
    PageRankData pagerank = pagerankSetup(machine, graph);
    BfsData bfs = bfsSetup(machine, graph, 0);
    WorkStealingRuntime rt(machine, RuntimeConfig::full());

    rt.run([&](TaskContext &tc) { pagerankKernel(tc, pagerank, 2); });
    rt.run([&](TaskContext &tc) { bfsKernel(tc, bfs); });

    EXPECT_TRUE(pagerankVerify(machine, pagerank, graph, 2));
    EXPECT_TRUE(bfsVerify(machine, bfs, graph));
}

TEST(Integration, StaticAndDynamicRuntimesShareAMachine)
{
    HostGraph graph = genUniformRandom(200, 5, 43);
    Machine machine(MachineConfig::tiny());
    PageRankData first = pagerankSetup(machine, graph);
    PageRankData second = pagerankSetup(machine, graph);
    {
        StaticRuntime rt(machine, RuntimeConfig::full());
        rt.run([&](TaskContext &tc) { pagerankKernel(tc, first, 1); });
    }
    {
        WorkStealingRuntime rt(machine, RuntimeConfig::full());
        rt.run([&](TaskContext &tc) { pagerankKernel(tc, second, 1); });
    }
    EXPECT_TRUE(pagerankVerify(machine, first, graph, 1));
    EXPECT_TRUE(pagerankVerify(machine, second, graph, 1));
}

class ActiveCoresTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ActiveCoresTest, CorrectWithRestrictedWorkers)
{
    uint32_t active = GetParam();
    Machine machine(MachineConfig::small()); // 32 cores
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.activeCores = active;
    NQueensData data = nqueensSetup(machine, 6);
    WorkStealingRuntime rt(machine, cfg);
    EXPECT_EQ(rt.activeCores(), active == 0 ? machine.numCores() : active);
    rt.run([&](TaskContext &tc) { nqueensKernel(tc, data); });
    EXPECT_EQ(nqueensResult(machine, data), nqueensReference(6));
}

INSTANTIATE_TEST_SUITE_P(Counts, ActiveCoresTest,
                         ::testing::Values(1, 2, 3, 8, 31, 32, 0));

TEST(Integration, MoreActiveCoresRunFaster)
{
    auto run_with = [](uint32_t active) {
        Machine machine(MachineConfig::small());
        RuntimeConfig cfg = RuntimeConfig::full();
        cfg.activeCores = active;
        WorkStealingRuntime rt(machine, cfg);
        return rt.run([](TaskContext &tc) {
            ForOptions opts;
            opts.grain = 4;
            parallelFor(
                tc, 0, 512,
                [](TaskContext &btc, int64_t) { btc.core().tick(200); },
                opts);
        });
    };
    Cycles one = run_with(1);
    Cycles eight = run_with(8);
    Cycles all = run_with(0);
    EXPECT_LT(eight, one / 4);
    EXPECT_LT(all, eight);
}

TEST(Integration, PlacementVariantsNeverChangeResults)
{
    // fib + nqueens under every placement give identical answers, only
    // different timing.
    for (const RuntimeConfig &cfg :
         {RuntimeConfig::naive(), RuntimeConfig::queueOnly(),
          RuntimeConfig::stackOnly(), RuntimeConfig::full()}) {
        Machine machine(MachineConfig::tiny());
        Addr out = machine.dramAlloc(8, 8);
        WorkStealingRuntime rt(machine, cfg);
        rt.run([&](TaskContext &tc) { fibKernel(tc, 11, out); });
        EXPECT_EQ(machine.mem().peekAs<int64_t>(out), fibReference(11))
            << cfg.name();
    }
}

TEST(Integration, SwOverflowCheckCostsCyclesNotCorrectness)
{
    auto run_fib = [](bool sw_check) {
        Machine machine(MachineConfig::tiny());
        Addr out = machine.dramAlloc(8, 8);
        RuntimeConfig cfg = RuntimeConfig::full();
        cfg.swOverflowCheck = sw_check;
        WorkStealingRuntime rt(machine, cfg);
        Cycles cycles =
            rt.run([&](TaskContext &tc) { fibKernel(tc, 13, out); });
        EXPECT_EQ(machine.mem().peekAs<int64_t>(out), fibReference(13));
        return cycles;
    };
    EXPECT_GT(run_fib(true), run_fib(false))
        << "the 2-instruction software scheme must cost extra cycles";
}

TEST(Integration, SwOverflowCheckIsFreeForADramStack)
{
    // The software scheme guards the SPM stack's bound, so with the stack
    // in DRAM (Fig. 7's both-DRAM and queue-in-SPM cells) Fib-S is Fib:
    // the same cycles, instructions and result.
    for (const RuntimeConfig &base :
         {RuntimeConfig::naive(), RuntimeConfig::queueOnly()}) {
        auto run_fib = [&base](bool sw_check) {
            Machine machine(MachineConfig::tiny());
            Addr out = machine.dramAlloc(8, 8);
            RuntimeConfig cfg = base;
            cfg.swOverflowCheck = sw_check;
            WorkStealingRuntime rt(machine, cfg);
            Cycles cycles =
                rt.run([&](TaskContext &tc) { fibKernel(tc, 13, out); });
            return std::make_tuple(cycles, machine.totalInstructions(),
                                   machine.mem().peekAs<int64_t>(out));
        };
        EXPECT_EQ(run_fib(true), run_fib(false)) << base.name();
    }
}

TEST(Integration, PointerTableCostsCyclesNotCorrectness)
{
    // The cost claim is about the steal *path*, so measure that path
    // directly: end-to-end cycles of a work-stealing run are chaotic —
    // a costlier probe throttles steal frequency, which can improve
    // locality and win the lost cycles back at small scales.
    auto probe_cost = [](bool table) {
        Machine machine(MachineConfig::tiny());
        RuntimeConfig cfg = RuntimeConfig::full();
        cfg.queuePointerTable = table;
        WorkStealingRuntime rt(machine, cfg);
        Cycles cost = 0;
        machine.run([&](Core &core) {
            if (core.id() != 1)
                return;
            Cycles before = core.now();
            (void)rt.victimQueueAddrs(core, 0);
            cost = core.now() - before;
        });
        return cost;
    };
    EXPECT_GT(probe_cost(true), probe_cost(false))
        << "the DRAM pointer table must slow the steal path";

    // And the table never changes the computed answer.
    auto run_fib = [](bool table) {
        Machine machine(MachineConfig::tiny());
        Addr out = machine.dramAlloc(8, 8);
        RuntimeConfig cfg = RuntimeConfig::full();
        cfg.queuePointerTable = table;
        WorkStealingRuntime rt(machine, cfg);
        rt.run([&](TaskContext &tc) { fibKernel(tc, 12, out); });
        return machine.mem().peekAs<int64_t>(out);
    };
    EXPECT_EQ(run_fib(true), fibReference(12));
    EXPECT_EQ(run_fib(false), fibReference(12));
}

TEST(Integration, MatMulSpmReserveCoexistsWithRuntime)
{
    // MatMul's 3 KB spm_reserve leaves the runtime ~0.5 KB of stack; a
    // full run must still verify and must overflow some frames to DRAM.
    constexpr uint32_t kN = 32;
    HostDense a = genDenseRandom(kN, kN, 100);
    HostDense b = genDenseRandom(kN, kN, 101);
    Machine machine(MachineConfig::tiny());
    MatMulData data = matmulSetup(machine, kN, 100);
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.userSpmReserve = kMatMulSpmReserve;
    WorkStealingRuntime rt(machine, cfg);
    rt.run([&](TaskContext &tc) { matmulKernel(tc, data); });
    EXPECT_TRUE(matmulVerify(machine, data, a, b));
}

TEST(Integration, EngineBlockUnblockRoundTrip)
{
    Machine machine(MachineConfig::tiny());
    Engine &engine = machine.engine();
    Cycles woke_at = 0;
    machine.run([&](Core &core) {
        if (core.id() == 1) {
            engine.block(1);
            woke_at = core.now();
        } else if (core.id() == 0) {
            core.tick(500);
            // Yield so core 1 (still at t=0) gets to park first.
            core.idle(1);
            engine.unblock(1, core.now());
        }
    });
    EXPECT_GE(woke_at, 500u);
}

TEST(Integration, DynamicInstructionCountsBehaveLikeTable1)
{
    // The paper's DI observations: work-stealing runs execute more
    // dynamic operations than static runs, and the SPM queue increases
    // DI further (cheaper failed steals -> more of them).
    HostGraph graph = genPowerLaw(512, 8, 0.7, 9);
    auto run_with = [&](bool dynamic, bool spm_queue) {
        Machine machine(MachineConfig::tiny());
        PageRankData data = pagerankSetup(machine, graph);
        RuntimeConfig cfg =
            spm_queue ? RuntimeConfig::full() : RuntimeConfig::stackOnly();
        auto root = [&](TaskContext &tc) {
            pagerankKernel(tc, data, 1);
        };
        if (dynamic) {
            WorkStealingRuntime rt(machine, cfg);
            rt.run(root);
        } else {
            StaticRuntime rt(machine, cfg);
            rt.run(root);
        }
        return machine.totalInstructions();
    };
    uint64_t di_static = run_with(false, true);
    uint64_t di_ws = run_with(true, true);
    EXPECT_GT(di_ws, di_static);
}

class VictimPolicyTest : public ::testing::TestWithParam<VictimPolicy>
{
};

TEST_P(VictimPolicyTest, CorrectAndActuallySteals)
{
    Machine machine(MachineConfig::tiny());
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.victimPolicy = GetParam();
    NQueensData data = nqueensSetup(machine, 7);
    WorkStealingRuntime rt(machine, cfg);
    rt.run([&](TaskContext &tc) { nqueensKernel(tc, data); });
    EXPECT_EQ(nqueensResult(machine, data), nqueensReference(7));
    EXPECT_GT(machine.totalStat(&RuntimeStats::stealHits), 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, VictimPolicyTest,
                         ::testing::Values(VictimPolicy::Random,
                                           VictimPolicy::Nearest,
                                           VictimPolicy::RoundRobin),
                         [](const ::testing::TestParamInfo<VictimPolicy>
                                &info) {
                             switch (info.param) {
                               case VictimPolicy::Random:
                                 return "Random";
                               case VictimPolicy::Nearest:
                                 return "Nearest";
                               default:
                                 return "RoundRobin";
                             }
                         });

TEST(Integration, StressManySmallKernels)
{
    // 20 consecutive tiny kernels: exercises run()/termination reuse.
    Machine machine(MachineConfig::tiny());
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    Addr counter = machine.dramAlloc(4);
    machine.mem().pokeAs<uint32_t>(counter, 0);
    for (int round = 0; round < 20; ++round) {
        rt.run([&](TaskContext &tc) {
            parallelFor(tc, 0, 16, [&](TaskContext &btc, int64_t) {
                btc.core().amoAdd(counter, 1);
            });
        });
    }
    EXPECT_EQ(machine.mem().peekAs<uint32_t>(counter), 320u);
}

} // namespace
} // namespace spmrt
