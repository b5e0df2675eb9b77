/**
 * @file
 * ConcurrencyChecker tests: the oracle itself.
 *
 * Positive direction: healthy protocol idioms (lock handoff, AMO
 * release/acquire joins, release-store flag broadcast) must be clean.
 * Negative direction — the part end-to-end runs can never give us — a
 * deliberately broken protocol must be *caught*, and caught exactly once
 * per bug: a "forgot the lock" steal path, a write into a read-only
 * duplicated range, a foreign write into a live frame's callee-save area.
 */

#include <gtest/gtest.h>

#include <string>

#include "graph/generators.hpp"
#include "runtime/queue_ops.hpp"
#include "runtime/static_runtime.hpp"
#include "runtime/ws_runtime.hpp"
#include "sim/checker.hpp"
#include "sim/machine.hpp"
#include "spm/layout.hpp"
#include "spm/stack.hpp"
#include "workloads/bfs.hpp"
#include "workloads/fib.hpp"

namespace spmrt {
namespace {

using VK = ConcurrencyChecker::ViolationKind;

// ---- Clock/edge unit behaviour ------------------------------------------

TEST(CheckerEdges, AmoReleaseOrdersCrossCoreHandoff)
{
    // The runtime's join idiom: producer writes data, amoAddRelease on a
    // flag word; consumer polls the flag with a plain load (which joins
    // the word's sync clock), then reads the data. Clean.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    Addr data = machine.dramAlloc(8, 8);
    Addr flag = machine.dramAlloc(8, 8);
    machine.mem().pokeAs<uint32_t>(flag, 0);

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        core.store<uint32_t>(data, 41);
        core.amoAddRelease(flag, 1);
    };
    bodies[1] = [&](Core &core) {
        while (core.load<uint32_t>(flag) == 0)
            core.idle(16);
        EXPECT_EQ(core.load<uint32_t>(data), 41u);
    };
    for (CoreId i = 2; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);
    EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
}

TEST(CheckerEdges, UnsynchronizedHandoffIsARace)
{
    // Same data flow with the synchronization removed: consumer reads the
    // word on a timer instead of a flag. Exactly one race (per-pair
    // dedupe), reported with both cores.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    Addr data = machine.dramAlloc(8, 8);

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) { core.store<uint32_t>(data, 41); };
    bodies[1] = [&](Core &core) {
        core.idle(500); // "surely it's written by now"
        (void)core.load<uint32_t>(data);
        (void)core.load<uint32_t>(data); // second read: same dedup bucket
    };
    for (CoreId i = 2; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);

    ASSERT_EQ(ck->violations().size(), 1u) << ck->report();
    const auto &v = ck->violations()[0];
    EXPECT_EQ(v.kind, VK::Race);
    EXPECT_EQ(v.addr, data);
    EXPECT_EQ(v.core, 1u);
    EXPECT_EQ(v.other, 0u);
    EXPECT_TRUE(v.otherWrote);
    EXPECT_FALSE(v.coreWrites);
    EXPECT_FALSE(v.describe().empty());
}

TEST(CheckerEdges, StoreReleaseLoadSyncPairIsExempt)
{
    // The termination-flag idiom: single writer storeRelease, many
    // loadSync pollers, and data published through the release.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    Addr data = machine.dramAlloc(8, 8);
    Addr flag = machine.dramAlloc(8, 8);
    machine.mem().pokeAs<uint32_t>(flag, 0);

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        core.store<uint32_t>(data, 7);
        core.storeRelease<uint32_t>(flag, 1);
    };
    for (CoreId i = 1; i < machine.numCores(); ++i) {
        bodies[i] = [&](Core &core) {
            while (core.loadSync<uint32_t>(flag) == 0)
                core.idle(16);
            EXPECT_EQ(core.load<uint32_t>(data), 7u);
        };
    }
    machine.runPerCore(bodies);
    EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
}

TEST(CheckerEdges, PhaseBarrierOrdersEpisodes)
{
    // Core 0 writes in episode 1; core 1 reads in episode 2 with no
    // simulated synchronization. Machine::run's clock alignment is a
    // real global barrier and must be mirrored in happens-before.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    Addr data = machine.dramAlloc(8, 8);

    std::vector<std::function<void(Core &)>> ep1(machine.numCores());
    ep1[0] = [&](Core &core) {
        core.store<uint32_t>(data, 9);
        core.fence();
    };
    for (CoreId i = 1; i < machine.numCores(); ++i)
        ep1[i] = [](Core &) {};
    machine.runPerCore(ep1);

    std::vector<std::function<void(Core &)>> ep2(machine.numCores());
    ep2[1] = [&](Core &core) {
        EXPECT_EQ(core.load<uint32_t>(data), 9u);
    };
    for (CoreId i = 0; i < machine.numCores(); ++i)
        if (i != 1)
            ep2[i] = [](Core &) {};
    machine.runPerCore(ep2);

    EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
}

// ---- Negative: the forgot-the-lock steal path ---------------------------

TEST(CheckerNegative, ForgottenLockStealReportsExactlyOneRace)
{
    // A thief that skips lockAcquire: it probes, then reads the slot and
    // publishes a new head with plain accesses. Its slot read is
    // unordered against the owner's locked slot write — one structured
    // Race report, and only one despite the bug touching several words
    // repeatedly (per-core-pair dedupe).
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);

    constexpr uint32_t kQueueBytes = 48;
    Addr qbase = machine.dramAlloc(kQueueBytes, 64);
    QueueAddrs q = QueueAddrs::inRegion(qbase, kQueueBytes);
    ck->registerRegion(RegionKind::Queue, qbase, kQueueBytes, 0, q.lock);
    machine.mem().pokeAs<uint32_t>(q.head, 0);
    machine.mem().pokeAs<uint32_t>(q.tail, 0);
    machine.mem().pokeAs<uint32_t>(q.lock, 0);

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        QueueOps ops(core);
        for (uint32_t t = 1; t <= 4; ++t)
            ASSERT_TRUE(ops.enqueue(q, t));
    };
    bodies[1] = [&](Core &core) {
        QueueOps ops(core);
        core.idle(3000); // let the owner fill the queue first
        // --- the bug: no ops.lockAcquire(q.lock) here ---
        auto [head, tail] = ops.peek(q);
        ASSERT_NE(head, tail) << "test setup: queue unexpectedly empty";
        uint32_t id = core.load<uint32_t>(q.slots + (head % q.capacity) * 4);
        EXPECT_NE(id, 0u);
        core.store<uint32_t>(q.head, head + 1);
        // Keep "stealing"; the cascade must stay one report.
        auto [head2, tail2] = ops.peek(q);
        if (head2 != tail2) {
            (void)core.load<uint32_t>(q.slots +
                                      (head2 % q.capacity) * 4);
            core.store<uint32_t>(q.head, head2 + 1);
        }
    };
    for (CoreId i = 2; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);

    ASSERT_EQ(ck->violations().size(), 1u)
        << "expected exactly one report:\n" << ck->report();
    const auto &v = ck->violations()[0];
    EXPECT_EQ(v.kind, VK::Race);
    EXPECT_EQ(v.core, 1u) << "the lockless thief is the offender";
    EXPECT_EQ(v.other, 0u);
    EXPECT_TRUE(v.regionKnown);
    EXPECT_EQ(v.region, RegionKind::Queue);
    EXPECT_EQ(v.coreLock, kNullAddr) << "offender held no lock";
    EXPECT_EQ(v.otherLock, q.lock) << "the owner held the queue lock";
    std::string text = v.describe();
    EXPECT_NE(text.find("QUEUE"), std::string::npos) << text;
}

TEST(CheckerPositive, LockedStealPathIsClean)
{
    // The same traffic with the lock taken: no reports.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);

    constexpr uint32_t kQueueBytes = 48;
    Addr qbase = machine.dramAlloc(kQueueBytes, 64);
    QueueAddrs q = QueueAddrs::inRegion(qbase, kQueueBytes);
    ck->registerRegion(RegionKind::Queue, qbase, kQueueBytes, 0, q.lock);
    machine.mem().pokeAs<uint32_t>(q.head, 0);
    machine.mem().pokeAs<uint32_t>(q.tail, 0);
    machine.mem().pokeAs<uint32_t>(q.lock, 0);

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        QueueOps ops(core);
        for (uint32_t t = 1; t <= 4; ++t)
            ASSERT_TRUE(ops.enqueue(q, t));
        (void)ops.popTail(q);
    };
    bodies[1] = [&](Core &core) {
        QueueOps ops(core);
        core.idle(3000);
        (void)ops.stealHead(q);
        (void)ops.stealHead(q);
    };
    for (CoreId i = 2; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);
    EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
}

// ---- Negative: RO_DUP write ---------------------------------------------

TEST(CheckerNegative, RoDupWriteReportsExactlyOnce)
{
    // A range registered read-only-duplicated is written twice by the
    // same core: one structured RoDupWrite report (per core x range).
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    Addr env = machine.dramAlloc(32, 8);
    Addr ready = machine.dramAlloc(8, 8);
    machine.mem().pokeAs<uint32_t>(ready, 0);

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        // Legitimate one-time population, then freeze and publish.
        for (uint32_t w = 0; w < 8; ++w)
            core.store<uint32_t>(env + w * 4, w);
        core.fence();
        if (ConcurrencyChecker *c = core.mem().checker())
            c->protectRange(RegionKind::RoDup, env, 32, core.id());
        core.storeRelease<uint32_t>(ready, 1);
    };
    bodies[1] = [&](Core &core) {
        while (core.loadSync<uint32_t>(ready) == 0)
            core.idle(16);
        core.store<uint32_t>(env + 4, 0xbad);  // violation
        core.store<uint32_t>(env + 12, 0xbad); // same range: deduped
        // Reads stay legal (and are ordered by the publish above).
        EXPECT_EQ(core.load<uint32_t>(env + 8), 2u);
    };
    for (CoreId i = 2; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);

    ASSERT_EQ(ck->violations().size(), 1u)
        << "expected exactly one report:\n" << ck->report();
    const auto &v = ck->violations()[0];
    EXPECT_EQ(v.kind, VK::RoDupWrite);
    EXPECT_EQ(v.core, 1u);
    EXPECT_EQ(v.other, 0u) << "owner of the duplicated range";
    EXPECT_EQ(v.addr, env + 4);
    EXPECT_EQ(ck->countKind(VK::RoDupWrite), 1u);
    std::string text = v.describe();
    EXPECT_NE(text.find("RO_DUP"), std::string::npos) << text;
}

// ---- Negative: frame canary / overlap -----------------------------------

TEST(CheckerNegative, ForeignWriteIntoLiveFrameIsFrameCorruption)
{
    // Core 0 holds a live frame; core 1 writes into its callee-save
    // area. The checker reports FrameCorruption (once), independent of
    // the canary value surviving.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    const MachineConfig &mcfg = machine.config();
    SpmLayout layout(mcfg, 0, 0);
    const AddressMap &map = machine.mem().map();
    Addr dram_stack = machine.dramAlloc(4096, 64);

    constexpr uint32_t kFrameBytes = 64;
    // push() places the frame at stackTop - frameBytes; its callee-save
    // area is the first regSaveWords words. Word 1 is protected but not
    // the canary word, so the victim's own canary check still passes.
    Addr frame_base = layout.stackTop(map, 0) - kFrameBytes;
    Addr target = frame_base + 4;

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        StackConfig scfg;
        scfg.spmLow = layout.stackLow(map, 0);
        scfg.spmTop = layout.stackTop(map, 0);
        scfg.dramBase = dram_stack;
        scfg.dramBytes = 4096;
        StackModel stack(core, scfg);
        {
            StackFrame frame(stack, kFrameBytes);
            EXPECT_EQ(frame.base(), frame_base);
            core.idle(4000); // keep the frame live while core 1 attacks
        }
    };
    bodies[1] = [&](Core &core) {
        core.idle(1000);
        core.store<uint32_t>(target, 0xdeadbeef); // violation
        core.store<uint32_t>(target, 0xdeadbeef); // deduped
    };
    for (CoreId i = 2; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);

    ASSERT_EQ(ck->violations().size(), 1u)
        << "expected exactly one report:\n" << ck->report();
    const auto &v = ck->violations()[0];
    EXPECT_EQ(v.kind, VK::FrameCorruption);
    EXPECT_EQ(v.core, 1u);
    EXPECT_EQ(v.other, 0u) << "frame owner";
    EXPECT_EQ(v.addr, target);
}

TEST(CheckerPositive, OwnFrameWritesAndFrameReuseAreClean)
{
    // A core writing its own callee-save area and reusing popped frame
    // addresses is the normal idiom and must not be flagged.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    const MachineConfig &mcfg = machine.config();
    SpmLayout layout(mcfg, 0, 0);
    const AddressMap &map = machine.mem().map();
    Addr dram_stack = machine.dramAlloc(4096, 64);

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        StackConfig scfg;
        scfg.spmLow = layout.stackLow(map, 0);
        scfg.spmTop = layout.stackTop(map, 0);
        scfg.dramBase = dram_stack;
        scfg.dramBytes = 4096;
        StackModel stack(core, scfg);
        for (int depth = 0; depth < 3; ++depth) {
            StackFrame a(stack, 64);
            core.store<uint32_t>(a.alloc(4), 1);
            StackFrame b(stack, 64);
            core.store<uint32_t>(b.alloc(4), 2);
        }
    };
    for (CoreId i = 1; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);
    EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
}

// ---- Region registry / report plumbing ----------------------------------

TEST(CheckerUnit, RegionRegistrationAndKinds)
{
    ConcurrencyChecker ck(4);
    ck.registerRegion(RegionKind::Queue, 0x1000, 64, 2, 0x1008);
    ck.registerRegion(RegionKind::Ctrl, 0x1040, 8, 2);
    ck.protectRange(RegionKind::RoDup, 0x2000, 32, 1);
    ck.protectRange(RegionKind::Stack, 0x2100, 8, 1);
    ck.unprotectWithin(0x2000, 0x200); // frame pop spanning both
    // After unprotect, writes into the former ranges are not violations.
    ck.onStore(3, 0x2004, 4, 10);
    ck.onStore(3, 0x2100, 4, 11);
    EXPECT_EQ(ck.violations().size(), 0u);
    EXPECT_STREQ(regionKindName(RegionKind::RoDup), "RO_DUP");
    EXPECT_STREQ(regionKindName(RegionKind::Queue), "QUEUE");
}

TEST(CheckerUnit, ResetClearsShadowProtectionsAndDedupe)
{
    ConcurrencyChecker ck(2);
    ck.protectRange(RegionKind::RoDup, 0x3000, 16, 0);
    ck.onStore(1, 0x3000, 4, 5);
    EXPECT_EQ(ck.violations().size(), 1u);
    ck.resetDynamicState();
    EXPECT_EQ(ck.violations().size(), 0u);
    EXPECT_EQ(ck.shadowWords(), 0u);
    // Dynamic protections are dropped by the reset...
    ck.onStore(1, 0x3000, 4, 6);
    EXPECT_EQ(ck.violations().size(), 0u);
    // ...and the same race can be reported again (dedupe cleared).
    ck.onStore(0, 0x4000, 4, 7);
    ck.onStore(1, 0x4000, 4, 8);
    EXPECT_EQ(ck.violations().size(), 1u);
}

// ---- Whole-runtime sanity ------------------------------------------------

TEST(CheckerRuntime, HealthyWorkStealingRunIsClean)
{
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    ASSERT_NE(ck, nullptr);
    Addr out = machine.dramAlloc(8, 8);
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    rt.run([&](TaskContext &tc) { workloads::fibKernel(tc, 12, out); });
    EXPECT_EQ(machine.mem().peekAs<int64_t>(out),
              workloads::fibReference(12));
    EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
    EXPECT_GT(ck->shadowWords(), 0u) << "checker observed no traffic?";
}

/**
 * A known, benign checker finding, pinned so it stays visible. BFS's
 * frontier test `load(levels[u]) == level - 1` races with same-level
 * discoveries: pull mode discovers with a plain store of `level`, push
 * mode with an AMO min to `level`, and either value the test can read
 * differs from `level - 1`, so the outcome is benign by construction.
 * The checker has no annotation for the pattern and reports the pairs
 * as races (DESIGN.md Sec. 9). Every bench disarms the checker, so
 * this test is where the finding shows: BFS stays correct, and every
 * report is a Race on a joinLevel word.
 */
TEST(CheckerRuntime, BfsFrontierRaceIsConfinedToJoinLevel)
{
    // The quick Table-1 "uniform" graph (bench/rows.hpp).
    const HostGraph graph = genUniformRandom(1024, 8, 1001);
    for (bool static_runtime : {false, true}) {
        SCOPED_TRACE(static_runtime ? "static" : "work stealing");
        Machine machine(MachineConfig::tiny());
        ConcurrencyChecker *ck = machine.armChecker();
        ASSERT_NE(ck, nullptr);
        workloads::BfsData data = workloads::bfsSetup(machine, graph, 0);
        auto root = [&data](TaskContext &tc) {
            workloads::bfsKernel(tc, data);
        };
        if (static_runtime)
            StaticRuntime(machine, RuntimeConfig::full()).run(root);
        else
            WorkStealingRuntime(machine, RuntimeConfig::full()).run(root);

        EXPECT_TRUE(workloads::bfsVerify(machine, data, graph));
        // Zero reports would mean the frontier test became race-free
        // (a benign-race annotation or an AMO load): update Sec. 9.
        EXPECT_GT(ck->violations().size(), 0u);
        const Addr levels_end = data.joinLevel + 4ull * graph.numVertices;
        for (const ConcurrencyChecker::Violation &v : ck->violations()) {
            EXPECT_EQ(v.kind, VK::Race) << v.describe();
            EXPECT_TRUE(v.addr >= data.joinLevel && v.addr < levels_end)
                << v.describe();
        }
    }
}

TEST(CheckerRuntime, ArmCheckerReturnsTheMachinesChecker)
{
    // Arming always yields the checker that the memory system then
    // reports.
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    EXPECT_NE(ck, nullptr);
    EXPECT_EQ(machine.checker(), ck);
}

} // namespace
} // namespace spmrt
