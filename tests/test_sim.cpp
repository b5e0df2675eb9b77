/**
 * @file
 * Unit tests for the simulation engine: coroutine scheduling, clock
 * ordering, determinism, and the guest Core API.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "sim/winner_tree.hpp"

namespace spmrt {
namespace {

/** Brute-force minimum of @p leaves, skipping index @p skip. */
WinnerTree::Key
bruteMin(const std::vector<WinnerTree::Key> &leaves, size_t skip = ~size_t(0))
{
    WinnerTree::Key best = WinnerTree::kAbsent;
    for (size_t i = 0; i < leaves.size(); ++i) {
        if (i != skip)
            best = std::min(best, leaves[i]);
    }
    return best;
}

TEST(WinnerTree, MatchesBruteForceArgminUnderRandomEdits)
{
    // Keys pack (time, id) as the engine's do. Clocks start equal and
    // move by 0-2 per step, so ties are the common case and the id bits
    // must break them exactly as a scan in id order would.
    constexpr WinnerTree::Key kAbsent = WinnerTree::kAbsent;
    for (uint32_t n : {1u, 3u, 16u, 128u, 1000u}) {
        SCOPED_TRACE(n);
        const unsigned shift = std::max(1u, ceilLog2(n));
        auto key = [shift](uint64_t t, uint32_t id) {
            return (t << shift) | id;
        };
        Xoshiro256StarStar rng(0x7ee0 + n);
        WinnerTree tree;
        tree.reset(n);
        EXPECT_TRUE(tree.empty());
        EXPECT_EQ(tree.minExcluding(0), kAbsent);

        std::vector<WinnerTree::Key> leaves(n, kAbsent);
        std::vector<uint64_t> clock(n, 0);
        for (int step = 0; step < 4000; ++step) {
            const auto id = static_cast<uint32_t>(rng.nextBounded(n));
            switch (rng.nextBounded(3)) {
              case 0: // insert, or requeue at the current clock
                leaves[id] = key(clock[id], id);
                break;
              case 1: // erase
                leaves[id] = kAbsent;
                break;
              default: // increase (a no-op key change when absent)
                clock[id] += rng.nextBounded(3);
                if (leaves[id] != kAbsent)
                    leaves[id] = key(clock[id], id);
                break;
            }
            tree.set(id, leaves[id]);
            ASSERT_EQ(tree.min(), bruteMin(leaves)) << "step " << step;
            ASSERT_EQ(tree.empty(), bruteMin(leaves) == kAbsent);
            const auto probe = static_cast<uint32_t>(rng.nextBounded(n));
            ASSERT_EQ(tree.leaf(probe), leaves[probe]);
            ASSERT_EQ(tree.minExcluding(probe), bruteMin(leaves, probe))
                << "step " << step << " excluding " << probe;
            // Excluding the winner itself yields the runner-up.
            if (!tree.empty()) {
                const auto winner =
                    static_cast<uint32_t>(tree.min() & ((1u << shift) - 1));
                ASSERT_EQ(tree.minExcluding(winner),
                          bruteMin(leaves, winner));
            }
        }

        for (uint32_t i = 0; i < n; ++i)
            tree.erase(i);
        EXPECT_TRUE(tree.empty());
        EXPECT_EQ(tree.minExcluding(n - 1), kAbsent);
        tree.set(n - 1, key(5, n - 1));
        tree.clear();
        EXPECT_TRUE(tree.empty());
        EXPECT_EQ(tree.leaf(n - 1), kAbsent);
    }
}

TEST(Engine, RunsAllBodies)
{
    Engine engine(4, 64 * 1024);
    std::vector<int> ran(4, 0);
    for (CoreId i = 0; i < 4; ++i)
        engine.setBody(i, [&ran, i] { ran[i] = 1; });
    engine.run();
    for (int flag : ran)
        EXPECT_EQ(flag, 1);
}

TEST(Engine, SyncPointOrdersByTimestamp)
{
    // Two cores interleave strictly by local time at sync points.
    Engine engine(2, 64 * 1024);
    std::vector<std::pair<CoreId, Cycles>> order;

    auto body = [&engine, &order](CoreId id, Cycles step) {
        return [&engine, &order, id, step] {
            for (int i = 0; i < 5; ++i) {
                engine.advance(id, step);
                engine.syncPoint(id);
                order.emplace_back(id, engine.time(id));
            }
        };
    };
    engine.setBody(0, body(0, 10));
    engine.setBody(1, body(1, 25));
    engine.run();

    for (size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(order[i - 1].second, order[i].second)
            << "sync point " << i << " ran out of timestamp order";
}

TEST(Engine, ReusableAcrossRuns)
{
    Engine engine(2, 64 * 1024);
    int counter = 0;
    for (int round = 0; round < 3; ++round) {
        for (CoreId i = 0; i < 2; ++i)
            engine.setBody(i, [&counter] { ++counter; });
        engine.run();
    }
    EXPECT_EQ(counter, 6);
}

TEST(Engine, ClocksPersistAcrossRuns)
{
    Engine engine(1, 64 * 1024);
    engine.setBody(0, [&engine] { engine.advance(0, 100); });
    engine.run();
    EXPECT_EQ(engine.time(0), 100u);
    engine.setBody(0, [&engine] { engine.advance(0, 50); });
    engine.run();
    EXPECT_EQ(engine.time(0), 150u);
}

TEST(Engine, DeepGuestRecursionFits)
{
    Engine engine(1, 256 * 1024);
    // Recursion with a real frame per level; 2000 levels must fit in the
    // coroutine's 256 KB host stack.
    struct Recur
    {
        static int
        go(int n)
        {
            volatile char pad[64] = {0};
            (void)pad;
            return n == 0 ? 0 : 1 + go(n - 1);
        }
    };
    int depth = 0;
    engine.setBody(0, [&depth] { depth = Recur::go(2000); });
    engine.run();
    EXPECT_EQ(depth, 2000);
}

TEST(EngineDefaults, ReferenceSchedulerFollowsEnvironment)
{
    // SPMRT_ENGINE_REFERENCE is the one switch that starts every Engine
    // on the linear-scan reference scheduler. Restore the caller's value
    // afterwards: CI runs the whole suite with it set to 1.
    const char *name = "SPMRT_ENGINE_REFERENCE";
    const char *saved = std::getenv(name);
    const std::string original = saved != nullptr ? saved : "";

    ::setenv(name, "1", 1);
    EXPECT_TRUE(Engine(2, 64 * 1024).referenceScheduler());
    ::setenv(name, "0", 1);
    EXPECT_FALSE(Engine(2, 64 * 1024).referenceScheduler());
    ::unsetenv(name);
    EXPECT_FALSE(Engine(2, 64 * 1024).referenceScheduler());

    if (saved != nullptr)
        ::setenv(name, original.c_str(), 1);
}

TEST(Machine, TickAdvancesClockAndCounts)
{
    Machine machine(MachineConfig::tiny());
    machine.run([](Core &core) { core.tick(5, 3); });
    for (CoreId i = 0; i < machine.numCores(); ++i) {
        EXPECT_EQ(machine.engine().time(i), 5u);
        EXPECT_EQ(machine.core(i).stats().isa.instructions, 3u);
    }
}

TEST(Machine, LocalSpmRoundTrip)
{
    Machine machine(MachineConfig::tiny());
    machine.run([](Core &core) {
        Addr addr = core.spmBase();
        core.store<uint32_t>(addr, 0xdeadbeef + core.id());
        uint32_t value = core.load<uint32_t>(addr);
        SPMRT_ASSERT(value == 0xdeadbeef + core.id(), "bad SPM readback");
    });
    // Local SPM latency is 2 cycles; store + load must cost at least 4.
    EXPECT_GE(machine.engine().time(0), 4u);
}

TEST(Machine, RemoteSpmVisibleAndSlower)
{
    MachineConfig cfg = MachineConfig::tiny();
    Machine machine(cfg);
    auto &mem = machine.mem();
    // Core 7 is the far corner from core 0 in the 4x2 tiny mesh.
    Addr remote = mem.map().spmBase(7);
    mem.pokeAs<uint32_t>(remote, 777);

    Cycles local_cost = 0, remote_cost = 0;
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        Cycles t0 = core.now();
        (void)core.load<uint32_t>(core.spmBase());
        local_cost = core.now() - t0;
        t0 = core.now();
        uint32_t value = core.load<uint32_t>(remote);
        remote_cost = core.now() - t0;
        SPMRT_ASSERT(value == 777, "remote SPM load returned %u", value);
    });
    EXPECT_GT(remote_cost, local_cost);
}

TEST(Machine, DramSlowerThanSpm)
{
    Machine machine(MachineConfig::tiny());
    Addr dram = machine.dramAlloc(64);
    machine.mem().pokeAs<uint32_t>(dram, 41);

    Cycles spm_cost = 0, dram_cold = 0, dram_warm = 0;
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        Cycles t0 = core.now();
        (void)core.load<uint32_t>(core.spmBase());
        spm_cost = core.now() - t0;

        t0 = core.now();
        (void)core.load<uint32_t>(dram);
        dram_cold = core.now() - t0;

        t0 = core.now();
        (void)core.load<uint32_t>(dram);
        dram_warm = core.now() - t0;
    });
    EXPECT_GT(dram_cold, spm_cost);
    // The second access hits in the LLC and must be cheaper than the miss.
    EXPECT_LT(dram_warm, dram_cold);
    EXPECT_GT(dram_warm, spm_cost);
}

TEST(Machine, AmoAtomicAcrossCores)
{
    Machine machine(MachineConfig::tiny());
    Addr counter = machine.dramAlloc(4);
    machine.mem().pokeAs<uint32_t>(counter, 0);

    constexpr int kIncrementsPerCore = 50;
    machine.run([&](Core &core) {
        for (int i = 0; i < kIncrementsPerCore; ++i)
            core.amoAdd(counter, 1);
    });
    uint32_t total = machine.mem().peekAs<uint32_t>(counter);
    EXPECT_EQ(total, machine.numCores() * kIncrementsPerCore);
}

TEST(Machine, AmoReturnsOldValue)
{
    Machine machine(MachineConfig::tiny());
    Addr cell = machine.dramAlloc(4);
    machine.mem().pokeAs<uint32_t>(cell, 10);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        EXPECT_EQ(core.amoAdd(cell, 5), 10u);
        EXPECT_EQ(core.amo(cell, AmoOp::Swap, 99), 15u);
        EXPECT_EQ(core.load<uint32_t>(cell), 99u);
    });
}

TEST(Machine, FenceDrainsPostedStores)
{
    MachineConfig cfg = MachineConfig::tiny();
    Machine machine(cfg);
    Addr dram = machine.dramAlloc(4);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        Cycles t0 = core.now();
        core.store<uint32_t>(dram, 1); // posted: costs ~1 cycle
        Cycles posted = core.now() - t0;
        core.fence(); // must wait for the DRAM store to land
        Cycles fenced = core.now() - t0;
        EXPECT_LE(posted, 3u);
        EXPECT_GT(fenced, posted);
    });
}

TEST(Machine, BulkReadWriteMovesData)
{
    Machine machine(MachineConfig::tiny());
    Addr dram = machine.dramAlloc(256);
    std::vector<uint8_t> pattern(256);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i * 7 + 1);

    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        core.write(dram, pattern.data(), pattern.size());
        std::vector<uint8_t> readback(256, 0);
        core.read(dram, readback.data(), readback.size());
        EXPECT_EQ(readback, pattern);
    });
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto experiment = [] {
        Machine machine(MachineConfig::tiny());
        Addr counter = machine.dramAlloc(4);
        machine.run([&](Core &core) {
            for (int i = 0; i < 20; ++i) {
                uint32_t old_value = core.amoAdd(counter, 1);
                core.tick(1 + old_value % 3);
            }
        });
        return machine.engine().maxTime();
    };
    Cycles first = experiment();
    EXPECT_EQ(first, experiment());
    EXPECT_EQ(first, experiment());
}

TEST(Machine, PerCoreBodiesAndSyncClocks)
{
    Machine machine(MachineConfig::tiny());
    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    for (CoreId i = 0; i < machine.numCores(); ++i)
        bodies[i] = [i](Core &core) { core.tick(10 * (i + 1)); };
    Cycles elapsed = machine.runPerCore(bodies);
    EXPECT_EQ(elapsed, 10u * machine.numCores());
    machine.syncClocks();
    for (CoreId i = 0; i < machine.numCores(); ++i)
        EXPECT_EQ(machine.engine().time(i), elapsed);
}

// ---- Inline and captured remote ops agree --------------------------------

/** The seven memory-op kinds a guest can issue. */
enum class OpKind { Load, LoadSync, Read, Store, StoreRelease, Write, Amo };

constexpr OpKind kOpKinds[] = {OpKind::Load,  OpKind::LoadSync,
                               OpKind::Read,  OpKind::Store,
                               OpKind::StoreRelease, OpKind::Write,
                               OpKind::Amo};

/** Everything an observer can read after one issued op. */
struct OpRun
{
    Cycles latency = 0;  ///< clock after the op minus its issue time
    Cycles drained = 0;  ///< the same after a trailing fence()
    uint64_t switches = 0; ///< context switches across the op and fence
    std::vector<uint8_t> value; ///< what the op returned (loads, AMO)
    std::vector<uint8_t> image; ///< the target bytes after the run
    IsaStats isa;        ///< the issuer's counters
    size_t violations = 0;
    std::string report;
};

/**
 * Core 0 of a fresh, checker-armed tiny() machine issues one @p kind op
 * at a remote-SPM or a DRAM target. Core 2 first stores to the target
 * word unsynchronized, so the plain kinds race and the sync kinds do
 * not. With @p captured false every other core has finished by the
 * issue, so the op's commit key is globally next and it runs inline;
 * with @p captured true core 1 is still runnable at core 0's clock, so
 * the op is captured and committed by the engine.
 */
OpRun
runOp(OpKind kind, bool dram, bool captured)
{
    constexpr uint32_t kBytes = 100; // from mid-line: three LLC lines
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    const Addr target = (dram ? machine.dramAlloc(256, 64)
                              : machine.mem().map().spmBase(5)) +
                        40;
    std::vector<uint8_t> pattern(kBytes);
    for (uint32_t i = 0; i < kBytes; ++i)
        pattern[i] = static_cast<uint8_t>(i * 13 + 5);
    machine.mem().poke(target, pattern.data(), kBytes);

    OpRun run;
    std::vector<std::function<void(Core &)>> bodies(machine.numCores(),
                                                    [](Core &) {});
    bodies[2] = [&](Core &core) {
        core.store<uint32_t>(target, 0x5a5a5a5au);
    };
    if (captured)
        bodies[1] = [](Core &core) { core.idle(10); };
    bodies[0] = [&](Core &core) {
        core.idle(10); // the others finish, or core 1 ties at 10
        const Cycles t0 = core.now();
        const uint64_t s0 = core.engine().switchCount();
        auto keep = [&run](const auto &v) {
            const auto *first = reinterpret_cast<const uint8_t *>(&v);
            run.value.assign(first, first + sizeof(v));
        };
        switch (kind) {
          case OpKind::Load:
            keep(core.load<uint64_t>(target));
            break;
          case OpKind::LoadSync:
            keep(core.loadSync<uint32_t>(target));
            break;
          case OpKind::Read:
            run.value.resize(kBytes);
            core.read(target, run.value.data(), kBytes);
            break;
          case OpKind::Store:
            core.store<uint64_t>(target, 0x1122334455667788ull);
            break;
          case OpKind::StoreRelease:
            core.storeRelease<uint32_t>(target, 0xcafef00du);
            break;
          case OpKind::Write:
            core.write(target, pattern.data() + 1, kBytes - 1);
            break;
          case OpKind::Amo:
            keep(core.amo(target, AmoOp::Add, 7));
            break;
        }
        run.latency = core.now() - t0;
        core.fence();
        run.drained = core.now() - t0;
        run.switches = core.engine().switchCount() - s0;
        run.isa = core.stats().isa;
    };
    machine.runPerCore(bodies);

    run.image.resize(kBytes);
    machine.mem().peek(target, run.image.data(), kBytes);
    run.violations = ck->violations().size();
    run.report = ck->report();
    return run;
}

TEST(Machine, InlineAndCapturedRemoteOpsAgree)
{
    for (bool dram : {false, true}) {
        for (OpKind kind : kOpKinds) {
            SCOPED_TRACE(::testing::Message()
                         << (dram ? "DRAM" : "remote SPM") << " kind "
                         << static_cast<int>(kind));
            const OpRun in = runOp(kind, dram, false);
            const OpRun cap = runOp(kind, dram, true);
            // Different paths: only the captured op parks its issuer
            // (a blocking op until its commit, a posted one in fence()).
            EXPECT_EQ(in.switches, 0u);
            EXPECT_GT(cap.switches, 0u);
            // The same op: timing, results, memory, counters, checker.
            EXPECT_EQ(in.latency, cap.latency);
            EXPECT_EQ(in.drained, cap.drained);
            EXPECT_GT(in.drained, 0u);
            EXPECT_EQ(in.value, cap.value);
            EXPECT_EQ(in.image, cap.image);
            EXPECT_EQ(in.isa.instructions, cap.isa.instructions);
            EXPECT_EQ(in.isa.loads, cap.isa.loads);
            EXPECT_EQ(in.isa.stores, cap.isa.stores);
            EXPECT_EQ(in.isa.amos, cap.isa.amos);
            EXPECT_EQ(in.isa.fences, cap.isa.fences);
            EXPECT_EQ(in.violations, cap.violations);
            EXPECT_EQ(in.report, cap.report);
            const bool plain = kind == OpKind::Load || kind == OpKind::Read ||
                               kind == OpKind::Store ||
                               kind == OpKind::Write;
            EXPECT_EQ(in.violations, plain ? 1u : 0u) << in.report;
        }
    }
}

} // namespace
} // namespace spmrt
