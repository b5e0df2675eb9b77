/**
 * @file
 * Property-based tests: randomized operation sequences checked against
 * reference models, and parameterized sweeps of invariants across
 * configurations (gtest TEST_P).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "mem/alloc.hpp"
#include "mem/fluid_server.hpp"
#include "mem/noc.hpp"
#include "parallel/patterns.hpp"
#include "runtime/queue_ops.hpp"
#include "sim/checker.hpp"
#include "spm/stack.hpp"

namespace spmrt {
namespace {

// ---- Task deque vs. reference model ----------------------------------------

class DequeModelTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DequeModelTest, RandomOpsMatchReferenceDeque)
{
    // Drive the simulated lock-protected deque with a random sequence of
    // enqueue / popTail / stealHead and mirror every operation in a
    // std::deque; contents must match at every step.
    Machine machine(MachineConfig::tiny());
    Addr region = machine.dramAlloc(256, 64);
    QueueAddrs queue = QueueAddrs::inRegion(region, 256);
    auto &mem = machine.mem();
    mem.pokeAs<uint32_t>(queue.lock, 0);
    mem.pokeAs<uint32_t>(queue.head, 0);
    mem.pokeAs<uint32_t>(queue.tail, 0);

    uint64_t seed = GetParam();
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        QueueOps ops(core);
        std::deque<uint32_t> model;
        Xoshiro256StarStar rng(seed);
        uint32_t next_id = 1;
        for (int step = 0; step < 500; ++step) {
            switch (rng.nextBounded(3)) {
              case 0: // enqueue at tail
                if (ops.enqueue(queue, next_id)) {
                    model.push_back(next_id);
                    ++next_id;
                } else {
                    ASSERT_EQ(model.size(), queue.capacity);
                }
                break;
              case 1: { // owner pop (LIFO)
                uint32_t got = ops.popTail(queue);
                if (model.empty()) {
                    ASSERT_EQ(got, 0u);
                } else {
                    ASSERT_EQ(got, model.back());
                    model.pop_back();
                }
                break;
              }
              default: { // thief steal (FIFO)
                uint32_t got = ops.stealHead(queue);
                if (model.empty()) {
                    ASSERT_EQ(got, 0u);
                } else {
                    ASSERT_EQ(got, model.front());
                    model.pop_front();
                }
                break;
              }
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, DequeModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- QueueAddrs layout properties ------------------------------------------

TEST(QueueAddrsProperties, CarvingInvariantsAcrossRegionSizes)
{
    // For any region size, the carving must produce the documented fixed
    // offsets and the largest power-of-two slot count that fits — the
    // power of two is what keeps "index % capacity" continuous across the
    // 2^32 index wrap.
    Xoshiro256StarStar rng(4242);
    for (int trial = 0; trial < 200; ++trial) {
        uint32_t bytes = 28 + static_cast<uint32_t>(rng.nextBounded(4069));
        Addr base = static_cast<Addr>(8 * (1 + rng.nextBounded(1'000'000)));
        QueueAddrs q = QueueAddrs::inRegion(base, bytes);
        ASSERT_EQ(q.head, base);
        ASSERT_EQ(q.tail, base + 4);
        ASSERT_EQ(q.lock, base + 8);
        ASSERT_EQ(q.slots, base + 12);
        ASSERT_GE(q.capacity, 4u) << "bytes=" << bytes;
        ASSERT_EQ(q.capacity & (q.capacity - 1), 0u)
            << "capacity " << q.capacity << " is not a power of two";
        // Largest that fits: capacity slots fit, double would not.
        ASSERT_LE(12 + q.capacity * 4, bytes);
        ASSERT_GT(q.capacity * 2, (bytes - 12) / 4);
        // 2^32 is divisible by the capacity (wrap continuity).
        ASSERT_EQ((uint64_t(1) << 32) % q.capacity, 0u);
    }
}

// ---- Deque model across the 2^32 index wrap --------------------------------

class DequeWrapTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DequeWrapTest, RandomOpsMatchReferenceAcrossIndexWrap)
{
    // Same model check as above, but head and tail start 16 increments
    // below 2^32 so the monotonically increasing indices wrap mid-test:
    // fullness tests (tail - head) and slot mapping (index % capacity)
    // must behave identically on both sides of the wrap.
    constexpr uint32_t kStart = 0xFFFF'FFF0u;
    Machine machine(MachineConfig::tiny());
    Addr region = machine.dramAlloc(48, 64);
    QueueAddrs queue = QueueAddrs::inRegion(region, 48);
    ASSERT_EQ(queue.capacity, 8u);
    auto &mem = machine.mem();
    mem.pokeAs<uint32_t>(queue.lock, 0);
    mem.pokeAs<uint32_t>(queue.head, kStart);
    mem.pokeAs<uint32_t>(queue.tail, kStart);

    uint64_t seed = GetParam();
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        QueueOps ops(core);
        std::deque<uint32_t> model;
        Xoshiro256StarStar rng(seed);
        uint32_t next_id = 1;
        for (int step = 0; step < 500; ++step) {
            switch (rng.nextBounded(3)) {
              case 0:
                if (ops.enqueue(queue, next_id)) {
                    model.push_back(next_id);
                    ++next_id;
                } else {
                    ASSERT_EQ(model.size(), queue.capacity)
                        << "false 'full' at step " << step;
                }
                break;
              case 1: {
                uint32_t got = ops.popTail(queue);
                if (model.empty()) {
                    ASSERT_EQ(got, 0u);
                } else {
                    ASSERT_EQ(got, model.back()) << "at step " << step;
                    model.pop_back();
                }
                break;
              }
              default: {
                uint32_t got = ops.stealHead(queue);
                if (model.empty()) {
                    ASSERT_EQ(got, 0u);
                } else {
                    ASSERT_EQ(got, model.front()) << "at step " << step;
                    model.pop_front();
                }
                break;
              }
            }
        }
    });
    // The indices really crossed the wrap (they only ever increase).
    EXPECT_LT(mem.peekAs<uint32_t>(queue.head), kStart);
    EXPECT_LT(mem.peekAs<uint32_t>(queue.tail), kStart);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DequeWrapTest,
                         ::testing::Values(55, 89, 144, 233));

// ---- Concurrent owner/thief vs. reference set ------------------------------

class ConcurrentDequeTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ConcurrentDequeTest, OwnerAndThiefLoseAndDuplicateNothing)
{
    // A real two-core interleaving: the owner mixes enqueues and LIFO
    // pops while a thief steals FIFO concurrently, with the concurrency
    // checker armed and (for nonzero seeds) the engine's schedule
    // perturbed. Every enqueued id must be consumed exactly once by
    // exactly one side, and the protocol must be violation-free.
    uint64_t sched_seed = GetParam();
    Machine machine(MachineConfig::tiny());
    ConcurrencyChecker *ck = machine.armChecker();
    if (sched_seed != 0)
        machine.engine().perturbSchedule(sched_seed, 8);

    constexpr uint32_t kQueueBytes = 128;
    Addr region = machine.dramAlloc(kQueueBytes, 64);
    QueueAddrs queue = QueueAddrs::inRegion(region, kQueueBytes);
    if (ck != nullptr)
        ck->registerRegion(RegionKind::Queue, region, kQueueBytes, 0,
                           queue.lock);
    auto &mem = machine.mem();
    mem.pokeAs<uint32_t>(queue.lock, 0);
    mem.pokeAs<uint32_t>(queue.head, 0);
    mem.pokeAs<uint32_t>(queue.tail, 0);

    constexpr uint32_t kIds = 200;
    bool owner_done = false; // host-side; the DES host is single-threaded
    std::vector<uint32_t> owner_got, thief_got;

    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [&](Core &core) {
        QueueOps ops(core);
        Xoshiro256StarStar rng(7 + sched_seed);
        uint32_t next_id = 1;
        while (next_id <= kIds) {
            if (rng.nextBounded(3) != 0) {
                if (ops.enqueue(queue, next_id))
                    ++next_id;
                else
                    core.idle(64); // full: let the thief make room
            } else {
                uint32_t got = ops.popTail(queue);
                if (got != 0)
                    owner_got.push_back(got);
            }
        }
        // Drain what's left so the final accounting is exact.
        for (uint32_t got = ops.popTail(queue); got != 0;
             got = ops.popTail(queue))
            owner_got.push_back(got);
        owner_done = true;
    };
    bodies[1] = [&](Core &core) {
        QueueOps ops(core);
        while (!owner_done || !ops.emptyUntimed(core.mem(), queue)) {
            uint32_t got = ops.stealHead(queue);
            if (got != 0)
                thief_got.push_back(got);
            else
                core.idle(32);
        }
    };
    for (CoreId i = 2; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);

    if (ck != nullptr) {
        EXPECT_EQ(ck->violations().size(), 0u) << ck->report();
    }
    EXPECT_TRUE(QueueOps(machine.core(0)).emptyUntimed(mem, queue));

    // No loss, no duplication: the union of both sides is exactly 1..kIds.
    std::vector<uint32_t> all(owner_got);
    all.insert(all.end(), thief_got.begin(), thief_got.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), kIds)
        << owner_got.size() << " popped + " << thief_got.size()
        << " stolen";
    for (uint32_t i = 0; i < kIds; ++i)
        ASSERT_EQ(all[i], i + 1) << "id " << i + 1 << " lost or duplicated";
    EXPECT_FALSE(thief_got.empty())
        << "the thief never stole anything; the test exercised nothing";
}

INSTANTIATE_TEST_SUITE_P(SchedSeeds, ConcurrentDequeTest,
                         ::testing::Values(0, 1, 2, 3, 4));

// ---- Fluid server ------------------------------------------------------------

TEST(FluidServer, NoDelayBelowCapacity)
{
    FluidServer server(1);
    for (Cycles t = 0; t < 1000; t += 2)
        EXPECT_EQ(server.charge(t, 1), 0u) << "at t=" << t;
}

TEST(FluidServer, BacklogGrowsUnderOverload)
{
    FluidServer server(1);
    Cycles last_delay = 0;
    for (Cycles t = 0; t < 100; ++t) {
        Cycles delay = server.charge(t, 3); // 3 units/cycle into rate 1
        EXPECT_GE(delay, last_delay);
        last_delay = delay;
    }
    EXPECT_GE(last_delay, 150u);
}

TEST(FluidServer, BacklogDrainsDuringIdle)
{
    FluidServer server(1);
    for (Cycles t = 0; t < 50; ++t)
        server.charge(t, 4);
    EXPECT_GT(server.backlogUnits(), 100u);
    // A long idle gap drains everything.
    EXPECT_EQ(server.charge(10'000, 1), 0u);
}

TEST(FluidServer, OutOfOrderArrivalsDoNotCrash)
{
    // Arrivals slightly in the past must not drain backlog backwards.
    FluidServer server(1);
    server.charge(100, 10);
    Cycles delay_at_past_time = server.charge(90, 1);
    EXPECT_GE(delay_at_past_time, 10u);
}

TEST(FluidServer, HigherRateDrainsFaster)
{
    FluidServer slow(1), fast(4);
    Cycles slow_delay = 0, fast_delay = 0;
    for (Cycles t = 0; t < 100; ++t) {
        slow_delay = slow.charge(t, 2);
        fast_delay = fast.charge(t, 2);
    }
    EXPECT_GT(slow_delay, fast_delay);
    EXPECT_EQ(fast_delay, 0u);
}

// ---- Allocator stress -----------------------------------------------------------

class AllocatorStressTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(AllocatorStressTest, RandomAllocFreeKeepsInvariants)
{
    constexpr Addr kBase = 0x4000'0000;
    constexpr uint64_t kBytes = 1 << 16;
    RangeAllocator heap(kBase, kBytes);
    Xoshiro256StarStar rng(GetParam());
    std::map<Addr, uint32_t> live; // addr -> size

    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.nextBounded(2) == 0) {
            auto size = static_cast<uint32_t>(1 + rng.nextBounded(512));
            uint32_t align = 1u << rng.nextBounded(7);
            Addr addr = heap.alloc(size, align);
            if (addr == kNullAddr)
                continue; // fragmentation; fine
            EXPECT_EQ(addr % align, 0u);
            EXPECT_GE(addr, kBase);
            EXPECT_LE(addr + size, kBase + kBytes);
            // No overlap with any live block.
            auto next = live.lower_bound(addr);
            if (next != live.end()) {
                EXPECT_LE(addr + size, next->first);
            }
            if (next != live.begin()) {
                auto prev = std::prev(next);
                EXPECT_LE(prev->first + prev->second, addr);
            }
            live[addr] = size;
        } else {
            auto victim = live.begin();
            std::advance(victim, rng.nextBounded(live.size()));
            heap.release(victim->first);
            live.erase(victim);
        }
    }
    // Free everything: the heap must recover to a single block.
    for (auto &[addr, size] : live)
        heap.release(addr);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    EXPECT_NE(heap.alloc(kBytes, 8), kNullAddr);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorStressTest,
                         ::testing::Values(11, 22, 33, 44));

// ---- Stack model stress -----------------------------------------------------------

class StackStressTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(StackStressTest, RandomPushPopTracksResidency)
{
    Machine machine(MachineConfig::tiny());
    Addr dram_buf = machine.dramAlloc(64 * 1024, 64);
    StackConfig cfg;
    Addr base = machine.mem().map().spmBase(0);
    constexpr uint32_t kSpmStack = 512;
    cfg.spmLow = base;
    cfg.spmTop = base + kSpmStack;
    cfg.dramBase = dram_buf;
    cfg.dramBytes = 64 * 1024;
    uint64_t seed = GetParam();

    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        StackModel stack(core, cfg);
        Xoshiro256StarStar rng(seed);
        std::vector<uint32_t> sizes;
        uint32_t spm_used = 0;
        for (int step = 0; step < 600; ++step) {
            bool push = sizes.empty() ||
                        (sizes.size() < 80 && rng.nextBounded(2) == 0);
            if (push) {
                auto bytes = static_cast<uint32_t>(
                    8 + 8 * rng.nextBounded(12));
                Addr frame = stack.push(bytes);
                sizes.push_back(bytes);
                // Model the residency rule: SPM iff it fits below top.
                bool expect_spm = spm_used + bytes <= kSpmStack;
                EXPECT_EQ(!stack.topInDram(), expect_spm);
                if (expect_spm) {
                    spm_used += bytes;
                    EXPECT_GE(frame, cfg.spmLow);
                    EXPECT_LT(frame, cfg.spmTop);
                } else {
                    EXPECT_TRUE(
                        machine.mem().map().isDram(frame));
                }
            } else {
                uint32_t bytes = sizes.back();
                bool was_spm = !stack.topInDram();
                stack.pop();
                sizes.pop_back();
                if (was_spm)
                    spm_used -= bytes;
            }
        }
        EXPECT_EQ(stack.depth(), sizes.size());
    });
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackStressTest,
                         ::testing::Values(7, 77, 777));

// ---- NoC properties -------------------------------------------------------------

TEST(NocProperties, UnloadedLatencyMonotonicInDistance)
{
    MachineConfig cfg;
    cfg.rucheX = 0; // plain mesh: strict hop-count monotonicity
    NocEndpoint origin{0, 0};
    Cycles previous = 0;
    for (uint32_t x = 1; x < cfg.meshCols; ++x) {
        MeshNoc noc(cfg); // fresh: unloaded
        Cycles t = noc.traverse(origin, NocEndpoint{x, 0}, 0, 4);
        EXPECT_GT(t, previous) << "at distance " << x;
        previous = t;
    }
}

TEST(NocProperties, DeterministicGivenSameSequence)
{
    MachineConfig cfg;
    auto run_once = [&cfg] {
        MeshNoc noc(cfg);
        Xoshiro256StarStar rng(5);
        Cycles last = 0;
        for (int i = 0; i < 500; ++i) {
            CoreId a = static_cast<CoreId>(
                rng.nextBounded(cfg.numCores()));
            CoreId b = static_cast<CoreId>(
                rng.nextBounded(cfg.numCores()));
            last = noc.traverse(noc.coreEndpoint(a), noc.coreEndpoint(b),
                                i, 4);
        }
        return last;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(NocProperties, ResetRestoresUnloadedLatency)
{
    MachineConfig cfg;
    MeshNoc noc(cfg);
    NocEndpoint a = noc.coreEndpoint(0);
    NocEndpoint b = noc.coreEndpoint(cfg.numCores() - 1);
    Cycles fresh = noc.traverse(a, b, 0, 4);
    for (int i = 0; i < 1000; ++i)
        noc.traverse(a, b, 0, 4); // pile up backlog
    noc.reset();
    EXPECT_EQ(noc.traverse(a, b, 0, 4), fresh);
    EXPECT_EQ(noc.packetsRouted(), 1u);
}

TEST(NocProperties, CongestionLocalizedToHotPath)
{
    // Hammering core 0 must not slow a disjoint far-corner route.
    MachineConfig cfg;
    MeshNoc noc(cfg);
    NocEndpoint far_a = noc.coreEndpoint(cfg.coreAt(14, 6));
    NocEndpoint far_b = noc.coreEndpoint(cfg.coreAt(15, 6));
    Cycles before = noc.traverse(far_a, far_b, 0, 4);
    NocEndpoint hot = noc.coreEndpoint(0);
    for (CoreId c = 1; c < cfg.numCores(); ++c)
        noc.traverse(noc.coreEndpoint(c), hot, 0, 4);
    Cycles after = noc.traverse(far_a, far_b, 1, 4);
    EXPECT_LE(after, before + 2);
}

// ---- LLC index hashing -------------------------------------------------------------

TEST(LlcProperties, StridedStacksDoNotThrashOneSet)
{
    // 128 blocks 256 KB apart (the per-core overflow stacks) must spread
    // across sets: re-touching them all must mostly hit.
    MachineConfig cfg; // full LLC: 32 banks x 64 sets x 8 ways
    DramModel dram(cfg);
    LlcModel llc(cfg, dram);
    constexpr uint64_t kStride = 256 * 1024;
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t i = 0; i < 128; ++i)
            llc.access(pass * 100000, i * kStride, 4, false);
    EXPECT_EQ(llc.misses(), 128u)
        << "second pass must hit: index hashing failed";
    EXPECT_EQ(llc.hits(), 128u);
}

TEST(LlcProperties, CapacityEviction)
{
    MachineConfig cfg = MachineConfig::tiny();
    DramModel dram(cfg);
    LlcModel llc(cfg, dram);
    // Touch twice the LLC capacity of distinct lines; all must miss.
    uint64_t capacity_lines = static_cast<uint64_t>(cfg.llcBanks) *
                              cfg.llcSetsPerBank * cfg.llcWays;
    for (uint64_t i = 0; i < 2 * capacity_lines; ++i)
        llc.access(0, i * MachineConfig::kLlcLineBytes, 4, false);
    EXPECT_EQ(llc.misses(), 2 * capacity_lines);
    EXPECT_EQ(llc.hits(), 0u);
}

// ---- parallel pattern sweeps ---------------------------------------------------------

struct SweepParam
{
    int64_t n;
    int64_t grain;
    bool dynamic;
};

class PatternSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(PatternSweep, ReduceSumAlwaysExact)
{
    SweepParam param = GetParam();
    Machine machine(MachineConfig::tiny());
    int64_t result = 0;
    auto root = [&](TaskContext &tc) {
        ForOptions opts;
        opts.grain = param.grain;
        result = parallelReduce<int64_t>(
            tc, 0, param.n, 0,
            [](TaskContext &, int64_t i) { return 2 * i + 1; },
            [](int64_t a, int64_t b) { return a + b; }, opts);
    };
    if (param.dynamic) {
        WorkStealingRuntime rt(machine, RuntimeConfig::full());
        rt.run(root);
    } else {
        StaticRuntime rt(machine, RuntimeConfig::full());
        rt.run(root);
    }
    EXPECT_EQ(result, param.n * param.n); // sum of first n odd numbers
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PatternSweep,
    ::testing::Values(SweepParam{1, 1, true}, SweepParam{2, 1, true},
                      SweepParam{7, 2, true}, SweepParam{63, 1, true},
                      SweepParam{64, 64, true}, SweepParam{100, 7, true},
                      SweepParam{1000, 0, true}, SweepParam{1, 1, false},
                      SweepParam{63, 1, false},
                      SweepParam{1000, 0, false}),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        return std::string(info.param.dynamic ? "ws" : "st") + "_n" +
               std::to_string(info.param.n) + "_g" +
               std::to_string(info.param.grain);
    });

// ---- runtime determinism sweep -----------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DeterminismSweep, IdenticalCyclesAcrossRepeats)
{
    uint64_t seed = GetParam();
    auto experiment = [seed] {
        Machine machine(MachineConfig::tiny());
        WorkStealingRuntime rt(machine, RuntimeConfig::full());
        Addr cells = machine.dramAllocArray<uint32_t>(64);
        Cycles cycles = rt.run([&](TaskContext &tc) {
            ForOptions opts;
            opts.grain = 1;
            parallelFor(
                tc, 0, 64,
                [&, seed](TaskContext &btc, int64_t i) {
                    uint64_t mix = hash64(seed ^ static_cast<uint64_t>(i));
                    btc.core().tick(1 + mix % 97);
                    btc.core().amoAdd(cells + (i % 64) * 4, 1);
                },
                opts);
        });
        return std::make_pair(cycles, machine.totalInstructions());
    };
    auto first = experiment();
    EXPECT_EQ(first, experiment());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

} // namespace
} // namespace spmrt
