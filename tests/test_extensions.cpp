/**
 * @file
 * Tests for work dealing, the extension beyond the paper's core system
 * that abl_dealing measures: spawns are pushed to peers' queues
 * round-robin at creation time, and idle cores never steal.
 */

#include <gtest/gtest.h>

#include <set>

#include "workloads/fib.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace {

using namespace spmrt::workloads;

TEST(WorkDealing, FibStillCorrect)
{
    Machine machine(MachineConfig::tiny());
    Addr out = machine.dramAlloc(8, 8);
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.workDealing = true;
    WorkStealingRuntime rt(machine, cfg);
    rt.run([&](TaskContext &tc) { fibKernel(tc, 13, out); });
    EXPECT_EQ(machine.mem().peekAs<int64_t>(out), fibReference(13));
}

TEST(WorkDealing, NeverSteals)
{
    Machine machine(MachineConfig::tiny());
    Addr out = machine.dramAlloc(8, 8);
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.workDealing = true;
    WorkStealingRuntime rt(machine, cfg);
    rt.run([&](TaskContext &tc) { fibKernel(tc, 12, out); });
    EXPECT_EQ(machine.totalStat(&RuntimeStats::stealHits), 0u);
    EXPECT_EQ(machine.totalStat(&RuntimeStats::stealAttempts), 0u);
}

TEST(WorkDealing, SpreadsWorkAcrossCores)
{
    Machine machine(MachineConfig::tiny());
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.workDealing = true;
    WorkStealingRuntime rt(machine, cfg);
    std::set<CoreId> executors;
    rt.run(
        [&](TaskContext &tc) {
            tc.setReadyCount(16);
            for (int i = 0; i < 16; ++i) {
                auto *child = makeClosureTask([&](TaskContext &ctc) {
                    executors.insert(ctc.core().id());
                    ctc.core().tick(1000);
                });
                child->runtimeOwned = true;
                tc.prepareChild(child);
                tc.spawn(child);
            }
            tc.waitChildren();
        },
        /*root_frame_bytes=*/160);
    EXPECT_GT(executors.size(), 2u)
        << "dealing must distribute spawns across cores";
}

TEST(WorkDealing, UtsCorrectUnderDealing)
{
    UtsParams params = UtsParams::geometric(7, 2.0, 5);
    Machine machine(MachineConfig::tiny());
    UtsData data = utsSetup(machine, params);
    RuntimeConfig cfg = RuntimeConfig::full();
    cfg.workDealing = true;
    WorkStealingRuntime rt(machine, cfg);
    rt.run([&](TaskContext &tc) { utsKernel(tc, data); });
    EXPECT_EQ(utsResult(machine, data), utsReference(params));
}

} // namespace
} // namespace spmrt
