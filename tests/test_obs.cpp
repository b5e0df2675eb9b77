/**
 * @file
 * Telemetry subsystem tests.
 *
 * The load-bearing property is cycle-neutrality: arming the tracer must
 * not change the simulation. Fib, CilkSort, and UTS are run twice —
 * tracer off and armed — and compared bit-identically on result digest,
 * final simulated time, context switches, and sync points. The rest
 * checks the trace-event schema (per-track monotonic timestamps,
 * balanced begin/end nesting), heatmap geometry against the mesh, that
 * the counters each layer keeps are live when read mid-run, and the
 * tracer's bounded-buffer drop accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/env.hpp"
#include "obs/trace.hpp"
#include "runtime/queue_ops.hpp"
#include "runtime/ws_runtime.hpp"
#include "serve/assets.hpp"
#include "serve/workloads.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/fib.hpp"

namespace spmrt {
namespace {

using namespace spmrt::workloads;

/** Everything that must be identical between armed and off runs. */
struct RunCapture
{
    uint64_t digest = 0;
    Cycles maxTime = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
};

/** Run @p workload, optionally with the tracer armed. */
RunCapture
runWorkload(const serve::FleetWorkload &workload, bool armed)
{
    serve::JobRequest req = serve::makeWorkloadRequest(workload);
    req.armChecker = false;
    Machine machine(req.machine);
    if (armed)
        machine.armTracer();
    serve::AssetCache assets;
    RunCapture capture;
    capture.digest = serve::runJob(req, machine, assets).digest;
    capture.maxTime = machine.engine().maxTime();
    capture.switches = machine.engine().switchCount();
    capture.syncPoints = machine.engine().syncPointCount();
    return capture;
}

TEST(TelemetryNeutrality, ArmedRunsBitIdenticalToOff)
{
    const serve::FleetWorkload workloads[] = {
        {"fib", 11}, {"cilksort", 600, 900}, {"uts", 6, 42, 2.2}};
    for (const serve::FleetWorkload &workload : workloads) {
        RunCapture off = runWorkload(workload, false);
        RunCapture armed = runWorkload(workload, true);
        EXPECT_EQ(off.digest, armed.digest) << workload.kind;
        EXPECT_EQ(off.maxTime, armed.maxTime) << workload.kind;
        EXPECT_EQ(off.switches, armed.switches) << workload.kind;
        EXPECT_EQ(off.syncPoints, armed.syncPoints) << workload.kind;
    }
}

TEST(TelemetryNeutrality, ReferenceSchedulerAlsoUnperturbed)
{
    auto run = [](bool armed) {
        Machine machine(MachineConfig::tiny());
        machine.engine().setReferenceScheduler(true);
        if (armed)
            machine.armTracer();
        WorkStealingRuntime rt(machine, RuntimeConfig::full());
        Addr out = machine.dramAlloc(8, 8);
        rt.run([&](TaskContext &tc) { fibKernel(tc, 10, out); });
        return std::make_tuple(machine.mem().peekAs<int64_t>(out),
                               machine.engine().maxTime(),
                               machine.engine().switchCount());
    };
    EXPECT_EQ(run(false), run(true));
}

TEST(Counters, AreLiveInsideAGuestBody)
{
    // Every layer's counters are read where they live, so a read from
    // guest code mid-run must already include every access the guest
    // made, not lag until the run ends.
    Machine machine(MachineConfig::tiny());
    FaultPlan plan;
    plan.stallCore(0, 0, 1'000'000, 3);
    plan.delayLockHolder(0, 1, 5);
    machine.setFaultPlan(&plan);
    const MemStats &mem = machine.mem().stats();
    const FaultPlan::InjectedStats &injected = plan.injected();
    const char *const names[] = {
        "local_spm_loads",   "local_spm_stores",   "amos",
        "core_stall_cycles", "lock_holder_cycles", "lock_holder_hits",
    };
    constexpr size_t kCounters = std::size(names);
    auto sample = [&] {
        return std::array<uint64_t, kCounters>{
            mem.localSpmLoads,         mem.localSpmStores,
            mem.amos,                  injected.coreStallCycles,
            injected.lockHolderCycles, injected.lockHolderHits,
        };
    };
    std::array<uint64_t, kCounters> before{}, after{};

    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        const Addr word = core.spmBase();
        const Addr lock = core.spmBase() + 64;
        before = sample();
        for (uint32_t i = 0; i < 100; ++i)
            core.load<uint32_t>(word);
        for (uint32_t i = 0; i < 50; ++i)
            core.store<uint32_t>(word, i);
        for (uint32_t i = 0; i < 10; ++i)
            core.amoAdd(word, 1);
        QueueOps ops(core);
        for (uint32_t i = 0; i < 4; ++i) {
            ops.lockAcquire(lock);
            ops.lockRelease(lock);
        }
        after = sample();
    });
    machine.setFaultPlan(nullptr);

    // 4 lock rounds add one local AMO (acquire) and one local store
    // (release) each; every period-1 acquisition holds 5 extra cycles.
    EXPECT_EQ(after[0] - before[0], 100u) << names[0];
    EXPECT_EQ(after[1] - before[1], 54u) << names[1];
    EXPECT_EQ(after[2] - before[2], 14u) << names[2];
    EXPECT_GT(after[3], before[3]) << names[3];
    EXPECT_EQ(after[4] - before[4], 20u) << names[4];
    EXPECT_EQ(after[5] - before[5], 4u) << names[5];
    // The run tail adds nothing the guest did not already see.
    const std::array<uint64_t, kCounters> end = sample();
    for (size_t i = 0; i < kCounters; ++i)
        EXPECT_EQ(end[i], after[i]) << names[i];
}

/** A 16-core machine, the acceptance scenario for Perfetto traces. */
MachineConfig
sixteenCores()
{
    MachineConfig cfg;
    cfg.meshCols = 4;
    cfg.meshRows = 4;
    cfg.llcBanks = 8;
    cfg.llcSetsPerBank = 32;
    cfg.dramBytes = 128ull * 1024 * 1024;
    return cfg;
}

TEST(TraceSchema, CilkSortTimelineWellFormed)
{
    Machine machine(sixteenCores());
    obs::Tracer *tracer = machine.armTracer();
    ASSERT_NE(tracer, nullptr);
    uint64_t switches_at_arm = machine.engine().switchCount();

    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    CilkSortData data = cilksortSetup(machine, 800, 7);
    rt.run([&](TaskContext &tc) { cilksortKernel(tc, data); });

    const std::vector<obs::TraceEvent> &events = tracer->events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(tracer->dropped(), 0u);

    // Per-track timestamps must be monotonic in emission order for
    // B/E/i events (X spans on the fault track are plan-install-time
    // and exempt), and begin/end must nest with matching names.
    std::map<uint32_t, Cycles> last_ts;
    std::map<uint32_t, std::vector<const char *>> open;
    uint64_t switch_events = 0;
    for (const obs::TraceEvent &event : events) {
        ASSERT_NE(event.name, nullptr);
        if (event.phase == 'X')
            continue;
        auto it = last_ts.find(event.track);
        if (it != last_ts.end()) {
            EXPECT_GE(event.ts, it->second)
                << "track " << event.track << " event " << event.name;
        }
        last_ts[event.track] = event.ts;
        if (event.phase == 'B') {
            open[event.track].push_back(event.name);
        } else if (event.phase == 'E') {
            ASSERT_FALSE(open[event.track].empty())
                << "unbalanced end on track " << event.track;
            EXPECT_STREQ(open[event.track].back(), event.name);
            open[event.track].pop_back();
        }
        if (event.category == obs::kTraceSwitch)
            ++switch_events;
        EXPECT_LT(event.track, machine.config().numCores());
    }
    for (const auto &[track, stack] : open)
        EXPECT_TRUE(stack.empty()) << "unclosed begin on track " << track;

    // One switch instant per dispatch since arming.
    EXPECT_EQ(switch_events,
              machine.engine().switchCount() - switches_at_arm);

    // The serialized form is one JSON object per event plus metadata.
    std::string json = tracer->chromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"spmrt-trace-v1\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);

    // CI's trace-smoke job points SPMRT_TRACE_OUT at a scratch path and
    // validates the file with tools/check_trace.py.
    std::string out = env::stringValue("SPMRT_TRACE_OUT");
    if (!out.empty())
        tracer->writeChromeJson(out);
}

TEST(TraceSchema, FaultWindowsLandOnFaultTrack)
{
    Machine machine(MachineConfig::tiny());
    obs::Tracer *tracer = machine.armTracer();
    ASSERT_NE(tracer, nullptr);
    FaultPlan plan;
    plan.stallCore(1, 100, 2000, 7);
    machine.setFaultPlan(&plan);

    bool saw_window = false;
    for (const obs::TraceEvent &event : tracer->events()) {
        if (event.phase != 'X')
            continue;
        saw_window = true;
        EXPECT_EQ(event.track, obs::kTraceFaultTrack);
        EXPECT_STREQ(event.name, "core_stall");
        EXPECT_EQ(event.ts, 100u);
        EXPECT_EQ(event.dur, 1900u);
    }
    EXPECT_TRUE(saw_window);
    machine.setFaultPlan(nullptr);
}

TEST(Heatmaps, GeometryMatchesMesh)
{
    MachineConfig cfg = sixteenCores();
    Machine machine(cfg);
    machine.armTracer();
    WorkStealingRuntime rt(machine, RuntimeConfig::full());
    CilkSortData data = cilksortSetup(machine, 400, 3);
    rt.run([&](TaskContext &tc) { cilksortKernel(tc, data); });

    const MeshNoc &noc = machine.mem().noc();
    obs::Heatmap links = noc.linkHeatmap();
    EXPECT_EQ(links.labels.size(), noc.numLinks());
    EXPECT_EQ(links.rows.size(), noc.numLinks());
    uint64_t flits = 0;
    for (size_t i = 0; i < noc.numLinks(); ++i) {
        uint32_t x = 0, y = 0, dir = 0;
        noc.linkCoords(i, x, y, dir);
        EXPECT_LT(x, cfg.meshCols);
        EXPECT_LT(y, cfg.meshRows);
        EXPECT_LT(dir, 8u); // E/W/N/S + ruche X and Y expresses
        ASSERT_EQ(links.rows[i].size(), links.columns.size());
        EXPECT_EQ(links.rows[i][0], x);
        EXPECT_EQ(links.rows[i][1], y);
        EXPECT_EQ(links.rows[i][2], dir);
        flits += links.rows[i][3];
    }
    EXPECT_GT(flits, 0u) << "a cilksort run must move NoC traffic";

    const LlcModel &llc = machine.mem().llc();
    obs::Heatmap banks = llc.bankHeatmap();
    EXPECT_EQ(banks.rows.size(), llc.numBanks());
    uint64_t accesses = 0;
    for (const std::vector<uint64_t> &row : banks.rows) {
        ASSERT_EQ(row.size(), banks.columns.size());
        accesses += row[0];
        EXPECT_EQ(row[0], row[1] + row[2]); // accesses = hits + misses
    }
    EXPECT_GT(accesses, 0u);

    // CSV shape: header + one line per row, headed by the label column.
    std::string csv = links.csv();
    EXPECT_EQ(static_cast<size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              noc.numLinks() + 1);
    EXPECT_EQ(csv.rfind("link,x,y,dir,", 0), 0u);
}

TEST(Tracer, BoundedBufferCountsDrops)
{
    obs::Tracer tracer(4);
    for (uint32_t i = 0; i < 6; ++i)
        tracer.instant(obs::kTraceTask, 0, i, "tick");
    EXPECT_EQ(tracer.events().size(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);
    tracer.clear();
    EXPECT_TRUE(tracer.events().empty());
    EXPECT_EQ(tracer.dropped(), 0u);
}

} // namespace
} // namespace spmrt
