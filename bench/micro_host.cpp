/**
 * @file
 * Host-side microbenchmarks (google-benchmark): the simulator's own
 * data-structure costs. These measure *host* nanoseconds, not simulated
 * cycles — they bound how fast the simulator itself can run and catch
 * regressions in the hot paths (context switch, fluid-server charge,
 * NoC traversal, LLC lookup, RNGs, task registry, allocator, machine
 * build) and in the host input path (graph and matrix generation, CSR
 * builds, array upload).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench/support.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "matrix/generators.hpp"
#include "mem/alloc.hpp"
#include "mem/dram.hpp"
#include "mem/fluid_server.hpp"
#include "mem/llc.hpp"
#include "mem/memory_system.hpp"
#include "mem/noc.hpp"
#include "runtime/task.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace spmrt {
namespace {

void
BM_Xoshiro(benchmark::State &state)
{
    Xoshiro256StarStar rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Xoshiro);

void
BM_SplittableSplit(benchmark::State &state)
{
    SplittableRng rng(1);
    uint64_t index = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.split(index++).raw());
}
BENCHMARK(BM_SplittableSplit);

/** The rate-1 server every mesh link, SPM port and LLC bank charges. */
void
BM_FluidServerCharge(benchmark::State &state)
{
    UnitFluidServer server;
    Cycles t = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(server.charge(t++, 2));
}
BENCHMARK(BM_FluidServerCharge);

void
BM_NocTraverse(benchmark::State &state)
{
    MachineConfig cfg;
    MeshNoc noc(cfg);
    Xoshiro256StarStar rng(3);
    Cycles t = 0;
    for (auto _ : state) {
        CoreId src = static_cast<CoreId>(rng.nextBounded(cfg.numCores()));
        CoreId dst = static_cast<CoreId>(rng.nextBounded(cfg.numCores()));
        benchmark::DoNotOptimize(noc.traverse(
            noc.coreEndpoint(src), noc.coreEndpoint(dst), t++, 4));
    }
}
BENCHMARK(BM_NocTraverse);

/**
 * Random traffic on the paper machine through the precomputed X and Y
 * step tables. Arg: banks?. banks = 0 sends core to core (remote SPM);
 * banks = 1 alternates a core-to-bank request with a bank-to-core
 * response (every LLC access pays both).
 */
void
BM_NocTraverseCompiled(benchmark::State &state)
{
    const bool banks = state.range(0) != 0;
    MachineConfig cfg;
    MeshNoc noc(cfg);
    Xoshiro256StarStar rng(3);
    Cycles t = 0;
    bool request = true;
    for (auto _ : state) {
        NocEndpoint core = noc.coreEndpoint(
            static_cast<CoreId>(rng.nextBounded(cfg.numCores())));
        NocEndpoint other =
            banks ? noc.bankEndpoint(static_cast<uint32_t>(
                        rng.nextBounded(cfg.llcBanks)))
                  : noc.coreEndpoint(static_cast<CoreId>(
                        rng.nextBounded(cfg.numCores())));
        if (!banks || request)
            benchmark::DoNotOptimize(noc.traverse(core, other, t++, 4));
        else
            benchmark::DoNotOptimize(noc.traverse(other, core, t++, 64));
        request = !request;
    }
    state.SetLabel(banks ? "core<->bank" : "core->core");
}
BENCHMARK(BM_NocTraverseCompiled)->Arg(0)->Arg(1);

/**
 * One LLC lookup on the paper geometry (32 banks x 64 sets x 8 ways):
 * random words over twice the cache's capacity, a quarter of them
 * stores, so lookups mix hits with misses, LRU fills and dirty
 * write-backs the way a DRAM-heavy kernel's do.
 */
void
BM_LlcAccess(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::paper();
    DramModel dram(cfg);
    LlcModel llc(cfg, dram);
    const uint64_t lines = 2ull * cfg.llcBanks * cfg.llcSetsPerBank *
                           cfg.llcWays;
    Xoshiro256StarStar rng(5);
    Cycles t = 0;
    for (auto _ : state) {
        const uint64_t r = rng.next();
        const uint64_t offset = (r % lines) * MachineConfig::kLlcLineBytes;
        benchmark::DoNotOptimize(
            llc.access(t++, offset, 4, (r >> 60) < 4));
    }
    state.SetLabel(std::to_string(llc.hits() * 100 /
                                  std::max<uint64_t>(1, llc.hits() +
                                                            llc.misses())) +
                   "% hits");
}
BENCHMARK(BM_LlcAccess);

/**
 * The dominant simulated-memory operation: the issuing core loading a
 * word from its own scratchpad. Exercises the computed decode plus the
 * inline local fast path in MemorySystem::load().
 */
void
BM_LocalSpmLoad(benchmark::State &state)
{
    MemorySystem mem(MachineConfig::tiny());
    Cycles t = 0;
    uint32_t value = 0;
    uint32_t offset = 0;
    for (auto _ : state) {
        Addr addr = AddressMap::kSpmBase + (offset & 1023u);
        offset += 4;
        benchmark::DoNotOptimize(t = mem.load(0, t, addr, &value, 4));
    }
}
BENCHMARK(BM_LocalSpmLoad);

/**
 * A blocking load from another core's scratchpad: request packet across
 * the mesh, SPM port service at the owner, response packet back. Bounds
 * the host cost of the full remote round trip (decode + two compiled
 * traversals + port charge).
 */
void
BM_RemoteSpmRoundTrip(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::tiny();
    MemorySystem mem(cfg);
    const CoreId owner = cfg.numCores() - 1;
    const Addr addr =
        AddressMap::kSpmBase + owner * AddressMap::kSpmStride;
    Cycles t = 0;
    uint32_t value = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(t = mem.load(0, t, addr, &value, 4));
}
BENCHMARK(BM_RemoteSpmRoundTrip);

/**
 * Construct and destroy one Machine: engine, memory system (NoC, LLC
 * tags, SPM image, DRAM image) and per-core handles. The DRAM image is a
 * lazily zero-filled mapping, so this measures the machine's structures,
 * not its DRAM size. Args: {paper?} — 0 is the 16-core, 128 MiB fleet
 * job machine, 1 the 128-core, 256 MiB paper machine.
 */
void
BM_MachineBuildTeardown(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::paper();
    if (state.range(0) == 0) {
        cfg.meshCols = 4;
        cfg.meshRows = 4;
        cfg.llcBanks = 8;
        cfg.llcSetsPerBank = 32;
        cfg.dramBytes = 128ull * 1024 * 1024;
    }
    for (auto _ : state) {
        Machine machine(cfg);
        benchmark::DoNotOptimize(&machine);
    }
    state.SetLabel(std::to_string(cfg.numCores()) + " cores/" +
                   std::to_string(cfg.dramBytes >> 20) + " MiB");
}
BENCHMARK(BM_MachineBuildTeardown)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void
BM_TaskRegistryAddRemove(benchmark::State &state)
{
    TaskRegistry registry;
    auto *task = makeClosureTask([](TaskContext &) {});
    for (auto _ : state) {
        uint32_t id = registry.add(task);
        registry.remove(id);
    }
    delete task;
}
BENCHMARK(BM_TaskRegistryAddRemove);

void
BM_RangeAllocator(benchmark::State &state)
{
    RangeAllocator heap(0x1000, 1 << 20);
    for (auto _ : state) {
        Addr a = heap.alloc(64, 8);
        Addr b = heap.alloc(128, 8);
        heap.release(a);
        heap.release(b);
    }
}
BENCHMARK(BM_RangeAllocator);

/**
 * The scheduler's argmin structure under a switch-heavy load: every core
 * advances by ~1 cycle and hits a sync point, so nearly every sync point
 * is a yield plus a scheduler pick. Args: {reference?, cores}. Comparing
 * the reference rows against the fast rows isolates the O(N) scan vs.
 * O(log N) winner-tree cost per switch.
 */
void
BM_EngineScheduleSwitch(benchmark::State &state)
{
    const bool reference = state.range(0) != 0;
    const uint32_t cores = static_cast<uint32_t>(state.range(1));
    constexpr int kRounds = 200;
    Engine engine(cores, 64 * 1024);
    engine.setReferenceScheduler(reference);
    uint64_t items = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (CoreId i = 0; i < cores; ++i) {
            engine.setBody(i, [&engine, i] {
                for (int k = 0; k < kRounds; ++k) {
                    engine.advance(i, 1 + (i + k) % 3);
                    engine.syncPoint(i);
                }
            });
        }
        state.ResumeTiming();
        engine.run();
        items += static_cast<uint64_t>(cores) * kRounds;
    }
    state.SetItemsProcessed(static_cast<int64_t>(items));
    state.SetLabel(reference ? "reference" : "fast");
}
BENCHMARK(BM_EngineScheduleSwitch)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 128})
    ->Args({1, 128})
    ->Unit(benchmark::kMicrosecond);

/**
 * The syncPoint fast path: core 0 takes tiny steps while every other
 * core has already advanced far ahead, so core 0 stays the global
 * minimum and its sync points must not yield. The fast scheduler pays
 * one compare against the cached other-min; the reference scans all
 * cores per sync point. Args: {reference?, cores}.
 */
void
BM_EngineSyncPointFastPath(benchmark::State &state)
{
    const bool reference = state.range(0) != 0;
    const uint32_t cores = static_cast<uint32_t>(state.range(1));
    constexpr Cycles kHorizon = 20000;
    Engine engine(cores, 64 * 1024);
    engine.setReferenceScheduler(reference);
    uint64_t items = 0;
    for (auto _ : state) {
        state.PauseTiming();
        engine.setBody(0, [&engine] {
            Cycles stop = engine.time(0) + kHorizon;
            while (engine.time(0) < stop) {
                engine.advance(0, 1);
                engine.syncPoint(0);
            }
        });
        for (CoreId i = 1; i < cores; ++i) {
            engine.setBody(i, [&engine, i] {
                engine.advance(i, kHorizon + 1);
                engine.syncPoint(i);
            });
        }
        state.ResumeTiming();
        engine.run();
        items += kHorizon;
    }
    state.SetItemsProcessed(static_cast<int64_t>(items));
    state.SetLabel(reference ? "reference" : "fast");
}
BENCHMARK(BM_EngineSyncPointFastPath)
    ->Args({0, 16})
    ->Args({1, 16})
    ->Args({0, 128})
    ->Args({1, 128})
    ->Unit(benchmark::kMicrosecond);

void
BM_ContextSwitchPair(benchmark::State &state)
{
    // Two coroutines ping-ponging through the scheduler: measures the
    // simulator's fundamental event cost.
    Engine engine(2, 64 * 1024);
    uint64_t rounds = 0;
    for (auto _ : state) {
        state.PauseTiming();
        for (CoreId i = 0; i < 2; ++i) {
            engine.setBody(i, [&engine, i] {
                for (int k = 0; k < 1000; ++k) {
                    engine.advance(i, 1);
                    engine.syncPoint(i);
                }
            });
        }
        state.ResumeTiming();
        engine.run();
        rounds += 2000;
    }
    state.SetItemsProcessed(static_cast<int64_t>(rounds));
}
BENCHMARK(BM_ContextSwitchPair)->Unit(benchmark::kMicrosecond);

// ---- the host input path at graph-mem's sizes ------------------------------
// The benchmark's graph-mem cells build a 16384-vertex, degree-16 Zipf 0.7
// graph and a 16384 x 16384 power-law matrix with 8 nonzeros per row;
// these time each step of that setup: generation, the CSR builds, and the
// upload into simulated DRAM.

constexpr uint32_t kGraphMemVertices = 16384;

void
BM_GenPowerLaw(benchmark::State &state)
{
    for (auto _ : state) {
        HostGraph graph = genPowerLaw(kGraphMemVertices, 16, 0.7, 1);
        benchmark::DoNotOptimize(graph.targets.data());
    }
}
BENCHMARK(BM_GenPowerLaw)->Unit(benchmark::kMillisecond);

/** fromEdges on the power-law graph's edge list, shuffled. */
void
BM_HostGraphFromEdges(benchmark::State &state)
{
    const HostGraph graph = genPowerLaw(kGraphMemVertices, 16, 0.7, 1);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t v = 0; v < graph.numVertices; ++v)
        for (uint32_t e = graph.offsets[v]; e < graph.offsets[v + 1]; ++e)
            edges.emplace_back(v, graph.targets[e]);
    Xoshiro256StarStar rng(7);
    for (size_t i = edges.size(); i > 1; --i)
        std::swap(edges[i - 1], edges[rng.nextBounded(i)]);
    for (auto _ : state) {
        HostGraph built = HostGraph::fromEdges(graph.numVertices, edges);
        benchmark::DoNotOptimize(built.targets.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_HostGraphFromEdges)->Unit(benchmark::kMillisecond);

/** The in-edge graph PageRank's setup and its verify each build. */
void
BM_HostGraphTranspose(benchmark::State &state)
{
    const HostGraph graph = genPowerLaw(kGraphMemVertices, 16, 0.7, 1);
    for (auto _ : state) {
        HostGraph reverse = graph.transpose();
        benchmark::DoNotOptimize(reverse.targets.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(graph.numEdges()));
}
BENCHMARK(BM_HostGraphTranspose)->Unit(benchmark::kMillisecond);

void
BM_GenCsrPowerLaw(benchmark::State &state)
{
    for (auto _ : state) {
        HostCsr csr = genCsrPowerLaw(kGraphMemVertices, kGraphMemVertices,
                                     8, 0.7, 1);
        benchmark::DoNotOptimize(csr.colIdx.data());
    }
}
BENCHMARK(BM_GenCsrPowerLaw)->Unit(benchmark::kMillisecond);

/**
 * uploadArray of the power-law graph's target array into the paper
 * machine's DRAM, then downloadArray of it back. The allocation is
 * freed each round, so every round writes the same pages.
 */
void
BM_UploadArray(benchmark::State &state)
{
    const HostGraph graph = genPowerLaw(kGraphMemVertices, 16, 0.7, 1);
    Machine machine(MachineConfig::paper());
    for (auto _ : state) {
        Addr base = uploadArray(machine, graph.targets);
        std::vector<uint32_t> back =
            downloadArray<uint32_t>(machine, base, graph.numEdges());
        benchmark::DoNotOptimize(back.data());
        machine.dramFree(base);
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                            static_cast<int64_t>(graph.numEdges() * 4));
}
BENCHMARK(BM_UploadArray)->Unit(benchmark::kMicrosecond);

/**
 * Console reporter that also mirrors every finished run into the shared
 * bench::Report, so micro benches publish the same spmrt-bench-v1 JSON
 * as the experiment benches (CI perf-smoke uploads it as an artifact).
 */
class ReportCollector : public benchmark::ConsoleReporter
{
  public:
    explicit ReportCollector(bench::Report &report) : report_(report) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration)
                continue;
            if (run.error_occurred) {
                report_.fail("%s: %s", run.benchmark_name().c_str(),
                             run.error_message.c_str());
                continue;
            }
            report_.row()
                .cell("bench", run.benchmark_name())
                .cell("time_per_op", run.GetAdjustedRealTime())
                .cell("cpu_per_op", run.GetAdjustedCPUTime())
                .cell("unit", benchmark::GetTimeUnitString(run.time_unit))
                .cell("iterations", run.iterations);
            if (!run.report_label.empty())
                report_.cell("label", run.report_label);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    bench::Report &report_;
};

} // namespace
} // namespace spmrt

/**
 * Like BENCHMARK_MAIN(), but routes results through bench::Report.
 * --out=<path> is peeled off for the Report (spmrt-bench-v1 JSON);
 * every other flag goes to google-benchmark untouched, so the usual
 * --benchmark_filter= etc. still work.
 */
int
main(int argc, char **argv)
{
    std::vector<char *> report_args = {argv[0]};
    std::vector<char *> bm_args = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--out=", 0) == 0)
            report_args.push_back(argv[i]);
        else
            bm_args.push_back(argv[i]);
    }
    spmrt::bench::Report report(
        "micro_host", static_cast<int>(report_args.size()),
        report_args.data());
    int bm_argc = static_cast<int>(bm_args.size());
    benchmark::Initialize(&bm_argc, bm_args.data());
    if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_args.data()))
        return 1;
    spmrt::ReportCollector reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return report.finish();
}
