/**
 * @file
 * The cell-based workloads (spawn-tree, graph-mem), the per-simulation
 * runner that times each layer call, and the counter snapshot.
 */

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "matrix/generators.hpp"
#include "runtime/static_runtime.hpp"
#include "runtime/ws_runtime.hpp"
#include "workloads/fib.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/spm_transpose.hpp"
#include "workloads/uts.hpp"

namespace perfbench {

using namespace spmrt;
using namespace spmrt::workloads;

const char *const kPhaseSpan[kNumPhases] = {
    "sim.machine_build", "", "workloads.setup", "runtime.ctor",
    "runtime.run", "workloads.verify", "sim.machine_teardown"};

Counters
Counters::of(Machine &machine)
{
    Counters c;
    c.instructions = machine.totalInstructions();
    c.switches = machine.engine().switchCount();
    c.syncPoints = machine.engine().syncPointCount();
    const MemStats &mem = machine.mem().stats();
    c.localSpmOps = mem.localSpmLoads + mem.localSpmStores;
    c.remoteSpmOps = mem.remoteSpmLoads + mem.remoteSpmStores;
    c.dramLoads = mem.dramLoads;
    c.dramStores = mem.dramStores;
    c.amos = mem.amos;
    const MeshNoc &noc = machine.mem().noc();
    c.nocPackets = noc.packetsRouted();
    c.nocLinkCycles = noc.linkCyclesUsed();
    c.nocWalked = noc.walkedTraversals();
    const LlcModel &llc = machine.mem().llc();
    c.llcHits = llc.hits();
    c.llcMisses = llc.misses();
    c.llcWritebacks = llc.writebacks();
    const DramModel &dram = machine.mem().dram();
    c.dramTransfers = dram.transfers();
    c.dramBytes = dram.bytesMoved();
    c.tasksSpawned = machine.totalStat(&RuntimeStats::tasksSpawned);
    c.stealAttempts = machine.totalStat(&RuntimeStats::stealAttempts);
    c.stealHits = machine.totalStat(&RuntimeStats::stealHits);
    c.spawnsInlined = machine.totalStat(&RuntimeStats::spawnsInlined);
    c.framesPushed = machine.totalStat(&RuntimeStats::stackFramesPushed);
    c.framesOverflowed =
        machine.totalStat(&RuntimeStats::stackFramesOverflowed);
    return c;
}

Counters &
Counters::operator+=(const Counters &o)
{
    instructions += o.instructions;
    switches += o.switches;
    syncPoints += o.syncPoints;
    localSpmOps += o.localSpmOps;
    remoteSpmOps += o.remoteSpmOps;
    dramLoads += o.dramLoads;
    dramStores += o.dramStores;
    amos += o.amos;
    nocPackets += o.nocPackets;
    nocLinkCycles += o.nocLinkCycles;
    nocWalked += o.nocWalked;
    llcHits += o.llcHits;
    llcMisses += o.llcMisses;
    llcWritebacks += o.llcWritebacks;
    dramTransfers += o.dramTransfers;
    dramBytes += o.dramBytes;
    tasksSpawned += o.tasksSpawned;
    stealAttempts += o.stealAttempts;
    stealHits += o.stealHits;
    spawnsInlined += o.spawnsInlined;
    framesPushed += o.framesPushed;
    framesOverflowed += o.framesOverflowed;
    return *this;
}

std::vector<double>
spanSelfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, size_t> index;
    for (size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        auto parent = index.find(span.parent);
        if (span.parent != 0 && parent != index.end())
            children[parent->second].emplace_back(span.startMs, span.endMs);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double reach = spans[i].startMs;
        for (auto [from, to] : kids) {
            from = std::max(from, reach);
            to = std::min(to, spans[i].endMs);
            if (to > from) {
                covered += to - from;
                reach = to;
            }
        }
        self[i] = spans[i].endMs - spans[i].startMs - covered;
    }
    return self;
}

namespace {

/** FNV-1a over the bytes of a downloaded array. */
template <typename T>
uint64_t
bytesDigest(const std::vector<T> &values, uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(values.data());
    for (size_t i = 0; i < values.size() * sizeof(T); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename Runtime>
Cycles
runWith(Machine &machine, const RuntimeConfig &cfg,
        const std::function<void(TaskContext &)> &root, Laps &laps)
{
    Runtime rt(machine, cfg);
    laps.lap(kCtor);
    Cycles cycles = rt.run(root);
    laps.lap(kRun);
    return cycles;
}

std::string
machineJson(const MachineConfig &machine)
{
    return log::format("\"machine\": \"%s\"", machine.geometry().c_str());
}

Cell
fibCell(int n)
{
    Cell cell;
    cell.name = log::format("fib/%d", n);
    cell.prepare = [n](Machine &machine, Laps &) {
        Addr out = machine.dramAlloc(8, 8);
        Prepared prep;
        prep.root = [n, out](TaskContext &tc) { fibKernel(tc, n, out); };
        prep.digest = [out](Machine &m) {
            return static_cast<uint64_t>(m.mem().peekAs<int64_t>(out));
        };
        prep.verify = [n, out](Machine &m) {
            return m.mem().peekAs<int64_t>(out) == fibReference(n);
        };
        return prep;
    };
    cell.inputsJson = log::format("{\"kernel\": \"fib\", \"n\": %d", n);
    return cell;
}

Cell
nqueensCell(uint32_t n)
{
    Cell cell;
    cell.name = log::format("nqueens/%u", n);
    cell.prepare = [n](Machine &machine, Laps &) {
        auto data = std::make_shared<NQueensData>(nqueensSetup(machine, n));
        Prepared prep;
        prep.root = [data](TaskContext &tc) { nqueensKernel(tc, *data); };
        prep.digest = [data](Machine &m) { return nqueensResult(m, *data); };
        prep.verify = [data, n](Machine &m) {
            return nqueensResult(m, *data) == nqueensReference(n);
        };
        return prep;
    };
    cell.inputsJson = log::format("{\"kernel\": \"nqueens\", \"n\": %u", n);
    return cell;
}

Cell
utsCell(const UtsParams &params)
{
    Cell cell;
    cell.name = log::format("uts/binomial/%u", params.rootBranch);
    cell.prepare = [params](Machine &machine, Laps &) {
        auto data = std::make_shared<UtsData>(utsSetup(machine, params));
        Prepared prep;
        prep.root = [data](TaskContext &tc) { utsKernel(tc, *data); };
        prep.digest = [data](Machine &m) { return utsResult(m, *data); };
        prep.verify = [data, params](Machine &m) {
            return utsResult(m, *data) == utsReference(params);
        };
        return prep;
    };
    cell.inputsJson = log::format(
        "{\"kernel\": \"uts\", \"shape\": \"binomial\", \"root_branch\": "
        "%u, \"m\": %u, \"q\": %.3f, \"root_seed\": %" PRIu64,
        params.rootBranch, params.binomialM, params.binomialQ,
        params.rootSeed);
    return cell;
}

Cell
pagerankCell(uint32_t vertices, uint32_t degree, uint64_t seed)
{
    Cell cell;
    cell.name = "pagerank/email";
    cell.genSpan = "graph.gen";
    cell.prepare = [=](Machine &machine, Laps &laps) {
        auto graph = std::make_shared<HostGraph>(
            genPowerLaw(vertices, degree, 0.7, seed));
        laps.lap(kGen);
        auto data =
            std::make_shared<PageRankData>(pagerankSetup(machine, *graph));
        Prepared prep;
        prep.root = [data](TaskContext &tc) {
            pagerankKernel(tc, *data, 1);
        };
        prep.digest = [data, vertices](Machine &m) {
            return bytesDigest(downloadArray<float>(m, data->rank, vertices));
        };
        prep.verify = [data, graph](Machine &m) {
            return pagerankVerify(m, *data, *graph, 1);
        };
        return prep;
    };
    cell.inputsJson = log::format(
        "{\"kernel\": \"pagerank\", \"iterations\": 1, \"graph\": "
        "\"power_law\", \"vertices\": %u, \"degree\": %u, \"alpha\": 0.7, "
        "\"graph_seed\": %" PRIu64,
        vertices, degree, seed);
    return cell;
}

Cell
spmtCell(uint32_t n, uint32_t nnz, uint64_t seed)
{
    Cell cell;
    cell.name = "spmt/email";
    cell.genSpan = "matrix.gen";
    cell.prepare = [=](Machine &machine, Laps &laps) {
        auto matrix = std::make_shared<HostCsr>(
            genCsrPowerLaw(n, n, nnz, 0.7, seed));
        laps.lap(kGen);
        auto data = std::make_shared<SpmTransposeData>(
            spmTransposeSetup(machine, *matrix));
        Prepared prep;
        prep.root = [data](TaskContext &tc) {
            spmTransposeKernel(tc, *data);
        };
        prep.digest = [data, matrix](Machine &m) {
            uint64_t h = bytesDigest(downloadArray<uint32_t>(
                m, data->outRowPtr, matrix->cols + 1));
            h = bytesDigest(
                downloadArray<uint32_t>(m, data->outColIdx, matrix->nnz()),
                h);
            return bytesDigest(
                downloadArray<float>(m, data->outValues, matrix->nnz()), h);
        };
        prep.verify = [data, matrix](Machine &m) {
            return spmTransposeVerify(m, *data, *matrix);
        };
        return prep;
    };
    cell.inputsJson = log::format(
        "{\"kernel\": \"spmt\", \"matrix\": \"power_law\", \"n\": %u, "
        "\"avg_nnz\": %u, \"alpha\": 0.7, \"matrix_seed\": %" PRIu64,
        n, nnz, seed);
    return cell;
}

/** Finish a cell's inputs record with its machine and runtime. */
Cell
onRuntime(Cell cell, const MachineConfig &machine, bool is_static)
{
    cell.machine = machine;
    cell.staticRuntime = is_static;
    cell.runtime = RuntimeConfig::full();
    cell.name += is_static ? "/static" : "/ws";
    cell.inputsJson += log::format(
        ", \"runtime\": \"%s\", \"runtime_config\": \"%s\", "
        "\"schedule_seed\": 0, %s}",
        is_static ? "static" : "work_stealing",
        cell.runtime.name().c_str(), machineJson(machine).c_str());
    return cell;
}

} // namespace

std::vector<Cell>
makeCells(const std::string &workload, uint64_t seed, bool quick)
{
    // Both workloads run on the paper's 16x8 machine. The workload seed
    // reaches only input generation: the UTS root seed and the graph and
    // matrix generator seeds. The engine schedule stays strict.
    const MachineConfig paper;
    std::vector<Cell> cells;
    if (workload == "spawn-tree") {
        // Sized so each run outweighs its ~130 ms machine build; UTS's
        // 8000-way binomial root keeps the tree size within a few percent
        // across seeds (each root child is an independent subtree).
        cells.push_back(onRuntime(fibCell(quick ? 16 : 26), paper, false));
        cells.push_back(
            onRuntime(nqueensCell(quick ? 6 : 9), paper, false));
        cells.push_back(onRuntime(
            utsCell(UtsParams::binomial(quick ? 400 : 8000, 4, 0.2,
                                        hash64(seed ^ 0x757473))),
            paper, false));
    } else if (workload == "graph-mem") {
        const uint32_t vertices = quick ? 1024 : 16384;
        const uint64_t graph_seed = hash64(seed ^ 0x6772617068);
        const uint64_t matrix_seed = hash64(seed ^ 0x6d6174726978);
        for (bool is_static : {false, true})
            cells.push_back(onRuntime(
                pagerankCell(vertices, quick ? 8 : 16, graph_seed), paper,
                is_static));
        for (bool is_static : {false, true})
            cells.push_back(onRuntime(
                spmtCell(vertices, quick ? 6 : 8, matrix_seed), paper,
                is_static));
    }
    return cells;
}

SimRecord
runCell(const Cell &cell, size_t index, SpanLog *log)
{
    SimRecord record;
    record.cell = index;
    Laps laps(record, log, cell.genSpan);
    auto machine = std::make_unique<Machine>(cell.machine);
    laps.lap(kBuild);
    Prepared prep = cell.prepare(*machine, laps);
    laps.lap(kSetup);
    record.cycles =
        cell.staticRuntime
            ? runWith<StaticRuntime>(*machine, cell.runtime, prep.root, laps)
            : runWith<WorkStealingRuntime>(*machine, cell.runtime,
                                           prep.root, laps);
    laps.skip();
    record.digest = prep.digest(*machine);
    record.verified = prep.verify(*machine);
    laps.lap(kVerify);
    record.counters = Counters::of(*machine);
    prep = Prepared();
    laps.skip();
    machine.reset();
    laps.lap(kTeardown);
    laps.finish();
    return record;
}

} // namespace perfbench
