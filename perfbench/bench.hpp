/**
 * @file
 * Shared vocabulary of the spmrt benchmark harness.
 *
 * Every number the harness reports is taken from outside the simulator:
 * host time from clock reads around calls into a layer's public
 * functions, and counts from the always-counted public accessors of the
 * Machine, MemorySystem, Engine and cores after a simulation has run. The
 * simulator's own Tracer is never armed.
 */

#ifndef SPMRT_PERFBENCH_BENCH_HPP
#define SPMRT_PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runtime/config.hpp"
#include "runtime/context.hpp"
#include "serve/job.hpp"
#include "serve/workloads.hpp"
#include "sim/config.hpp"

namespace spmrt {
class Machine;
} // namespace spmrt

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Layer counters of one simulation (see Counters::of). */
struct Counters
{
    uint64_t instructions = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
    uint64_t localSpmOps = 0;
    uint64_t remoteSpmOps = 0;
    uint64_t dramLoads = 0;
    uint64_t dramStores = 0;
    uint64_t amos = 0;
    uint64_t nocPackets = 0;
    uint64_t nocLinkCycles = 0;
    uint64_t nocWalked = 0;
    uint64_t llcHits = 0;
    uint64_t llcMisses = 0;
    uint64_t llcWritebacks = 0;
    uint64_t dramTransfers = 0;
    uint64_t dramBytes = 0;
    uint64_t tasksSpawned = 0;
    uint64_t stealAttempts = 0;
    uint64_t stealHits = 0;
    uint64_t spawnsInlined = 0;
    uint64_t framesPushed = 0;
    uint64_t framesOverflowed = 0;

    /** Read every counter of @p machine (call after its run). */
    static Counters of(spmrt::Machine &machine);

    Counters &operator+=(const Counters &other);
};

/** The layer boundaries of one simulation, in call order. */
enum Phase
{
    kBuild,    ///< Machine constructor
    kGen,      ///< host input generator (graph/matrix), if any
    kSetup,    ///< *Setup upload into simulated memory
    kCtor,     ///< runtime constructor
    kRun,      ///< runtime run()
    kVerify,   ///< output digest + *Verify / host reference check
    kTeardown, ///< Machine destructor
    kNumPhases
};

/** Span name of each phase; kGen's name comes from the cell. */
extern const char *const kPhaseSpan[kNumPhases];

/** Host timing and results of one simulation. */
struct SimRecord
{
    size_t cell = 0;
    Clock::time_point start; ///< before the Machine constructor
    Clock::time_point end;   ///< after the Machine destructor
    double phaseMs[kNumPhases] = {};
    /** Time inside the sim not covered by a phase (runtime destructor,
     *  counter reads, harness glue): the `sim` span's self time. */
    double selfMs = 0;
    uint64_t digest = 0;
    spmrt::Cycles cycles = 0;
    bool verified = false;
    Counters counters;

    double wallMs() const { return msBetween(start, end); }

    /** Everything before the run: build, generation, upload. */
    double
    setupMs() const
    {
        return phaseMs[kBuild] + phaseMs[kGen] + phaseMs[kSetup];
    }

    /** True when @p other simulated bit-identically. */
    bool
    sameSimulation(const SimRecord &other) const
    {
        return digest == other.digest && cycles == other.cycles &&
               counters.switches == other.counters.switches &&
               counters.syncPoints == other.counters.syncPoints;
    }
};

/** One recorded span: a layer call inside one simulation or batch. */
struct Span
{
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 for a root span
    uint64_t trace = 0;  ///< id of the root span this span belongs to
    double startMs = 0;  ///< relative to the log's origin
    double endMs = 0;
};

/** Spans kept in memory until the benchmark exits. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    uint64_t newId() { return ++lastId_; }

    void
    add(const std::string &name, uint64_t id, uint64_t parent,
        uint64_t trace, Clock::time_point start, Clock::time_point end)
    {
        spans_.push_back({name, id, parent, trace, msBetween(origin_, start),
                          msBetween(origin_, end)});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_;
    uint64_t lastId_ = 0;
    std::vector<Span> spans_;
};

/** Self time of every span: its duration minus the union of its
 *  children's intervals (children of a batch may overlap). */
std::vector<double> spanSelfTimes(const std::vector<Span> &spans);

/**
 * Phase stopwatch of one simulation. lap(p) charges the time since the
 * previous mark to phase @p p and, when a span log is attached, records
 * its span; skip() moves the mark without charging a phase.
 */
class Laps
{
  public:
    Laps(SimRecord &record, SpanLog *log, const char *gen_span)
        : record_(record), log_(log), genSpan_(gen_span)
    {
        record_.start = Clock::now();
        last_ = record_.start;
        if (log_ != nullptr)
            simId_ = log_->newId();
    }

    void
    lap(Phase phase)
    {
        Clock::time_point now = Clock::now();
        record_.phaseMs[phase] += msBetween(last_, now);
        if (log_ != nullptr)
            log_->add(phase == kGen ? genSpan_ : kPhaseSpan[phase],
                      log_->newId(), simId_, simId_, last_, now);
        last_ = now;
    }

    void
    skip()
    {
        Clock::time_point now = Clock::now();
        record_.selfMs += msBetween(last_, now);
        last_ = now;
    }

    /** Close the simulation: stamps its end and its root `sim` span. */
    void
    finish()
    {
        record_.end = last_;
        if (log_ != nullptr)
            log_->add("sim", simId_, 0, simId_, record_.start, record_.end);
    }

  private:
    SimRecord &record_;
    SpanLog *log_;
    const char *genSpan_;
    uint64_t simId_ = 0;
    Clock::time_point last_;
};

/** What a cell's prepare step hands back, bound to one Machine. */
struct Prepared
{
    std::function<void(spmrt::TaskContext &)> root;
    /** Bit-exact digest of the simulated output (determinism gate). */
    std::function<uint64_t(spmrt::Machine &)> digest;
    /** Check the output against its host reference. */
    std::function<bool(spmrt::Machine &)> verify;
};

/** One simulation the spawn-tree and graph-mem workloads repeat. */
struct Cell
{
    std::string name;
    std::string inputsJson; ///< every input, so a run can be reproduced
    spmrt::MachineConfig machine;
    bool staticRuntime = false;
    spmrt::RuntimeConfig runtime;
    /** Span name of the cell's input generator ("" when it has none). */
    const char *genSpan = "";
    /** Generate inputs (calling laps.lap(kGen) after any host
     *  generator) and upload them to @p machine. */
    std::function<Prepared(spmrt::Machine &, Laps &)> prepare;
};

/** The cells of a cell-based workload ("spawn-tree", "graph-mem"). */
std::vector<Cell> makeCells(const std::string &workload, uint64_t seed,
                            bool quick);

/** Build, set up, run, verify and tear down one cell. */
SimRecord runCell(const Cell &cell, size_t index, SpanLog *log);

/** One pass over a workload's simulations. */
struct Round
{
    std::vector<SimRecord> sims;
    bool traced = false;
    double wallMs = 0;       ///< host time of the whole round
    double simSeconds = 0;   ///< denominator of sims_per_s
    double setupMs = 0;      ///< host ms spent before the runs
    std::vector<std::string> failures;
    // fleet-sweep only
    uint32_t workers = 0;
    double jobWallMsSum = 0;
    uint64_t attempts = 0;
    uint64_t retries = 0;
    uint64_t assetBuilds = 0;
    uint64_t assetHits = 0;
};

/** Batch runner of fleet-sweep: a fixed job list, one batch per round. */
class FleetSweep
{
  public:
    FleetSweep(uint64_t seed, bool quick);

    /** Run one batch through a fresh FleetServer. */
    Round runBatch(SpanLog *log);

    /** Job @p index as a cell, to re-run it outside the server. */
    Cell cell(size_t index) const;

    size_t numJobs() const { return requests_.size(); }
    std::string jobName(size_t index) const { return requests_[index].name; }
    std::string inputsJson(size_t index) const;
    const spmrt::MachineConfig &machine() const { return machine_; }

  private:
    spmrt::MachineConfig machine_;
    uint32_t workers_ = 1;
    std::vector<spmrt::serve::FleetWorkload> specs_;
    std::vector<spmrt::serve::JobRequest> requests_;
};

/** Unit-cost probes of single layer calls (traced run only). */
struct Probes
{
    double engineBuildMs = 0;
    double memBuildMs = 0;
    double memBuildNsPerMb = 0;
    double switchNs = 0;
    double localLoadNs = 0;
    double remoteLoadNs = 0;
    double dramLoadNs = 0;
    double nocTraverseNs = 0;
};

/** Time the layer calls of @p machine's geometry on their own. */
Probes runProbes(const spmrt::MachineConfig &machine, bool quick);

} // namespace perfbench

#endif // SPMRT_PERFBENCH_BENCH_HPP
