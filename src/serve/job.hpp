/**
 * @file
 * The fleet-mode job model: requests, reports, the status taxonomy.
 *
 * A job is one deterministic simulation — (machine config, workload,
 * schedule seed, fault plan) — submitted to the FleetServer. The server
 * owns the lifecycle; this header owns the vocabulary:
 *
 *  - JobRequest: everything needed to run the simulation from scratch,
 *    including a `prepare` factory invoked on the job's fresh Machine.
 *  - runJob(): the one sequence that simulates a JobRequest, shared by
 *    the server and every standalone caller.
 *  - JobStatus: the structured error taxonomy: Ok, or one of the four
 *    failure classes (Hang, CheckerViolation, DigestMismatch,
 *    SetupFailure).
 *  - JobReport: the machine-readable outcome, serializable to JSON.
 */

#ifndef SPMRT_SERVE_JOB_HPP
#define SPMRT_SERVE_JOB_HPP

#include <functional>
#include <string>

#include "common/types.hpp"
#include "runtime/config.hpp"
#include "runtime/context.hpp"
#include "sim/config.hpp"

namespace spmrt {

class Machine;

namespace serve {

class AssetCache;

/** Terminal outcome of one job. */
enum class JobStatus : uint8_t
{
    Ok,               ///< ran to completion, digest accepted
    Hang,             ///< watchdog: no task retired within its bound
    CheckerViolation, ///< concurrency checker reported violations
    DigestMismatch,   ///< result disagreed with expectation or first run
    SetupFailure      ///< setup threw before the first simulated cycle
};

/** Stable lowercase name for @p status (report JSON field values). */
const char *jobStatusName(JobStatus status);

/**
 * What prepare() hands back: the root task plus an untimed digest
 * reader evaluated after a successful run.
 *
 * Machine-level benches that bypass the task runtimes entirely set
 * `rawBody` instead of `root`: runJob() then runs every core's body
 * directly via Machine::run (no StaticRuntime/WorkStealingRuntime is
 * constructed, and req.staticRuntime/rootFrameBytes are ignored) and
 * reports the engine's final time as the cycle count. Exactly one of
 * `root`/`rawBody` must be set.
 */
struct PreparedJob
{
    std::function<void(TaskContext &)> root;
    std::function<void(Core &)> rawBody;
    std::function<uint64_t(Machine &)> digest;
    uint32_t rootFrameBytes = 128;
};

/** One batch-simulation request. */
struct JobRequest
{
    /** Human-readable label carried into the report. */
    std::string name;
    /**
     * Workload-identity part of the spec key ("" = the job is not
     * checked against other runs). The server extends it with the
     * machine/runtime/seed spec, and checks a repeated spec's result
     * against the first run of that exact simulation.
     */
    std::string cacheKey;

    MachineConfig machine = MachineConfig::tiny();
    RuntimeConfig runtime;

    /** Engine schedule perturbation (0 = strict argmin order). */
    uint64_t scheduleSeed = 0;
    Cycles scheduleWindow = 8;

    /** FaultPlan::chaos seed (0 = fault-free). */
    uint64_t faultSeed = 0;
    Cycles faultHorizon = 4096;

    /** Arm the concurrency checker (violations fail the job). */
    bool armChecker = true;

    /**
     * Run the static fork-join runtime instead of the work-stealing
     * runtime. Part of the simulation spec (the two runtimes schedule —
     * and therefore time — the same workload differently).
     */
    bool staticRuntime = false;

    /** Expected digest; a completed run that disagrees fails. */
    uint64_t expectedDigest = 0;
    bool hasExpectedDigest = false;

    /**
     * No effect: every job simulates, and a keyed job is always checked
     * against its spec's first run. Kept because the benchmark harness
     * (perfbench/fleet.cpp) still sets it.
     */
    bool bypassCache = false;

    /**
     * Build the workload on a fresh @p Machine: allocate/upload inputs
     * (sharing immutable assets through the batch AssetCache) and
     * return the root + digest closures. Called once per run; a throw
     * is classified as SetupFailure.
     */
    std::function<PreparedJob(Machine &, AssetCache &)> prepare;
};

/** What one run of a JobRequest produced. */
struct JobResult
{
    /** The runtime's cycle count, or the engine clock for a rawBody job. */
    Cycles cycles = 0;
    /** PreparedJob::digest after the run (0 when it sets none). */
    uint64_t digest = 0;
};

/**
 * Run @p req once on @p machine, a fresh Machine built from req.machine.
 * This is the one run sequence of the server and every standalone
 * caller, so a spec simulates to the same cycles wherever it runs: arm
 * the checker, perturb the schedule, prepare() (so the inputs are
 * allocated before the runtime's DRAM), install the chaos fault plan,
 * construct the runtime and run it (or run rawBody on every core), clear
 * the plan, read the digest. Callers set oracle switches on @p machine
 * before the call and read its counters and checker after it; the
 * verdicts are theirs. Throws std::runtime_error when the job cannot be
 * set up, and SimAbort when the hang watchdog interrupts the run.
 */
JobResult runJob(const JobRequest &req, Machine &machine,
                 AssetCache &assets);

/** Machine-readable outcome of one job. */
struct JobReport
{
    uint64_t id = 0;
    std::string name;
    JobStatus status = JobStatus::Ok;
    uint64_t digest = 0;
    Cycles cycles = 0;
    std::string error;          ///< one-line summary for failures
    std::string dump;           ///< structured runtime dump (truncated)
    double wallMs = 0;          ///< wall time of the simulation

    /** One JSON object (spmrt-fleet-report-v1 `jobs[]` element). */
    std::string toJson() const;
};

} // namespace serve
} // namespace spmrt

#endif // SPMRT_SERVE_JOB_HPP
