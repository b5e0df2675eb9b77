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
 *  - JobStatus: the structured error taxonomy. Infrastructure outcomes
 *    (Ok, CacheHit, Quarantined) and failure classes (Hang,
 *    CheckerViolation, DigestMismatch, SetupFailure).
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
    CacheHit,         ///< served from the result cache, no simulation
    Quarantined,      ///< refused: this spec already failed
    Hang,             ///< watchdog: no task retired within its bound
    CheckerViolation, ///< concurrency checker reported violations
    DigestMismatch,   ///< result disagreed with expectation or cache
    SetupFailure      ///< setup threw before the first simulated cycle
};

/** Stable lowercase name for @p status (report JSON field values). */
const char *jobStatusName(JobStatus status);

/** True for the failure classes (not Ok/CacheHit/Quarantined). */
bool jobStatusIsFailure(JobStatus status);

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
     * Workload-identity part of the result-cache key ("" = this job is
     * uncacheable, never coalesced, never quarantined). The server
     * extends it with the machine/runtime/seed spec so only genuinely
     * identical simulations share cache entries.
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
     * Skip the result-cache lookup and run fresh. The fresh result is
     * still validated against (and stored into) the cache, which makes
     * bypass runs the batch-level nondeterminism detector.
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
 * the plan, read the digest. Callers set oracle switches and supervision
 * on @p machine before the call and read its counters and checker after
 * it; the verdicts are theirs. Throws std::runtime_error when the job
 * cannot be set up, and SimAbort when a supervised run is interrupted.
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
    uint32_t attempts = 0;      ///< 1 if simulated, 0 if served/refused
    bool fromCache = false;
    bool quarantined = false;   ///< spec was quarantined by this failure
    std::string error;          ///< one-line summary for failures
    std::string dump;           ///< structured runtime dump (truncated)
    double wallMs = 0;          ///< wall time of the simulation

    /** One JSON object (spmrt-fleet-report-v1 `jobs[]` element). */
    std::string toJson() const;
};

} // namespace serve
} // namespace spmrt

#endif // SPMRT_SERVE_JOB_HPP
