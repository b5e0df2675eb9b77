/**
 * @file
 * FleetServer: a batch-simulation job server.
 *
 * Clients submit JobRequests and N simulations run concurrently across
 * host threads, each on its own private Machine (the simulator has no
 * mutable global state, so concurrent machines are independent by
 * construction; each job runs its request through runJob(), as a
 * standalone caller would). A failure stays inside its job:
 *
 *  - One attempt: every job leaves a FIFO queue and simulates once,
 *    behind the engine's hang watchdog (armed per the job's
 *    RuntimeConfig), whose SimAbort becomes status `hang`. The
 *    simulation is deterministic, so a second run with the same seeds
 *    would replay the same outcome byte for byte; there is no retry, and
 *    a resubmitted spec simply runs again.
 *  - Repeated-spec check: the first `ok` (digest, cycles) of each keyed
 *    spec (workload, machine, runtime, seeds) is stored, and a later
 *    `ok` run of the same spec that disagrees with it ends
 *    `digest_mismatch`: the batch has detected nondeterminism.
 *  - Shutdown: shutdown() stops intake and finishes every queued job.
 *
 * Every outcome is a machine-readable JobReport; reportJson() emits the
 * whole batch (schema spmrt-fleet-report-v1) for CI artifacts.
 */

#ifndef SPMRT_SERVE_SERVER_HPP
#define SPMRT_SERVE_SERVER_HPP

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/assets.hpp"
#include "serve/job.hpp"

namespace spmrt {
namespace serve {

/** Server-wide settings. */
struct FleetConfig
{
    /** Concurrent simulations (0 = min(4, usableCpus())). */
    uint32_t workers = 0;
};

/** Batch-simulation job server. */
class FleetServer
{
  public:
    using JobId = uint64_t;

    /** Batch-level counters (valid once the batch has drained). */
    struct Totals
    {
        uint64_t jobs = 0;
        uint64_t ok = 0;
        uint64_t failures = 0;   ///< jobs ending in a failure class
        uint64_t attempts = 0;   ///< simulations run: one per done job
        /**
         * Always 0: every job runs once. Kept because the benchmark
         * harness (perfbench/fleet.cpp) reads it for `serve.retries`.
         */
        uint64_t retries = 0;
        double wallMs = 0;       ///< first submit -> last completion
        double simsPerSec = 0;   ///< attempts / wall seconds
    };

    explicit FleetServer(FleetConfig cfg = FleetConfig());
    ~FleetServer(); ///< drains queued and in-flight work (shutdown())

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /** Enqueue @p req; returns immediately with the job id. */
    JobId submit(JobRequest req);

    /** Block until job @p id completes; returns its report. */
    JobReport wait(JobId id);

    /** Block until every submitted job completes; reports by id order. */
    std::vector<JobReport> waitAll();

    /**
     * Stop the server: refuse further submits, finish every queued job,
     * and join the workers. Idempotent; the destructor calls it.
     */
    void shutdown();

    /** Batch counters over all completed jobs so far. */
    Totals totals() const;

    /** Whole-batch report document (spmrt-fleet-report-v1). */
    std::string reportJson() const;

    /** The shared immutable asset cache prepare() callbacks see. */
    AssetCache &assets() { return assets_; }

    /** Resolved worker-thread count. */
    uint32_t workerCount() const { return workerCount_; }

  private:
    enum class Phase : uint8_t
    {
        Queued,  ///< in queue_
        Running, ///< owned by a worker thread
        Done
    };

    /** The first ok result of one spec. */
    struct FirstRun
    {
        uint64_t digest = 0;
        Cycles cycles = 0;
    };

    struct Job
    {
        JobRequest req;
        JobReport report;
        Phase phase = Phase::Queued;
        std::string specKey; ///< full spec identity ("" = unchecked)
    };

    void workerLoop();
    /**
     * Run a dequeued job, check it against its spec's first run and mark
     * it done (lock held on entry/exit).
     */
    void processJob(std::unique_lock<std::mutex> &lock, JobId id);
    /**
     * Simulate @p req on a fresh Machine (no lock held), filling
     * @p report's status, digest, cycles, error and dump.
     */
    void runAttempt(const JobRequest &req, JobReport &report);
    /** Full spec identity of @p req ("" when its cacheKey is empty). */
    std::string specKeyFor(const JobRequest &req) const;

    FleetConfig cfg_;
    uint32_t workerCount_ = 1;
    AssetCache assets_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_; ///< workers wait for jobs
    std::condition_variable doneCv_;  ///< wait()/waitAll() block here

    std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
    std::deque<JobId> queue_; ///< FIFO
    std::unordered_map<std::string, FirstRun> firstRuns_; ///< by spec key

    bool accepting_ = true;
    bool stopWorkers_ = false;
    bool joined_ = false;
    JobId nextId_ = 1;
    uint64_t doneCount_ = 0;
    bool haveFirstSubmit_ = false;
    std::chrono::steady_clock::time_point firstSubmit_{};
    std::chrono::steady_clock::time_point lastDone_{};

    std::vector<std::thread> threads_;
};

} // namespace serve
} // namespace spmrt

#endif // SPMRT_SERVE_SERVER_HPP
