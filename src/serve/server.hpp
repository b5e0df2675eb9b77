/**
 * @file
 * FleetServer: a supervised batch-simulation job server.
 *
 * Turns the simulator from a fragile one-shot binary into a resilient
 * service: clients submit JobRequests, N simulations run concurrently
 * across host threads (each on its own private Machine — the simulator
 * has no mutable global state, so concurrent machines are independent
 * by construction; each job runs its request through runJob(), as a
 * standalone caller would), and a per-job supervisor keeps failures
 * contained:
 *
 *  - One attempt: jobs leave a FIFO queue and run once, behind the
 *    engine's hang watchdog (armed per the job's RuntimeConfig), which
 *    surfaces as a catchable SimAbort and status `hang`. The simulation
 *    is deterministic, so a second run with the same seeds would replay
 *    the same failure byte for byte; there is no retry.
 *  - Quarantine: a spec that fails poisons only itself; later
 *    submissions of the same spec are refused immediately with status
 *    `quarantined` instead of running again.
 *  - Shutdown: shutdown() stops intake and finishes every queued job.
 *  - Result cache: completed digests are cached under the full
 *    (workload, machine, runtime, seeds) spec key; duplicate requests
 *    are served for free (in-flight duplicates coalesce onto the
 *    running primary). A bypassCache recompute validates the stored
 *    digest *and cycle count* — any disagreement is reported as
 *    digest_mismatch, making cache validation a batch-level
 *    nondeterminism detector.
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

/** Supervised batch-simulation job server. */
class FleetServer
{
  public:
    using JobId = uint64_t;

    /** Batch-level counters (valid once the batch has drained). */
    struct Totals
    {
        uint64_t jobs = 0;
        uint64_t ok = 0;
        uint64_t cacheHits = 0;
        uint64_t quarantinedRefusals = 0;
        uint64_t failures = 0;   ///< jobs ending in a failure class
        uint64_t attempts = 0;   ///< simulations actually executed
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
        Waiting, ///< coalesced follower of a running duplicate
        Running, ///< owned by a worker thread
        Done
    };

    struct CacheEntry
    {
        uint64_t digest = 0;
        Cycles cycles = 0;
    };

    struct Job
    {
        JobRequest req;
        JobReport report;
        Phase phase = Phase::Queued;
        std::string specKey; ///< full spec identity ("" = uncacheable)
        std::vector<JobId> followers; ///< coalesced duplicates
    };

    void workerLoop();
    /** Process a dequeued job end to end (lock held on entry/exit). */
    void processJob(std::unique_lock<std::mutex> &lock, JobId id);
    /**
     * Simulate @p req on a fresh Machine (no lock held), filling
     * @p report's status, digest, cycles, error and dump.
     */
    void runAttempt(const JobRequest &req, JobReport &report);
    /** Mark @p id done, settle followers, wake waiters (lock held). */
    void finishLocked(JobId id);
    /** Full spec identity of @p req ("" when uncacheable). */
    std::string specKeyFor(const JobRequest &req) const;

    FleetConfig cfg_;
    uint32_t workerCount_ = 1;
    AssetCache assets_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_; ///< workers wait for jobs
    std::condition_variable doneCv_;  ///< wait()/waitAll() block here

    std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
    std::deque<JobId> queue_; ///< FIFO
    std::unordered_map<std::string, JobId> runningByKey_; ///< coalescing
    std::unordered_map<std::string, CacheEntry> cache_;
    std::unordered_map<std::string, JobStatus> quarantine_;

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
