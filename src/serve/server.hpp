/**
 * @file
 * FleetServer: a supervised batch-simulation job server.
 *
 * Turns the simulator from a fragile one-shot binary into a resilient
 * service: clients submit JobRequests, N simulations run concurrently
 * across host threads (each on its own private Machine — the simulator
 * has no mutable global state, so concurrent machines are independent
 * by construction; each attempt runs the request through runJob(), as a
 * standalone caller would), and a per-job supervisor keeps failures
 * contained:
 *
 *  - Deadlines: a simulated-cycle budget is armed directly on the
 *    engine; a wall-clock deadline is enforced by a monitor thread that
 *    flips the job's cancel flag, which the engine polls per dispatch.
 *    Both layer on the existing hang watchdog (armed per the job's
 *    RuntimeConfig), and all three surface as catchable SimAborts.
 *  - Retry: hang/budget/deadline failures are retried on a fresh
 *    Machine with the *same seeds* — deterministic reproduction — under
 *    exponential backoff with seeded jitter (schedule recorded in the
 *    report). Deterministic failures (setup, checker, digest) fail
 *    fast.
 *  - Quarantine: a spec that fails terminally poisons only itself;
 *    later submissions of the same spec are refused immediately with
 *    status `quarantined` instead of burning attempts.
 *  - Degradation: when the queue exceeds maxQueueDepth the
 *    lowest-priority queued job is shed with an explicit `shed` status;
 *    shutdown(drain=true) finishes queued work, shutdown(drain=false)
 *    cancels it and interrupts running simulations.
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

#include <atomic>
#include <chrono>
#include <condition_variable>
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

/** Server-wide policy knobs. */
struct FleetConfig
{
    /** Concurrent simulations (0 = min(4, usableCpus())). */
    uint32_t workers = 0;
    /** Queued-job ceiling; overflow sheds lowest priority (0 = none). */
    uint32_t maxQueueDepth = 0;
    /** Retry/backoff policy applied to every job. */
    RetryPolicy retry;
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
        uint64_t shed = 0;
        uint64_t cancelled = 0;
        uint64_t quarantinedRefusals = 0;
        uint64_t failures = 0;   ///< jobs ending in a failure class
        uint64_t attempts = 0;   ///< simulations actually executed
        uint64_t retries = 0;    ///< attempts beyond each job's first
        double wallMs = 0;       ///< first submit -> last completion
        double simsPerSec = 0;   ///< attempts / wall seconds
    };

    explicit FleetServer(FleetConfig cfg = FleetConfig());
    ~FleetServer(); ///< drains in-flight work (shutdown(true))

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /** Enqueue @p req; returns immediately with the job id. */
    JobId submit(JobRequest req);

    /** Block until job @p id completes; returns its report. */
    JobReport wait(JobId id);

    /** Block until every submitted job completes; reports by id order. */
    std::vector<JobReport> waitAll();

    /**
     * Stop the server. drain=true finishes all queued work first;
     * drain=false cancels queued jobs (status `cancelled`) and
     * interrupts running simulations via their cancel flags. Idempotent;
     * the destructor calls shutdown(true).
     */
    void shutdown(bool drain = true);

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
        /**
         * Cancel flag shared with the engine; shared_ptr so the monitor
         * can hold it safely regardless of machine lifetime.
         */
        std::shared_ptr<std::atomic<uint32_t>> cancel;
        std::chrono::steady_clock::time_point deadline{};
        bool deadlineArmed = false;
        std::vector<JobId> followers; ///< coalesced duplicates
    };

    /** Outcome of one simulation attempt. */
    struct AttemptOutcome
    {
        JobStatus status = JobStatus::Ok;
        uint64_t digest = 0;
        Cycles cycles = 0;
        std::string error;
        std::string dump;
    };

    void workerLoop();
    void monitorLoop();
    /** Process a dequeued job end to end (lock held on entry/exit). */
    void processJob(std::unique_lock<std::mutex> &lock, JobId id);
    /** One simulation attempt on a fresh Machine (no lock held). */
    AttemptOutcome runAttempt(Job &job);
    /** Mark @p id done, settle followers, wake waiters (lock held). */
    void finishLocked(JobId id);
    /** Shed the lowest-priority queued job (lock held). */
    void shedOverflowLocked();
    /** Full spec identity of @p req ("" when uncacheable). */
    std::string specKeyFor(const JobRequest &req) const;

    FleetConfig cfg_;
    uint32_t workerCount_ = 1;
    AssetCache assets_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_;   ///< workers wait for jobs
    std::condition_variable doneCv_;    ///< wait()/waitAll() block here
    std::condition_variable monitorCv_; ///< deadline monitor wakeups

    std::unordered_map<JobId, std::unique_ptr<Job>> jobs_;
    std::vector<JobId> queue_;
    std::unordered_map<std::string, JobId> runningByKey_; ///< coalescing
    std::unordered_map<std::string, CacheEntry> cache_;
    std::unordered_map<std::string, JobStatus> quarantine_;

    bool accepting_ = true;
    bool stopWorkers_ = false;
    bool stopMonitor_ = false;
    bool joined_ = false;
    JobId nextId_ = 1;
    uint64_t doneCount_ = 0;
    uint64_t attemptsTotal_ = 0;
    bool haveFirstSubmit_ = false;
    std::chrono::steady_clock::time_point firstSubmit_{};
    std::chrono::steady_clock::time_point lastDone_{};

    std::vector<std::thread> threads_;
    std::thread monitor_;
};

} // namespace serve
} // namespace spmrt

#endif // SPMRT_SERVE_SERVER_HPP
