#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/host_cpus.hpp"
#include "common/log.hpp"
#include "sim/abort.hpp"
#include "sim/checker.hpp"
#include "sim/machine.hpp"

namespace spmrt {
namespace serve {

namespace {

using Clock = std::chrono::steady_clock;

/** FNV-1a over a string (retry-seed derivation from the spec key). */
uint64_t
fnvString(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Cap the stored dump so reports stay artifact-sized. */
std::string
truncateDump(const std::string &dump)
{
    constexpr size_t kMaxDumpBytes = 4096;
    if (dump.size() <= kMaxDumpBytes)
        return dump;
    return dump.substr(0, kMaxDumpBytes) + "...[truncated]";
}

JobStatus
statusOfAbort(const SimAbort &abort)
{
    switch (abort.kind()) {
      case AbortKind::Hang:
        return JobStatus::Hang;
      case AbortKind::CycleBudget:
        return JobStatus::BudgetExceeded;
      case AbortKind::Deadline:
        return JobStatus::DeadlineExceeded;
      case AbortKind::Cancelled:
        return JobStatus::Cancelled;
    }
    return JobStatus::SetupFailure;
}

} // namespace

FleetServer::FleetServer(FleetConfig cfg) : cfg_(std::move(cfg))
{
    workerCount_ = cfg_.workers;
    if (workerCount_ == 0)
        workerCount_ = std::min<uint32_t>(4, usableCpus());
    threads_.reserve(workerCount_);
    for (uint32_t i = 0; i < workerCount_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
    monitor_ = std::thread([this] { monitorLoop(); });
}

FleetServer::~FleetServer()
{
    shutdown(true);
}

std::string
FleetServer::specKeyFor(const JobRequest &req) const
{
    if (req.cacheKey.empty())
        return "";
    // The machine is every MachineConfig field and the runtime every
    // RuntimeConfig field: two configs differing in any parameter (ruche
    // factors, LLC sets, DRAM channels, window stride, queue placement,
    // victim policy, ...) must never share a digest cache or quarantine
    // entry.
    return log::format(
        "%s|m:%s|rt:%s|sched:%llu/%llu|fault:%llu/%llu|ck:%d|st:%d",
        req.cacheKey.c_str(), req.machine.key().c_str(),
        req.runtime.key().c_str(),
        static_cast<unsigned long long>(req.scheduleSeed),
        static_cast<unsigned long long>(req.scheduleWindow),
        static_cast<unsigned long long>(req.faultSeed),
        static_cast<unsigned long long>(req.faultHorizon),
        req.armChecker ? 1 : 0, req.staticRuntime ? 1 : 0);
}

FleetServer::JobId
FleetServer::submit(JobRequest req)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (!accepting_)
        throw std::runtime_error("FleetServer: submit after shutdown");
    JobId id = nextId_++;
    auto job = std::make_unique<Job>();
    job->req = std::move(req);
    job->specKey = specKeyFor(job->req);
    job->report.id = id;
    job->report.name = job->req.name;
    jobs_.emplace(id, std::move(job));
    queue_.push_back(id);
    if (!haveFirstSubmit_) {
        haveFirstSubmit_ = true;
        firstSubmit_ = Clock::now();
    }
    if (cfg_.maxQueueDepth != 0 && queue_.size() > cfg_.maxQueueDepth)
        shedOverflowLocked();
    queueCv_.notify_one();
    return id;
}

void
FleetServer::shedOverflowLocked()
{
    // Degrade, don't die: drop the lowest-priority queued job (newest
    // first among ties) with an explicit status. The incoming job is in
    // the queue already, so it sheds itself when it is the least
    // important.
    size_t victim = 0;
    for (size_t i = 1; i < queue_.size(); ++i) {
        const Job &a = *jobs_.at(queue_[i]);
        const Job &b = *jobs_.at(queue_[victim]);
        if (a.req.priority < b.req.priority ||
            (a.req.priority == b.req.priority &&
             queue_[i] > queue_[victim]))
            victim = i;
    }
    JobId id = queue_[victim];
    queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(victim));
    Job &job = *jobs_.at(id);
    job.report.status = JobStatus::Shed;
    job.report.error = log::format(
        "shed: queue depth exceeded %u (priority %u was lowest)",
        cfg_.maxQueueDepth, job.req.priority);
    finishLocked(id);
}

void
FleetServer::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        queueCv_.wait(lock,
                      [this] { return stopWorkers_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopWorkers_)
                return;
            continue;
        }
        // Highest priority first; FIFO (lowest id) within a priority.
        size_t best = 0;
        for (size_t i = 1; i < queue_.size(); ++i) {
            const Job &a = *jobs_.at(queue_[i]);
            const Job &b = *jobs_.at(queue_[best]);
            if (a.req.priority > b.req.priority ||
                (a.req.priority == b.req.priority &&
                 queue_[i] < queue_[best]))
                best = i;
        }
        JobId id = queue_[best];
        queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best));
        processJob(lock, id);
    }
}

void
FleetServer::processJob(std::unique_lock<std::mutex> &lock, JobId id)
{
    Job &job = *jobs_.at(id);

    if (!job.specKey.empty()) {
        // Quarantine: a spec that already failed terminally is refused
        // without burning attempts.
        auto quarantined = quarantine_.find(job.specKey);
        if (quarantined != quarantine_.end()) {
            job.report.status = JobStatus::Quarantined;
            job.report.quarantined = true;
            job.report.error = log::format(
                "quarantined: spec previously failed with status '%s'",
                jobStatusName(quarantined->second));
            finishLocked(id);
            return;
        }
        if (!job.req.bypassCache) {
            // Result cache: duplicates are free.
            auto hit = cache_.find(job.specKey);
            if (hit != cache_.end()) {
                job.report.status = JobStatus::CacheHit;
                job.report.fromCache = true;
                job.report.digest = hit->second.digest;
                job.report.cycles = hit->second.cycles;
                finishLocked(id);
                return;
            }
            // In-flight duplicate: coalesce onto the running primary
            // instead of simulating the same spec twice concurrently.
            auto running = runningByKey_.find(job.specKey);
            if (running != runningByKey_.end()) {
                job.phase = Phase::Waiting;
                jobs_.at(running->second)->followers.push_back(id);
                return;
            }
        }
        runningByKey_.emplace(job.specKey, id);
    }

    job.phase = Phase::Running;
    job.cancel = std::make_shared<std::atomic<uint32_t>>(kCancelNone);

    // The attempt loop runs unlocked: the job is Running, so only this
    // worker touches its report until finishLocked.
    lock.unlock();
    Clock::time_point started = Clock::now();
    uint64_t retry_seed =
        job.specKey.empty()
            ? fnvString(job.req.name) ^ hash64(job.req.scheduleSeed * 3 +
                                               job.req.faultSeed)
            : fnvString(job.specKey);
    const uint32_t max_attempts = std::max(1u, cfg_.retry.maxAttempts);
    AttemptOutcome out;
    uint32_t attempts = 0;
    for (uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
        out = runAttempt(job);
        ++attempts;
        if (out.status == JobStatus::Cancelled)
            break;
        if (!jobStatusIsFailure(out.status) ||
            !jobStatusRetryable(out.status) || attempt == max_attempts)
            break;
        uint32_t delay = backoffDelayMs(cfg_.retry, retry_seed, attempt);
        job.report.backoffMs.push_back(delay);
        if (cfg_.retry.sleepScale > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    delay * cfg_.retry.sleepScale));
        }
        if (job.cancel->load(std::memory_order_acquire) ==
            kCancelShutdown) {
            out = AttemptOutcome{};
            out.status = JobStatus::Cancelled;
            out.error = "cancelled during retry backoff";
            break;
        }
    }
    job.report.status = out.status;
    job.report.digest = out.digest;
    job.report.cycles = out.cycles;
    job.report.attempts = attempts;
    job.report.error = out.error;
    job.report.dump = truncateDump(out.dump);
    job.report.wallMs = msBetween(started, Clock::now());

    lock.lock();
    attemptsTotal_ += attempts;
    if (!job.specKey.empty() && job.report.status == JobStatus::Ok) {
        // Validate fresh results against the stored entry (bypassCache
        // recomputes land here): digest *and* cycle count must match,
        // or the batch has detected nondeterminism.
        auto stored = cache_.find(job.specKey);
        if (stored != cache_.end()) {
            if (stored->second.digest != job.report.digest ||
                stored->second.cycles != job.report.cycles) {
                job.report.status = JobStatus::DigestMismatch;
                job.report.error = log::format(
                    "cache validation failed: stored digest 0x%016llx / "
                    "%llu cycles, fresh 0x%016llx / %llu cycles — "
                    "nondeterministic simulation",
                    static_cast<unsigned long long>(stored->second.digest),
                    static_cast<unsigned long long>(stored->second.cycles),
                    static_cast<unsigned long long>(job.report.digest),
                    static_cast<unsigned long long>(job.report.cycles));
            }
        } else {
            cache_.emplace(job.specKey,
                           CacheEntry{job.report.digest,
                                      job.report.cycles});
        }
    }
    if (!job.specKey.empty()) {
        if (jobStatusIsFailure(job.report.status)) {
            quarantine_.emplace(job.specKey, job.report.status);
            job.report.quarantined = true;
        }
        auto running = runningByKey_.find(job.specKey);
        if (running != runningByKey_.end() && running->second == id)
            runningByKey_.erase(running);
    }
    finishLocked(id);
}

void
FleetServer::finishLocked(JobId id)
{
    Job &job = *jobs_.at(id);
    job.phase = Phase::Done;
    ++doneCount_;
    lastDone_ = Clock::now();
    for (JobId follower_id : job.followers) {
        Job &follower = *jobs_.at(follower_id);
        if (job.report.status == JobStatus::Ok ||
            job.report.status == JobStatus::CacheHit) {
            follower.report.status = JobStatus::CacheHit;
            follower.report.fromCache = true;
            follower.report.digest = job.report.digest;
            follower.report.cycles = job.report.cycles;
        } else if (jobStatusIsFailure(job.report.status)) {
            follower.report.status = JobStatus::Quarantined;
            follower.report.quarantined = true;
            follower.report.error = log::format(
                "coalesced with job %llu, which failed with '%s'",
                static_cast<unsigned long long>(id),
                jobStatusName(job.report.status));
        } else {
            follower.report.status = job.report.status;
            follower.report.error = log::format(
                "coalesced with job %llu (%s)",
                static_cast<unsigned long long>(id),
                jobStatusName(job.report.status));
        }
        follower.phase = Phase::Done;
        ++doneCount_;
    }
    job.followers.clear();
    doneCv_.notify_all();
}

FleetServer::AttemptOutcome
FleetServer::runAttempt(Job &job)
{
    const JobRequest &req = job.req;
    AttemptOutcome out;

    // A prior attempt's deadline kill leaves kCancelDeadline latched;
    // clear it without racing a concurrent shutdown's kCancelShutdown.
    uint32_t expected = kCancelDeadline;
    job.cancel->compare_exchange_strong(expected, kCancelNone);
    if (job.cancel->load(std::memory_order_acquire) == kCancelShutdown) {
        out.status = JobStatus::Cancelled;
        out.error = "cancelled before the attempt started";
        return out;
    }

    // The deadline spans the whole attempt: machine build, prepare(),
    // runtime construction, run and digest.
    if (req.limits.wallDeadlineMs != 0) {
        std::lock_guard<std::mutex> guard(mutex_);
        job.deadline = Clock::now() + std::chrono::milliseconds(
                                          req.limits.wallDeadlineMs);
        job.deadlineArmed = true;
        monitorCv_.notify_all();
    }

    try {
        Machine machine(req.machine);
        machine.engine().supervise(true);
        machine.engine().setCancelFlag(job.cancel.get());
        if (req.limits.cycleBudget != 0)
            machine.engine().armCycleLimit(machine.engine().maxTime() +
                                           req.limits.cycleBudget);
        JobResult result = runJob(req, machine, assets_);
        out.cycles = result.cycles;
        out.digest = result.digest;
        out.status = JobStatus::Ok;
#if SPMRT_CHECKER_ENABLED
        ConcurrencyChecker *checker = machine.checker();
        if (checker != nullptr && !checker->violations().empty()) {
            out.status = JobStatus::CheckerViolation;
            out.error =
                log::format("%zu concurrency-checker violations",
                            checker->violations().size());
            out.dump = checker->report();
        }
#endif
        if (out.status == JobStatus::Ok && req.hasExpectedDigest &&
            out.digest != req.expectedDigest) {
            out.status = JobStatus::DigestMismatch;
            out.error = log::format(
                "digest 0x%016llx does not match expected 0x%016llx",
                static_cast<unsigned long long>(out.digest),
                static_cast<unsigned long long>(req.expectedDigest));
        }
    } catch (const SimAbort &abort) {
        out.status = statusOfAbort(abort);
        out.error = abort.summary();
        out.dump = abort.dump();
    } catch (const std::exception &error) {
        out.status = JobStatus::SetupFailure;
        out.error = error.what();
    } catch (...) {
        out.status = JobStatus::SetupFailure;
        out.error = "unknown exception from prepare()/run";
    }
    if (req.limits.wallDeadlineMs != 0) {
        std::lock_guard<std::mutex> guard(mutex_);
        job.deadlineArmed = false;
    }
    return out;
}

void
FleetServer::monitorLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopMonitor_) {
        bool any = false;
        Clock::time_point earliest = Clock::time_point::max();
        for (auto &entry : jobs_) {
            Job &job = *entry.second;
            if (job.deadlineArmed && job.deadline < earliest) {
                earliest = job.deadline;
                any = true;
            }
        }
        if (!any) {
            monitorCv_.wait(lock);
            continue;
        }
        monitorCv_.wait_until(lock, earliest);
        Clock::time_point now = Clock::now();
        for (auto &entry : jobs_) {
            Job &job = *entry.second;
            if (job.deadlineArmed && job.deadline <= now) {
                // The engine polls this flag at every dispatch and
                // unwinds with a Deadline SimAbort.
                job.cancel->store(kCancelDeadline,
                                  std::memory_order_release);
                job.deadlineArmed = false;
            }
        }
    }
}

JobReport
FleetServer::wait(JobId id)
{
    std::unique_lock<std::mutex> lock(mutex_);
    SPMRT_ASSERT(jobs_.count(id) != 0, "wait() on unknown job id %llu",
                 static_cast<unsigned long long>(id));
    doneCv_.wait(lock, [this, id] {
        return jobs_.at(id)->phase == Phase::Done;
    });
    return jobs_.at(id)->report;
}

std::vector<JobReport>
FleetServer::waitAll()
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [this] { return doneCount_ == jobs_.size(); });
    std::vector<JobReport> reports;
    reports.reserve(jobs_.size());
    for (auto &entry : jobs_)
        reports.push_back(entry.second->report);
    std::sort(reports.begin(), reports.end(),
              [](const JobReport &a, const JobReport &b) {
                  return a.id < b.id;
              });
    return reports;
}

void
FleetServer::shutdown(bool drain)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (joined_)
        return;
    accepting_ = false;
    if (!drain) {
        // Cancel queued work explicitly; interrupt running sims.
        std::vector<JobId> queued;
        queued.swap(queue_);
        for (JobId id : queued) {
            Job &job = *jobs_.at(id);
            job.report.status = JobStatus::Cancelled;
            job.report.error = "cancelled: non-draining shutdown";
            finishLocked(id);
        }
        for (auto &entry : jobs_) {
            Job &job = *entry.second;
            if (job.phase == Phase::Running && job.cancel)
                job.cancel->store(kCancelShutdown,
                                  std::memory_order_release);
        }
    }
    stopWorkers_ = true;
    queueCv_.notify_all();
    lock.unlock();
    for (std::thread &thread : threads_)
        if (thread.joinable())
            thread.join();
    lock.lock();
    stopMonitor_ = true;
    monitorCv_.notify_all();
    joined_ = true;
    lock.unlock();
    if (monitor_.joinable())
        monitor_.join();
    doneCv_.notify_all();
}

FleetServer::Totals
FleetServer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Totals totals;
    totals.jobs = jobs_.size();
    totals.attempts = attemptsTotal_;
    for (const auto &entry : jobs_) {
        const Job &job = *entry.second;
        if (job.phase != Phase::Done)
            continue;
        switch (job.report.status) {
          case JobStatus::Ok:
            ++totals.ok;
            break;
          case JobStatus::CacheHit:
            ++totals.cacheHits;
            break;
          case JobStatus::Shed:
            ++totals.shed;
            break;
          case JobStatus::Cancelled:
            ++totals.cancelled;
            break;
          case JobStatus::Quarantined:
            ++totals.quarantinedRefusals;
            break;
          default:
            ++totals.failures;
            break;
        }
        if (job.report.attempts > 1)
            totals.retries += job.report.attempts - 1;
    }
    if (haveFirstSubmit_ && doneCount_ > 0) {
        totals.wallMs = msBetween(firstSubmit_, lastDone_);
        double seconds = std::max(totals.wallMs / 1000.0, 1e-6);
        totals.simsPerSec = static_cast<double>(attemptsTotal_) / seconds;
    }
    return totals;
}

std::string
FleetServer::reportJson() const
{
    Totals totals = this->totals();
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<const Job *> done;
    done.reserve(jobs_.size());
    for (const auto &entry : jobs_)
        if (entry.second->phase == Phase::Done)
            done.push_back(entry.second.get());
    std::sort(done.begin(), done.end(), [](const Job *a, const Job *b) {
        return a->report.id < b->report.id;
    });
    std::string jobs = "[";
    for (size_t i = 0; i < done.size(); ++i) {
        if (i != 0)
            jobs += ",\n  ";
        jobs += done[i]->report.toJson();
    }
    jobs += "]";
    return log::format(
        "{\"schema\":\"spmrt-fleet-report-v1\",\"workers\":%u,"
        "\"totals\":{\"jobs\":%llu,\"ok\":%llu,\"cache_hits\":%llu,"
        "\"shed\":%llu,\"cancelled\":%llu,\"quarantined\":%llu,"
        "\"failures\":%llu,\"attempts\":%llu,\"retries\":%llu,"
        "\"wall_ms\":%.3f,\"sims_per_sec\":%.3f},\n \"jobs\":%s}",
        workerCount_, static_cast<unsigned long long>(totals.jobs),
        static_cast<unsigned long long>(totals.ok),
        static_cast<unsigned long long>(totals.cacheHits),
        static_cast<unsigned long long>(totals.shed),
        static_cast<unsigned long long>(totals.cancelled),
        static_cast<unsigned long long>(totals.quarantinedRefusals),
        static_cast<unsigned long long>(totals.failures),
        static_cast<unsigned long long>(totals.attempts),
        static_cast<unsigned long long>(totals.retries), totals.wallMs,
        totals.simsPerSec, jobs.c_str());
}

} // namespace serve
} // namespace spmrt
