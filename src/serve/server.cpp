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

} // namespace

FleetServer::FleetServer(FleetConfig cfg) : cfg_(std::move(cfg))
{
    workerCount_ = cfg_.workers;
    if (workerCount_ == 0)
        workerCount_ = std::min<uint32_t>(4, usableCpus());
    threads_.reserve(workerCount_);
    for (uint32_t i = 0; i < workerCount_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

FleetServer::~FleetServer()
{
    shutdown();
}

std::string
FleetServer::specKeyFor(const JobRequest &req) const
{
    if (req.cacheKey.empty())
        return "";
    // The machine is every MachineConfig field and the runtime every
    // RuntimeConfig field: two configs differing in any parameter (ruche
    // factors, LLC sets, DRAM channels, window stride, queue placement,
    // victim policy, ...) must never be checked against each other's
    // first run.
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
    queueCv_.notify_one();
    return id;
}

void
FleetServer::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        queueCv_.wait(lock,
                      [this] { return stopWorkers_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping, and the queue has drained
        JobId id = queue_.front();
        queue_.pop_front();
        processJob(lock, id);
    }
}

void
FleetServer::processJob(std::unique_lock<std::mutex> &lock, JobId id)
{
    Job &job = *jobs_.at(id);
    job.phase = Phase::Running;

    // The simulation runs unlocked: the job is Running, so only this
    // worker touches its report until it is Done.
    lock.unlock();
    Clock::time_point started = Clock::now();
    runAttempt(job.req, job.report);
    job.report.wallMs = msBetween(started, Clock::now());

    lock.lock();
    if (!job.specKey.empty() && job.report.status == JobStatus::Ok) {
        // The first ok run of a spec is stored; every later ok run must
        // reproduce its digest *and* cycle count, or the batch has
        // detected nondeterminism.
        auto [first, inserted] = firstRuns_.try_emplace(
            job.specKey, FirstRun{job.report.digest, job.report.cycles});
        if (!inserted && (first->second.digest != job.report.digest ||
                          first->second.cycles != job.report.cycles)) {
            job.report.status = JobStatus::DigestMismatch;
            job.report.error = log::format(
                "repeated spec disagrees with its first run: first "
                "0x%016llx / %llu cycles, this run 0x%016llx / %llu "
                "cycles — nondeterministic simulation",
                static_cast<unsigned long long>(first->second.digest),
                static_cast<unsigned long long>(first->second.cycles),
                static_cast<unsigned long long>(job.report.digest),
                static_cast<unsigned long long>(job.report.cycles));
        }
    }
    job.phase = Phase::Done;
    ++doneCount_;
    lastDone_ = Clock::now();
    doneCv_.notify_all();
}

void
FleetServer::runAttempt(const JobRequest &req, JobReport &report)
{
    try {
        Machine machine(req.machine);
        JobResult result = runJob(req, machine, assets_);
        report.cycles = result.cycles;
        report.digest = result.digest;
        report.status = JobStatus::Ok;
        ConcurrencyChecker *checker = machine.checker();
        if (checker != nullptr && !checker->violations().empty()) {
            report.status = JobStatus::CheckerViolation;
            report.error =
                log::format("%zu concurrency-checker violations",
                            checker->violations().size());
            report.dump = truncateDump(checker->report());
        }
        if (report.status == JobStatus::Ok && req.hasExpectedDigest &&
            report.digest != req.expectedDigest) {
            report.status = JobStatus::DigestMismatch;
            report.error = log::format(
                "digest 0x%016llx does not match expected 0x%016llx",
                static_cast<unsigned long long>(report.digest),
                static_cast<unsigned long long>(req.expectedDigest));
        }
    } catch (const SimAbort &abort) {
        report.status = JobStatus::Hang;
        report.error = abort.summary();
        report.dump = truncateDump(abort.dump());
    } catch (const std::exception &error) {
        report.status = JobStatus::SetupFailure;
        report.error = error.what();
    } catch (...) {
        report.status = JobStatus::SetupFailure;
        report.error = "unknown exception from prepare()/run";
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
FleetServer::shutdown()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (joined_)
        return;
    accepting_ = false;
    stopWorkers_ = true;
    queueCv_.notify_all();
    lock.unlock();
    for (std::thread &thread : threads_)
        if (thread.joinable())
            thread.join();
    lock.lock();
    joined_ = true;
    lock.unlock();
    doneCv_.notify_all();
}

FleetServer::Totals
FleetServer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Totals totals;
    totals.jobs = jobs_.size();
    for (const auto &entry : jobs_) {
        const Job &job = *entry.second;
        if (job.phase != Phase::Done)
            continue;
        ++totals.attempts;
        if (job.report.status == JobStatus::Ok)
            ++totals.ok;
        else
            ++totals.failures;
    }
    if (haveFirstSubmit_ && doneCount_ > 0) {
        totals.wallMs = msBetween(firstSubmit_, lastDone_);
        double seconds = std::max(totals.wallMs / 1000.0, 1e-6);
        totals.simsPerSec = static_cast<double>(totals.attempts) / seconds;
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
        "\"totals\":{\"jobs\":%llu,\"ok\":%llu,\"failures\":%llu,"
        "\"attempts\":%llu,"
        "\"wall_ms\":%.3f,\"sims_per_sec\":%.3f},\n \"jobs\":%s}",
        workerCount_, static_cast<unsigned long long>(totals.jobs),
        static_cast<unsigned long long>(totals.ok),
        static_cast<unsigned long long>(totals.failures),
        static_cast<unsigned long long>(totals.attempts), totals.wallMs,
        totals.simsPerSec, jobs.c_str());
}

} // namespace serve
} // namespace spmrt
