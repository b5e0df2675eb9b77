/**
 * @file
 * fleet-sweep: a batch of short jobs through FleetServer, the way sweeps
 * are run. The server builds and tears down each job's Machine inside
 * its worker thread, so the benchmark times the job's layers from the
 * callbacks the server calls (prepare, the root task, the digest reader)
 * and from JobReport::wallMs:
 *
 *   start     worker threads run their jobs back to back, so a job starts
 *             where the previous job on its thread ended (start + wallMs);
 *             a thread's first job starts at its submit
 *   build     start -> prepare() entry
 *   setup     prepare() (asset generation + upload)
 *   ctor      prepare() exit -> root task entry (runtime constructor)
 *   run       root task entry -> digest reader entry
 *   verify    the digest reader (the server compares it with the host
 *             reference computed when the request was built)
 *   teardown  release of the PreparedJob, which the server destroys just
 *             before the Machine -> start + wallMs
 */

#include <algorithm>
#include <cinttypes>
#include <map>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace spmrt;

namespace {

/** Clock reads taken inside one job's callbacks (its worker's thread). */
struct JobStamps
{
    Clock::time_point submit;
    Clock::time_point prepEntry;
    Clock::time_point prepExit;
    Clock::time_point rootEntry;
    Clock::time_point digestEntry;
    Clock::time_point digestExit;
    Clock::time_point teardownStart;
    std::thread::id thread;
    bool rootSeen = false;
    Counters counters;
};

/** Stamps teardownStart when the server releases the PreparedJob. */
struct TeardownStamp
{
    explicit TeardownStamp(JobStamps *stamps) : stamps_(stamps) {}
    ~TeardownStamp() { stamps_->teardownStart = Clock::now(); }
    TeardownStamp(const TeardownStamp &) = delete;
    TeardownStamp &operator=(const TeardownStamp &) = delete;

  private:
    JobStamps *stamps_;
};

/** The 16-core job machine. */
MachineConfig
fleetMachine()
{
    MachineConfig cfg;
    cfg.meshCols = 4;
    cfg.meshRows = 4;
    cfg.llcBanks = 8;
    cfg.llcSetsPerBank = 32;
    cfg.dramBytes = 128ull * 1024 * 1024;
    return cfg;
}

/** @p request with its prepare() wrapped to fill @p stamps. */
serve::JobRequest
instrumented(serve::JobRequest request, JobStamps *stamps)
{
    auto inner = request.prepare;
    request.prepare = [inner, stamps](Machine &machine,
                                      serve::AssetCache &assets) {
        stamps->thread = std::this_thread::get_id();
        stamps->rootSeen = false;
        stamps->prepEntry = Clock::now();
        serve::PreparedJob prep = inner(machine, assets);
        stamps->prepExit = Clock::now();
        auto root = std::move(prep.root);
        prep.root = [root, stamps](TaskContext &tc) {
            if (!stamps->rootSeen) {
                stamps->rootSeen = true;
                stamps->rootEntry = Clock::now();
            }
            root(tc);
        };
        auto digest = std::move(prep.digest);
        auto stamp = std::make_shared<TeardownStamp>(stamps);
        prep.digest = [digest, stamps, stamp](Machine &m) {
            stamps->digestEntry = Clock::now();
            uint64_t value = digest(m);
            stamps->digestExit = Clock::now();
            stamps->counters = Counters::of(m);
            return value;
        };
        return prep;
    };
    return request;
}

Clock::time_point
after(Clock::time_point from, double ms)
{
    return from + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
}

} // namespace

FleetSweep::FleetSweep(uint64_t seed, bool quick) : machine_(fleetMachine())
{
    workers_ =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    // 26 of each kind: 104 jobs per batch, enough for a p90 with ten
    // samples beyond it. Data seeds (cilksort keys, UTS roots) come from
    // the workload seed; fib and nqueens repeat one spec, so the server's
    // bypass-cache revalidation also checks them for determinism.
    const uint32_t groups = quick ? 2 : 26;
    for (uint32_t g = 0; g < groups; ++g) {
        uint64_t data_seed = hash64(seed * 1000003 + g);
        specs_.push_back({"fib", quick ? 11u : 14u, 0, 0.0});
        specs_.push_back(
            {"cilksort", quick ? 800u : 2000u, data_seed % 1000000, 0.0});
        specs_.push_back(
            {"uts", quick ? 6u : 7u, hash64(data_seed) % 1000000, 2.2});
        specs_.push_back({"nqueens", quick ? 6u : 7u, 0, 0.0});
    }
    for (const serve::FleetWorkload &spec : specs_) {
        serve::JobRequest req = serve::makeWorkloadRequest(spec);
        req.machine = machine_;
        req.runtime = RuntimeConfig::full();
        req.armChecker = false;
        req.bypassCache = true;
        requests_.push_back(std::move(req));
    }
}

std::string
FleetSweep::inputsJson(size_t index) const
{
    const serve::FleetWorkload &w = specs_[index];
    return log::format(
        "{\"kernel\": \"%s\", \"n\": %u, \"data_seed\": %" PRIu64
        ", \"branch\": %.3f, \"runtime\": \"work_stealing\", "
        "\"runtime_config\": \"%s\", \"schedule_seed\": 0, "
        "\"machine\": \"%s\", \"workers\": %u}",
        w.kind.c_str(), w.n, w.dataSeed, w.branch,
        RuntimeConfig::full().name().c_str(),
        machine_.geometry().c_str(), workers_);
}

Round
FleetSweep::runBatch(SpanLog *log)
{
    const size_t n = requests_.size();
    Round round;
    round.traced = log != nullptr;
    round.workers = workers_;
    std::vector<JobStamps> stamps(n);

    Clock::time_point batch_start = Clock::now();
    serve::FleetConfig cfg;
    cfg.workers = workers_;
    auto server = std::make_unique<serve::FleetServer>(cfg);
    Clock::time_point server_up = Clock::now();
    std::vector<serve::FleetServer::JobId> ids;
    for (size_t i = 0; i < n; ++i) {
        stamps[i].submit = Clock::now();
        ids.push_back(
            server->submit(instrumented(requests_[i], &stamps[i])));
    }
    std::vector<serve::JobReport> reports = server->waitAll();
    Clock::time_point batch_end = Clock::now();
    serve::FleetServer::Totals totals = server->totals();
    round.attempts = totals.attempts;
    round.retries = totals.retries;
    round.assetBuilds = server->assets().builds();
    round.assetHits = server->assets().hits();
    server.reset();
    round.wallMs = msBetween(batch_start, Clock::now());
    round.simSeconds = msBetween(server_up, batch_end) / 1000.0;
    round.setupMs = msBetween(batch_start, server_up);

    std::map<serve::FleetServer::JobId, const serve::JobReport *> by_id;
    for (const serve::JobReport &report : reports)
        by_id[report.id] = &report;

    // Reconstruct each job's start from its worker thread's sequence.
    std::map<std::thread::id, std::vector<size_t>> per_thread;
    for (size_t i = 0; i < n; ++i) {
        const serve::JobReport &report = *by_id.at(ids[i]);
        if (report.status != serve::JobStatus::Ok || !stamps[i].rootSeen) {
            round.failures.push_back(log::format(
                "%s: %s %s", report.name.c_str(),
                serve::jobStatusName(report.status), report.error.c_str()));
            continue;
        }
        per_thread[stamps[i].thread].push_back(i);
    }
    std::vector<Clock::time_point> starts(n);
    for (auto &[thread, jobs] : per_thread) {
        std::sort(jobs.begin(), jobs.end(), [&](size_t a, size_t b) {
            return stamps[a].prepEntry < stamps[b].prepEntry;
        });
        Clock::time_point free_at = batch_start;
        for (size_t i : jobs) {
            starts[i] = std::max(free_at, stamps[i].submit);
            free_at = after(starts[i], by_id.at(ids[i])->wallMs);
        }
    }

    uint64_t batch_span = log != nullptr ? log->newId() : 0;
    for (auto &[thread, jobs] : per_thread) {
        for (size_t i : jobs) {
            const serve::JobReport &report = *by_id.at(ids[i]);
            const JobStamps &st = stamps[i];
            SimRecord rec;
            rec.cell = i;
            rec.start = starts[i];
            rec.end = after(rec.start, report.wallMs);
            rec.phaseMs[kBuild] = msBetween(rec.start, st.prepEntry);
            rec.phaseMs[kSetup] = msBetween(st.prepEntry, st.prepExit);
            rec.phaseMs[kCtor] = msBetween(st.prepExit, st.rootEntry);
            rec.phaseMs[kRun] = msBetween(st.rootEntry, st.digestEntry);
            rec.phaseMs[kVerify] = msBetween(st.digestEntry, st.digestExit);
            rec.phaseMs[kTeardown] = msBetween(st.teardownStart, rec.end);
            rec.selfMs = report.wallMs;
            for (double ms : rec.phaseMs)
                rec.selfMs -= ms;
            rec.digest = report.digest;
            rec.cycles = report.cycles;
            rec.verified = report.digest == requests_[i].expectedDigest;
            rec.counters = st.counters;
            round.setupMs += rec.setupMs();
            round.jobWallMsSum += report.wallMs;
            if (log != nullptr) {
                uint64_t job = log->newId();
                uint64_t sim = log->newId();
                log->add("serve.job", job, batch_span, batch_span, st.submit,
                         rec.end);
                log->add("sim", sim, job, batch_span, rec.start, rec.end);
                const std::pair<Phase, std::pair<Clock::time_point,
                                                 Clock::time_point>>
                    phases[] = {
                        {kBuild, {rec.start, st.prepEntry}},
                        {kSetup, {st.prepEntry, st.prepExit}},
                        {kCtor, {st.prepExit, st.rootEntry}},
                        {kRun, {st.rootEntry, st.digestEntry}},
                        {kVerify, {st.digestEntry, st.digestExit}},
                        {kTeardown, {st.teardownStart, rec.end}},
                    };
                for (const auto &[phase, span] : phases)
                    log->add(kPhaseSpan[phase], log->newId(), sim,
                             batch_span, span.first, span.second);
            }
            round.sims.push_back(rec);
        }
    }
    if (log != nullptr)
        log->add("serve.batch", batch_span, 0, batch_span, batch_start,
                 batch_end);
    std::sort(round.sims.begin(), round.sims.end(),
              [](const SimRecord &a, const SimRecord &b) {
                  return a.cell < b.cell;
              });
    return round;
}

Cell
FleetSweep::cell(size_t index) const
{
    const serve::JobRequest &req = requests_[index];
    Cell cell;
    cell.name = req.name;
    cell.inputsJson = inputsJson(index);
    cell.machine = req.machine;
    cell.runtime = req.runtime;
    cell.prepare = [req](Machine &machine, Laps &) {
        serve::AssetCache assets;
        serve::PreparedJob job = req.prepare(machine, assets);
        Prepared prep;
        prep.root = job.root;
        prep.digest = job.digest;
        prep.verify = [digest = job.digest, expected = req.expectedDigest](
                          Machine &m) { return digest(m) == expected; };
        return prep;
    };
    return cell;
}

} // namespace perfbench
