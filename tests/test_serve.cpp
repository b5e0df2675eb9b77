/**
 * @file
 * Fleet-server tests: hangs, setup failures, the repeated-spec check,
 * shutdown, and batch-level acceptance.
 *
 * Everything here must be deterministic on any host: hangs are provoked
 * by construction (a waitChildren() with no child, or a straggler fault
 * plan with no watchdog margin) rather than by timing luck, and every
 * job runs exactly once.
 */

#include <gtest/gtest.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>

#include "common/host_cpus.hpp"
#include "runtime/ws_runtime.hpp"
#include "serve/server.hpp"
#include "serve/workloads.hpp"
#include "sim/fault.hpp"
#include "workloads/fib.hpp"
#include "workloads/matmul.hpp"
#include "workloads/nqueens.hpp"

namespace spmrt {
namespace serve {
namespace {

using namespace spmrt::workloads;

/** A root body that hangs by construction: a wait with no child. */
JobRequest
denialHangRequest(uint64_t watchdog_cycles)
{
    JobRequest req;
    req.name = "hang/denial";
    req.cacheKey = "hang/denial";
    req.runtime.watchdogCycles = watchdog_cycles;
    req.armChecker = false;
    req.prepare = [](Machine &, AssetCache &) {
        PreparedJob prep;
        prep.root = [](TaskContext &tc) {
            tc.setReadyCount(1);
            tc.waitChildren();
        };
        return prep;
    };
    return req;
}

/**
 * The acceptance hang: a straggler fault plan with no watchdog margin.
 * Core 0 is stalled 1M extra cycles per operation while the watchdog
 * allows only 60k cycles without a task retire, so the very first task
 * never completes in time — a deterministic quiescence failure.
 */
JobRequest
stragglerHangRequest()
{
    JobRequest req;
    req.name = "hang/straggler";
    req.cacheKey = "hang/straggler";
    req.runtime.watchdogCycles = 60'000;
    req.armChecker = false;
    req.prepare = [](Machine &machine, AssetCache &) {
        auto plan = std::make_shared<FaultPlan>();
        plan->stallCore(0, 0, ~0ull, 1'000'000);
        machine.setFaultPlan(plan.get());
        Addr out = machine.dramAlloc(8, 8);
        PreparedJob prep;
        prep.root = [plan, out](TaskContext &tc) {
            fibKernel(tc, 10, out);
        };
        return prep;
    };
    return req;
}

// ---- Error taxonomy ------------------------------------------------------

TEST(JobStatusTaxonomy, NamesAndClasses)
{
    // Five statuses: ok, then the four failure classes, each with a
    // stable report name of its own. Every status but ok counts as a
    // failure in the batch totals (AcceptanceBatchDegradesGracefully).
    const std::pair<JobStatus, const char *> names[] = {
        {JobStatus::Ok, "ok"},
        {JobStatus::Hang, "hang"},
        {JobStatus::CheckerViolation, "checker_violation"},
        {JobStatus::DigestMismatch, "digest_mismatch"},
        {JobStatus::SetupFailure, "setup_failure"},
    };
    std::set<std::string> distinct;
    for (const auto &[status, name] : names) {
        EXPECT_STREQ(jobStatusName(status), name);
        distinct.insert(jobStatusName(status));
    }
    EXPECT_EQ(distinct.size(), std::size(names));
    EXPECT_STREQ(jobStatusName(static_cast<JobStatus>(std::size(names))),
                 "unknown")
        << "a status beyond the five";
}

// ---- Happy path and repeated specs ----------------------------------------

TEST(Fleet, SingleJobMatchesHostReference)
{
    FleetConfig cfg;
    cfg.workers = 2;
    FleetServer server(cfg);
    JobReport report = server.wait(
        server.submit(makeWorkloadRequest({"fib", 13, 0, 0.0})));
    EXPECT_EQ(report.status, JobStatus::Ok) << report.error;
    EXPECT_EQ(report.digest, static_cast<uint64_t>(fibReference(13)));
    EXPECT_TRUE(report.error.empty()) << report.error;
    EXPECT_GT(report.cycles, 0u);
    EXPECT_EQ(server.totals().attempts, 1u);
}

/** @p spec's registry request, counting its prepare() calls in @p runs. */
JobRequest
countedRequest(const FleetWorkload &spec,
               std::shared_ptr<std::atomic<uint32_t>> runs)
{
    JobRequest req = makeWorkloadRequest(spec);
    req.prepare = [inner = req.prepare, runs](Machine &m, AssetCache &a) {
        ++*runs;
        return inner(m, a);
    };
    return req;
}

TEST(Fleet, DuplicatesSimulateByteIdentical)
{
    // Every job simulates: duplicates in flight together and a duplicate
    // of a finished job all run, and the server checks each against the
    // spec's first ok run, so an Ok status here *is* the determinism
    // assertion.
    FleetConfig cfg;
    cfg.workers = 2;
    FleetServer server(cfg);
    const FleetWorkload spec{"cilksort", 300, 77, 0.0};
    auto runs = std::make_shared<std::atomic<uint32_t>>(0);
    FleetServer::JobId first_id = server.submit(countedRequest(spec, runs));
    FleetServer::JobId twin_id = server.submit(countedRequest(spec, runs));
    JobReport first = server.wait(first_id);
    ASSERT_EQ(first.status, JobStatus::Ok) << first.error;
    JobReport twin = server.wait(twin_id);
    EXPECT_EQ(twin.status, JobStatus::Ok) << twin.error;
    EXPECT_EQ(twin.digest, first.digest);
    EXPECT_EQ(twin.cycles, first.cycles);

    // bypassCache changes nothing: the job simulates and is checked.
    JobRequest again = countedRequest(spec, runs);
    again.bypassCache = true;
    JobReport fresh = server.wait(server.submit(std::move(again)));
    EXPECT_EQ(fresh.status, JobStatus::Ok) << fresh.error;
    EXPECT_EQ(fresh.digest, first.digest);
    EXPECT_EQ(fresh.cycles, first.cycles);
    EXPECT_EQ(runs->load(), 3u) << "every duplicate must simulate";
    EXPECT_EQ(server.totals().attempts, 3u);
}

TEST(Fleet, RepeatedSpecIsCheckedAgainstItsFirstRun)
{
    // A digest reader that returns a call counter stands in for a
    // nondeterministic simulation: the second run of the spec reads a
    // different digest than the first and must be flagged.
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);
    auto calls = std::make_shared<std::atomic<uint64_t>>(0);
    auto counting = [calls] {
        JobRequest req;
        req.name = "fib/counting-digest";
        req.cacheKey = "fib/counting-digest";
        req.armChecker = false;
        req.prepare = [calls](Machine &machine, AssetCache &) {
            Addr out = machine.dramAlloc(8, 8);
            PreparedJob prep;
            prep.root = [out](TaskContext &tc) { fibKernel(tc, 9, out); };
            prep.digest = [calls](Machine &) { return ++*calls; };
            return prep;
        };
        return req;
    };
    JobReport first = server.wait(server.submit(counting()));
    EXPECT_EQ(first.status, JobStatus::Ok) << first.error;
    EXPECT_EQ(first.digest, 1u);
    JobReport second = server.wait(server.submit(counting()));
    EXPECT_EQ(second.status, JobStatus::DigestMismatch);
    EXPECT_NE(second.error.find("nondeterministic"), std::string::npos)
        << second.error;
    EXPECT_EQ(second.digest, 2u) << "the repeated spec must simulate";
    EXPECT_EQ(second.cycles, first.cycles);

    // Equal digests over different cycle counts are flagged too: a raw
    // body that runs one cycle longer each time it is prepared.
    auto runs = std::make_shared<std::atomic<uint64_t>>(0);
    auto ticking = [runs] {
        JobRequest req;
        req.name = "raw/ticking";
        req.cacheKey = "raw/ticking";
        req.armChecker = false;
        req.prepare = [runs](Machine &, AssetCache &) {
            PreparedJob prep;
            prep.rawBody = [run = ++*runs](Core &core) { core.tick(run); };
            return prep;
        };
        return req;
    };
    JobReport shorter = server.wait(server.submit(ticking()));
    EXPECT_EQ(shorter.status, JobStatus::Ok) << shorter.error;
    JobReport longer = server.wait(server.submit(ticking()));
    EXPECT_EQ(longer.status, JobStatus::DigestMismatch);
    EXPECT_NE(longer.error.find("nondeterministic"), std::string::npos)
        << longer.error;
    EXPECT_EQ(longer.digest, shorter.digest);
    EXPECT_NE(longer.cycles, shorter.cycles);

    // A deterministic spec submitted twice simulates twice and agrees.
    JobReport a =
        server.wait(server.submit(makeWorkloadRequest({"fib", 13, 0, 0.0})));
    JobReport b =
        server.wait(server.submit(makeWorkloadRequest({"fib", 13, 0, 0.0})));
    EXPECT_EQ(a.status, JobStatus::Ok) << a.error;
    EXPECT_EQ(b.status, JobStatus::Ok) << b.error;
    EXPECT_EQ(a.digest, static_cast<uint64_t>(fibReference(13)));
    EXPECT_EQ(b.digest, a.digest);
    EXPECT_EQ(b.cycles, a.cycles);
    EXPECT_EQ(calls->load(), 2u);
    EXPECT_EQ(server.totals().attempts, 6u) << "every job simulates";
}

TEST(Fleet, RuntimeTwinOfACachedJobSimulates)
{
    // The spec key holds every RuntimeConfig field, so a twin of a job
    // that already ran, differing in any one field, is a spec of its
    // own: a shared key would check it against the other simulation's
    // first run and end digest_mismatch. One edit per field, in
    // declaration order.
    const std::vector<std::pair<std::string,
                                std::function<void(RuntimeConfig &)>>>
        edits = {
            {"stackInSpm", [](RuntimeConfig &rt) { rt.stackInSpm = false; }},
            {"queueInSpm", [](RuntimeConfig &rt) { rt.queueInSpm = false; }},
            {"roDuplication",
             [](RuntimeConfig &rt) { rt.roDuplication = false; }},
            {"swOverflowCheck",
             [](RuntimeConfig &rt) { rt.swOverflowCheck = true; }},
            {"queuePointerTable",
             [](RuntimeConfig &rt) { rt.queuePointerTable = true; }},
            {"userSpmReserve",
             [](RuntimeConfig &rt) { rt.userSpmReserve = 64; }},
            {"dramStackBytes",
             [](RuntimeConfig &rt) { rt.dramStackBytes = 128 * 1024; }},
            {"watchdogCycles",
             [](RuntimeConfig &rt) { rt.watchdogCycles += 1; }},
            {"activeCores", [](RuntimeConfig &rt) { rt.activeCores = 4; }},
            {"victimPolicy",
             [](RuntimeConfig &rt) {
                 rt.victimPolicy = VictimPolicy::Nearest;
             }},
            {"workDealing", [](RuntimeConfig &rt) { rt.workDealing = true; }},
        };
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);
    const FleetWorkload spec{"fib", 9, 0, 0.0};
    JobReport first = server.wait(server.submit(makeWorkloadRequest(spec)));
    ASSERT_EQ(first.status, JobStatus::Ok) << first.error;
    JobReport repeat = server.wait(server.submit(makeWorkloadRequest(spec)));
    ASSERT_EQ(repeat.status, JobStatus::Ok) << repeat.error;

    std::set<std::string> keys = {RuntimeConfig{}.key()};
    for (const auto &[field, edit] : edits) {
        JobRequest twin = makeWorkloadRequest(spec);
        edit(twin.runtime);
        keys.insert(twin.runtime.key());
        JobReport report = server.wait(server.submit(std::move(twin)));
        EXPECT_EQ(report.status, JobStatus::Ok)
            << field << ": " << report.error;
        EXPECT_EQ(report.digest, first.digest) << field;
    }
    EXPECT_EQ(keys.size(), edits.size() + 1)
        << "two edits produced the same runtime key";
}

TEST(Fleet, MachineTwinOfACachedJobSimulates)
{
    // The spec key holds every MachineConfig field, so a twin of a job
    // that already ran, on a machine that differs in any one field, is
    // a spec of its own: a shared key would check it against the other
    // machine's first run and end digest_mismatch. One valid edit of
    // tiny() per field, in declaration order.
    const std::vector<std::pair<std::string,
                                std::function<void(MachineConfig &)>>>
        edits = {
            {"meshCols", [](MachineConfig &m) { m.meshCols = 3; }},
            {"meshRows", [](MachineConfig &m) { m.meshRows = 1; }},
            {"spmBytes", [](MachineConfig &m) { m.spmBytes = 2048; }},
            {"spmWindowBytes",
             [](MachineConfig &m) { m.spmWindowBytes = 0x2000; }},
            {"rucheX", [](MachineConfig &m) { m.rucheX = 0; }},
            {"rucheY", [](MachineConfig &m) { m.rucheY = 1; }},
            {"llcBanks", [](MachineConfig &m) { m.llcBanks = 8; }},
            {"llcPlacement",
             [](MachineConfig &m) { m.llcPlacement = LlcPlacement::Top; }},
            {"llcWays", [](MachineConfig &m) { m.llcWays = 4; }},
            {"llcSetsPerBank",
             [](MachineConfig &m) { m.llcSetsPerBank = 4; }},
            {"dramBytesPerCycle",
             [](MachineConfig &m) { m.dramBytesPerCycle = 5; }},
            {"dramChannels", [](MachineConfig &m) { m.dramChannels = 2; }},
            {"dramBytes",
             [](MachineConfig &m) { m.dramBytes = 32ull * 1024 * 1024; }},
            {"hostStackBytes",
             [](MachineConfig &m) { m.hostStackBytes = 256 * 1024; }},
        };
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);
    const FleetWorkload spec{"fib", 9, 0, 0.0};
    JobReport first = server.wait(server.submit(makeWorkloadRequest(spec)));
    ASSERT_EQ(first.status, JobStatus::Ok) << first.error;
    JobReport repeat = server.wait(server.submit(makeWorkloadRequest(spec)));
    ASSERT_EQ(repeat.status, JobStatus::Ok) << repeat.error;

    std::set<std::string> keys = {makeWorkloadRequest(spec).machine.key()};
    for (const auto &[field, edit] : edits) {
        JobRequest twin = makeWorkloadRequest(spec);
        edit(twin.machine);
        keys.insert(twin.machine.key());
        JobReport report = server.wait(server.submit(std::move(twin)));
        EXPECT_EQ(report.status, JobStatus::Ok)
            << field << ": " << report.error;
        EXPECT_EQ(report.digest, first.digest) << field;
    }
    EXPECT_EQ(keys.size(), edits.size() + 1)
        << "two edits produced the same machine key";
}

/** host_perf's 16-core machine. */
MachineConfig
sixteenCores()
{
    MachineConfig cfg;
    cfg.meshCols = 4;
    cfg.meshRows = 4;
    cfg.llcBanks = 8;
    cfg.llcSetsPerBank = 32;
    cfg.dramBytes = 128ull * 1024 * 1024;
    return cfg;
}

TEST(Fleet, DigestsAndCyclesMatchStandaloneRun)
{
    // The 16-core cases are the kernels whose cycles depend on whether
    // the runtime's DRAM or the inputs are allocated first, so a second
    // run order anywhere would show up here. The instruction and steal
    // counters a fleet job's digest stage reads (how the benches'
    // runCells fills table1_main's ops and steals) must equal the
    // standalone machine's after runJob, too.
    const std::pair<FleetWorkload, MachineConfig> cases[] = {
        {{"cilksort", 400, 900, 0.0}, MachineConfig::tiny()},
        {{"uts", 6, 42, 2.2}, sixteenCores()},
        {{"nqueens", 6}, sixteenCores()},
        {{"cilksort", 800, 900, 0.0}, sixteenCores()},
    };
    FleetConfig cfg;
    cfg.workers = 2;
    FleetServer server(cfg);
    for (const auto &[workload, machine_cfg] : cases) {
        JobRequest req = makeWorkloadRequest(workload);
        req.machine = machine_cfg;
        req.armChecker = false;
        SCOPED_TRACE(req.name + " on " + machine_cfg.geometry());

        Machine machine(req.machine);
        AssetCache assets;
        JobResult standalone = runJob(req, machine, assets);
        EXPECT_EQ(standalone.digest, req.expectedDigest);

        auto counters = std::make_shared<std::pair<uint64_t, uint64_t>>();
        req.prepare = [inner = req.prepare, counters](Machine &m,
                                                      AssetCache &a) {
            PreparedJob prep = inner(m, a);
            prep.digest = [digest = prep.digest, counters](Machine &dm) {
                *counters = {dm.totalInstructions(),
                             dm.totalStat(&RuntimeStats::stealHits)};
                return digest(dm);
            };
            return prep;
        };
        JobReport report = server.wait(server.submit(std::move(req)));
        ASSERT_EQ(report.status, JobStatus::Ok) << report.error;
        EXPECT_EQ(report.digest, standalone.digest);
        EXPECT_EQ(report.cycles, standalone.cycles)
            << "fleet execution must not disturb simulated time";
        EXPECT_GT(counters->first, 0u);
        EXPECT_EQ(counters->first, machine.totalInstructions());
        EXPECT_EQ(counters->second,
                  machine.totalStat(&RuntimeStats::stealHits));
    }
}

TEST(Fleet, AssetCacheBuildsSharedInputsOnce)
{
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);
    // Same workload, different runtime configs: different spec keys, so
    // both actually simulate — but the input keys build only once.
    JobRequest a = makeWorkloadRequest({"cilksort", 300, 5, 0.0});
    JobRequest b = makeWorkloadRequest({"cilksort", 300, 5, 0.0});
    b.runtime = RuntimeConfig::queueOnly();
    FleetServer::JobId ia = server.submit(std::move(a));
    FleetServer::JobId ib = server.submit(std::move(b));
    EXPECT_EQ(server.wait(ia).status, JobStatus::Ok);
    EXPECT_EQ(server.wait(ib).status, JobStatus::Ok);
    EXPECT_EQ(server.assets().builds(), 1u);
    EXPECT_GE(server.assets().hits(), 1u);
}

// ---- Supervision: hang --------------------------------------------------

TEST(Fleet, ResubmittedHangHangsAgain)
{
    // Every job runs once, and a resubmitted spec is a new job: it runs
    // again and replays the hang exactly
    // (Chaos.SupervisedHangIsReproducible).
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);
    JobReport report = server.wait(server.submit(denialHangRequest(60'000)));
    EXPECT_EQ(report.status, JobStatus::Hang);
    EXPECT_NE(report.error.find("watchdog"), std::string::npos)
        << report.error;
    EXPECT_FALSE(report.dump.empty()) << "hang reports carry a state dump";

    JobReport again = server.wait(server.submit(denialHangRequest(60'000)));
    EXPECT_EQ(again.status, JobStatus::Hang);
    EXPECT_EQ(again.error, report.error);
    EXPECT_EQ(again.dump, report.dump);
    FleetServer::Totals totals = server.totals();
    EXPECT_EQ(totals.attempts, 2u) << "each job runs exactly once";
    EXPECT_EQ(totals.failures, 2u);
}

// ---- Fail-fast failures --------------------------------------------------

TEST(Fleet, SetupFailureFailsFastWithMessage)
{
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);
    JobRequest req;
    req.name = "broken-setup";
    req.cacheKey = "broken-setup";
    req.prepare = [](Machine &, AssetCache &) -> PreparedJob {
        throw std::runtime_error("input matrix file not found");
    };
    JobRequest resubmitted = req;
    JobReport report = server.wait(server.submit(std::move(req)));
    EXPECT_EQ(report.status, JobStatus::SetupFailure);
    EXPECT_NE(report.error.find("input matrix file not found"),
              std::string::npos);
    // A resubmitted spec runs again and fails the same way.
    JobReport again = server.wait(server.submit(std::move(resubmitted)));
    EXPECT_EQ(again.status, JobStatus::SetupFailure);
    EXPECT_EQ(again.error, report.error);
    EXPECT_EQ(server.totals().attempts, 2u);
}

/**
 * A machine whose DRAM image the host cannot map is a typed
 * setup_failure, not an abort. The child caps its address space at what
 * it already maps plus room for the server's threads and the job's
 * stacks, well below the job's 1 GiB DRAM image, and exits 0 only on a
 * setup_failure that carries a message. Sanitizer runtimes reserve
 * terabytes of shadow address space, so the cap cannot apply there.
 */
TEST(FleetDeathTest, UnmappableDramImageIsASetupFailure)
{
#if defined(SPMRT_ASAN) || defined(SPMRT_TSAN)
    GTEST_SKIP() << "sanitizer shadow needs unlimited address space";
#else
    EXPECT_EXIT(
        {
            JobRequest req = makeWorkloadRequest({"fib", 5, 0, 0.0});
            req.machine.dramBytes = 1024ull * 1024 * 1024;
            std::ifstream statm("/proc/self/statm");
            size_t mapped_pages = 0;
            statm >> mapped_pages;
            rlimit cap{};
            cap.rlim_cur = cap.rlim_max =
                mapped_pages * static_cast<size_t>(::sysconf(_SC_PAGESIZE)) +
                256ull * 1024 * 1024;
            if (mapped_pages == 0 || cap.rlim_cur >= req.machine.dramBytes ||
                ::setrlimit(RLIMIT_AS, &cap) != 0)
                std::_Exit(2);
            FleetConfig cfg;
            cfg.workers = 1;
            FleetServer server(cfg);
            JobReport report = server.wait(server.submit(std::move(req)));
            std::fprintf(stderr, "status %s: %s\n",
                         jobStatusName(report.status), report.error.c_str());
            std::exit(report.status == JobStatus::SetupFailure &&
                              !report.error.empty()
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0), "status setup_failure");
#endif
}

/**
 * A job that cannot be set up fails alone. Each bad spec below is caught
 * on the host before the first simulated cycle: a machine validate()
 * rejects, an SPM layout that overflows, a prepare() and a runtime that
 * exhaust simulated DRAM. The child exits 0 only if all four end
 * setup_failure with a message and the fib job after them still ends
 * ok; a setup check that kills the process fails the test.
 */
TEST(FleetDeathTest, UnbuildableJobsAreSetupFailures)
{
    EXPECT_EXIT(
        {
            std::vector<JobRequest> bad;
            JobRequest banks = makeWorkloadRequest({"fib", 9});
            banks.machine.llcBanks = 3; // two-edge placement: odd count
            bad.push_back(banks);
            JobRequest reserve = makeWorkloadRequest({"fib", 9});
            reserve.runtime.userSpmReserve = 8192;
            bad.push_back(reserve);
            JobRequest inputs;
            inputs.name = "huge-inputs";
            inputs.prepare = [](Machine &machine, AssetCache &) {
                machine.dramAlloc(1024ull * 1024 * 1024);
                return PreparedJob{};
            };
            bad.push_back(inputs);
            JobRequest stacks = makeWorkloadRequest({"fib", 9});
            stacks.runtime.dramStackBytes = 16u * 1024 * 1024;
            bad.push_back(stacks);

            FleetConfig cfg;
            cfg.workers = 1;
            FleetServer server(cfg);
            std::vector<FleetServer::JobId> ids;
            for (JobRequest &req : bad)
                ids.push_back(server.submit(std::move(req)));
            FleetServer::JobId fib =
                server.submit(makeWorkloadRequest({"fib", 9}));
            bool ok = true;
            for (FleetServer::JobId id : ids) {
                JobReport report = server.wait(id);
                std::fprintf(stderr, "job %llu %s: %s\n",
                             static_cast<unsigned long long>(id),
                             jobStatusName(report.status),
                             report.error.c_str());
                ok = ok && report.status == JobStatus::SetupFailure &&
                     !report.error.empty();
            }
            JobStatus fib_status = server.wait(fib).status;
            std::fprintf(stderr, "fib: %s\n", jobStatusName(fib_status));
            std::exit(ok && fib_status == JobStatus::Ok ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "fib: ok");
}

TEST(Fleet, DigestMismatchFailsFast)
{
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);
    JobRequest req = makeWorkloadRequest({"fib", 11, 0, 0.0});
    req.expectedDigest ^= 1; // sabotage the reference
    JobReport report = server.wait(server.submit(std::move(req)));
    EXPECT_EQ(report.status, JobStatus::DigestMismatch);
    EXPECT_NE(report.error.find("does not match expected"),
              std::string::npos)
        << report.error;
    EXPECT_EQ(server.totals().attempts, 1u);

    // Only an ok run becomes its spec's first run: the same spec with
    // the right reference still ends ok.
    JobReport good =
        server.wait(server.submit(makeWorkloadRequest({"fib", 11, 0, 0.0})));
    EXPECT_EQ(good.status, JobStatus::Ok) << good.error;
    EXPECT_EQ(good.digest, report.digest);
    EXPECT_EQ(good.cycles, report.cycles);
}

// A raw-body job (PreparedJob::rawBody) bypasses the task runtimes:
// every core's body runs directly under Machine::run, cycles come from
// the engine clock, and the digest contract still applies. This is the
// mode the machine-level benches (fig05) use.
TEST(Fleet, RawBodyJobRunsWithoutRuntime)
{
    FleetConfig cfg;
    cfg.workers = 2;
    FleetServer server(cfg);
    JobRequest req;
    req.name = "raw/counter";
    req.cacheKey = "raw/counter";
    req.machine = MachineConfig::tiny();
    req.armChecker = false;
    const uint64_t cores = req.machine.numCores();
    req.expectedDigest = cores * (cores + 1) / 2;
    req.hasExpectedDigest = true;
    req.prepare = [](Machine &machine, AssetCache &) {
        Addr cell = machine.dramAlloc(4, 4);
        machine.mem().pokeAs<uint32_t>(cell, 0);
        PreparedJob prep;
        prep.rawBody = [cell](Core &core) {
            core.tick(1 + core.id()); // skew the cores' finish times
            core.amoAdd(cell, core.id() + 1);
        };
        prep.digest = [cell](Machine &m) {
            return static_cast<uint64_t>(m.mem().peekAs<uint32_t>(cell));
        };
        return prep;
    };
    JobReport report = server.wait(server.submit(std::move(req)));
    EXPECT_EQ(report.status, JobStatus::Ok) << report.error;
    EXPECT_EQ(report.digest, cores * (cores + 1) / 2);
    EXPECT_GT(report.cycles, 0u);
}

// prepare() must hand back exactly one of root/rawBody; both omissions
// are setup failures.
TEST(Fleet, PreparedJobNeedsExactlyOneBody)
{
    FleetConfig cfg;
    cfg.workers = 1;
    FleetServer server(cfg);

    JobRequest neither;
    neither.name = "raw/neither";
    neither.cacheKey = "raw/neither";
    neither.prepare = [](Machine &, AssetCache &) {
        return PreparedJob{};
    };
    JobReport none = server.wait(server.submit(std::move(neither)));
    EXPECT_EQ(none.status, JobStatus::SetupFailure);
    EXPECT_NE(none.error.find("neither"), std::string::npos)
        << none.error;

    JobRequest both;
    both.name = "raw/both";
    both.cacheKey = "raw/both";
    both.prepare = [](Machine &, AssetCache &) {
        PreparedJob prep;
        prep.root = [](TaskContext &) {};
        prep.rawBody = [](Core &) {};
        return prep;
    };
    JobReport two = server.wait(server.submit(std::move(both)));
    EXPECT_EQ(two.status, JobStatus::SetupFailure);
    EXPECT_NE(two.error.find("both"), std::string::npos) << two.error;
    FleetServer::Totals totals = server.totals();
    EXPECT_EQ(totals.attempts, 2u);
    EXPECT_EQ(totals.failures, 2u);
}

// ---- Shutdown -------------------------------------------------------------

TEST(Fleet, DrainShutdownFinishesQueuedWork)
{
    FleetConfig cfg;
    cfg.workers = 2;
    FleetServer server(cfg);
    std::vector<FleetServer::JobId> ids;
    for (uint32_t n = 8; n <= 12; ++n)
        ids.push_back(server.submit(makeWorkloadRequest({"fib", n, 0, 0.0})));
    server.shutdown();
    for (FleetServer::JobId id : ids)
        EXPECT_EQ(server.wait(id).status, JobStatus::Ok);
    EXPECT_THROW(server.submit(makeWorkloadRequest({"fib", 8, 0, 0.0})),
                 std::runtime_error);
}

// ---- Acceptance batch ----------------------------------------------------

TEST(Fleet, AcceptanceBatchDegradesGracefully)
{
    // The acceptance scenario in one batch: a deliberately hung job
    // (straggler fault plan with no watchdog margin), a crashing setup,
    // and duplicate requests — the batch must complete with every job
    // run once, the duplicate fib simulating again to the same digest
    // and cycles, the resubmitted hang hanging again, and every
    // successful digest byte-identical to the host reference.
    FleetConfig cfg;
    cfg.workers = 2;
    FleetServer server(cfg);

    JobRequest broken;
    broken.name = "broken-setup";
    broken.cacheKey = "broken-setup";
    broken.prepare = [](Machine &, AssetCache &) -> PreparedJob {
        throw std::runtime_error("synthetic setup crash");
    };

    FleetServer::JobId fib_id =
        server.submit(makeWorkloadRequest({"fib", 13, 0, 0.0}));
    FleetServer::JobId hang_id = server.submit(stragglerHangRequest());
    FleetServer::JobId broken_id = server.submit(std::move(broken));
    FleetServer::JobId sort_id =
        server.submit(makeWorkloadRequest({"cilksort", 400, 900, 0.0}));
    JobReport fib_report = server.wait(fib_id);
    // Duplicates of both kinds, submitted after their primaries settled.
    FleetServer::JobId fib_dup =
        server.submit(makeWorkloadRequest({"fib", 13, 0, 0.0}));
    JobReport hang_report = server.wait(hang_id);
    FleetServer::JobId hang_dup = server.submit(stragglerHangRequest());

    EXPECT_EQ(fib_report.status, JobStatus::Ok) << fib_report.error;
    EXPECT_EQ(fib_report.digest, static_cast<uint64_t>(fibReference(13)));
    EXPECT_EQ(hang_report.status, JobStatus::Hang);
    EXPECT_EQ(server.wait(broken_id).status, JobStatus::SetupFailure);
    EXPECT_EQ(server.wait(sort_id).status, JobStatus::Ok);
    JobReport fib_again = server.wait(fib_dup);
    EXPECT_EQ(fib_again.status, JobStatus::Ok) << fib_again.error;
    EXPECT_EQ(fib_again.digest, fib_report.digest);
    EXPECT_EQ(fib_again.cycles, fib_report.cycles);
    JobReport hang_again = server.wait(hang_dup);
    EXPECT_EQ(hang_again.status, JobStatus::Hang);
    EXPECT_EQ(hang_again.error, hang_report.error);

    FleetServer::Totals totals = server.totals();
    EXPECT_EQ(totals.jobs, 6u);
    EXPECT_EQ(totals.ok, 3u);
    EXPECT_EQ(totals.failures, 3u);
    EXPECT_EQ(totals.attempts, 6u) << "every job ran, once";
    EXPECT_EQ(totals.retries, 0u);
    EXPECT_GT(totals.simsPerSec, 0.0);

    std::string json = server.reportJson();
    EXPECT_NE(json.find("\"schema\":\"spmrt-fleet-report-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ok\":3,\"failures\":3,\"attempts\":6"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"status\":\"hang\""), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"setup_failure\""), std::string::npos);
}

// ---- Workload registry ---------------------------------------------------

/** A small instance of every registered kind, input family and shape. */
const FleetWorkload kRegistrySpecs[] = {
    {"fib", 10},
    {"cilksort", 300, 5},
    {"uts", 5, 42, 2.0},
    {"uts", 16, 7, 0.2, "binomial", 4},
    {"nqueens", 5},
    {"matmul", 32, 100},
    {"mattrans", 32, 600},
    {"pagerank", 512, 1001, 0.0, "uniform", 6},
    {"pagerank", 512, 1002, 0.0, "email", 6},
    {"pagerank", 512, 1003, 0.0, "c-58", 6},
    {"bfs", 512, 1001, 0.0, "uniform", 6},
    {"bfs", 512, 1002, 0.0, "email", 6},
    {"bfs", 512, 1003, 0.0, "c-58", 6},
    {"spmv", 512, 2001, 0.0, "bundle1", 6},
    {"spmv", 512, 2002, 0.0, "email", 6},
    {"spmv", 512, 2003, 0.0, "c-58", 6},
    {"spmt", 512, 2001, 0.0, "bundle1", 6},
    {"spmt", 512, 2002, 0.0, "email", 6},
    {"spmt", 512, 2003, 0.0, "c-58", 6},
};

/** Run @p w standalone on tiny() through runJob, checker disarmed. */
uint64_t
standaloneDigest(const FleetWorkload &w, bool static_runtime)
{
    JobRequest req = makeWorkloadRequest(w);
    req.staticRuntime = static_runtime;
    req.armChecker = false;
    Machine machine(req.machine);
    AssetCache assets;
    return runJob(req, machine, assets).digest;
}

TEST(WorkloadRegistry, EveryKindMatchesItsReferenceStandalone)
{
    for (const FleetWorkload &w : kRegistrySpecs) {
        const std::string key = workloadKey(w);
        const uint64_t expected = workloadReference(w);
        EXPECT_EQ(standaloneDigest(w, false), expected)
            << key << " under work stealing";
        // Fib, CilkSort and MatTrans are spawn-sync kernels with no
        // static form.
        if (w.kind != "fib" && w.kind != "cilksort" &&
            w.kind != "mattrans") {
            EXPECT_EQ(standaloneDigest(w, true), expected)
                << key << " under the static runtime";
        }
    }
    EXPECT_EQ(makeWorkloadRequest({"matmul", 32, 100}).runtime.userSpmReserve,
              kMatMulSpmReserve);
}

TEST(WorkloadRegistry, KeyChangesWithEverySpecField)
{
    // The key is the workload part of the spec identity that the
    // repeated-spec check compares under: two specs that differ in one
    // field must never share it. An edit the kind
    // cannot take (a field it does not read, an input it lacks) must
    // be rejected instead.
    const std::map<std::string, std::string> twin = {
        {"fib", "nqueens"},  {"nqueens", "fib"},  {"matmul", "mattrans"},
        {"mattrans", "matmul"}, {"pagerank", "bfs"}, {"bfs", "pagerank"},
        {"spmv", "spmt"},    {"spmt", "spmv"},    {"cilksort", "fib"},
        {"uts", "fib"}};
    std::set<std::string> keys;
    for (const FleetWorkload &base : kRegistrySpecs) {
        const std::string key = workloadKey(base);
        keys.insert(key);
        std::vector<FleetWorkload> edits(6, base);
        edits[0].kind = twin.at(base.kind);
        // +16 keeps matmul on its tile; nqueens must stay in [4, 12].
        edits[1].n += base.kind == "nqueens" ? 1 : 16;
        edits[2].dataSeed += 1;
        edits[3].branch += 0.5;
        edits[4].input = base.input == "email" ? "c-58"
                         : base.input.empty() ? "binomial"
                                              : "email";
        edits[5].degree += 1;
        for (const FleetWorkload &edit : edits) {
            try {
                EXPECT_NE(workloadKey(edit), key)
                    << "an edited " << edit.kind << " spec kept its key";
            } catch (const std::runtime_error &) {
            }
        }
        EXPECT_NO_THROW(workloadKey(edits[1])) << key;
    }
    EXPECT_EQ(keys.size(), std::size(kRegistrySpecs));
}

TEST(WorkloadRegistry, MalformedSpecsThrowTypedErrors)
{
    const FleetWorkload bad[] = {
        {"quicksort", 10},                     // unknown kind
        {"pagerank", 512, 1, 0.0, "rmat", 6},  // unknown graph family
        {"spmv", 512, 1, 0.0, "uniform", 6},   // a graph, not a matrix
        {"uts", 5, 42, 2.0, "binary"},         // unknown tree shape
        {"fib", 10, 0, 0.0, "email"},          // fib takes no input
        {"nqueens", 6, 9},                     // nqueens reads no seed
        {"uts", 5, 42, 2.0, "", 3},            // degree on a geometric tree
        {"uts", 5, 42, 2.0005},                // branch finer than its key
        {"matmul", 40, 100},                   // not a multiple of the tile
    };
    for (const FleetWorkload &w : bad)
        EXPECT_THROW(makeWorkloadRequest(w), std::runtime_error)
            << w.kind << " '" << w.input << "'";
}

TEST(WorkloadRegistry, SpecsOutsideTheReferenceRangeThrowTypedErrors)
{
    // Each of these used to pass workloadKey and then trip an assert or
    // undefined behaviour in its host reference or setup, killing the
    // process inside makeWorkloadRequest.
    const FleetWorkload bad[] = {
        {"nqueens", 3},  // below nqueensReference's table
        {"nqueens", 13}, // above it
        {"nqueens", 0},
        {"bfs", 0, 1, 0.0, "uniform", 4}, // no source vertex 0
        {"uts", 5, 42, -0.5},             // geometric branch below 0
    };
    for (const FleetWorkload &w : bad)
        EXPECT_THROW(makeWorkloadRequest(w), std::runtime_error)
            << w.kind << " n = " << w.n;
    for (uint32_t n = kNQueensMinN; n <= kNQueensMaxN; ++n)
        EXPECT_NO_THROW(workloadKey({"nqueens", n}));
}

TEST(Fleet, DefaultWorkerCountFollowsTheAffinityMask)
{
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (first < CPU_SETSIZE && !CPU_ISSET(first, &saved))
        ++first;
    ASSERT_LT(first, CPU_SETSIZE);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const uint32_t usable = usableCpus();
    uint32_t workers = 0;
    {
        FleetServer server; // workers = 0: sized from the mask
        workers = server.workerCount();
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(usable, 1u);
    EXPECT_EQ(workers, 1u);
    EXPECT_EQ(usableCpus(), static_cast<uint32_t>(CPU_COUNT(&saved)));
}

} // namespace
} // namespace serve
} // namespace spmrt
