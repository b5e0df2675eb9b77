/**
 * @file
 * Fleet smoke driver for CI: one small supervised batch containing every
 * failure class the server must degrade through — healthy workloads
 * under chaos fault plans, duplicate requests, a deliberate hang with no
 * watchdog margin, and a crashing setup — and a hard assertion on the
 * per-status counts and on the attempt count (each job that runs runs
 * once; the hang is quarantined after its one attempt). Exits nonzero
 * on any mismatch; writes the full machine-readable job report (schema
 * spmrt-fleet-report-v1) for upload as a CI artifact.
 *
 * Usage: fleet_batch [--out=<path>]
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "serve/server.hpp"
#include "serve/workloads.hpp"
#include "sim/fault.hpp"
#include "workloads/fib.hpp"

using namespace spmrt;
using namespace spmrt::serve;

namespace {

int failures = 0;

void
expectEq(const char *what, uint64_t got, uint64_t want)
{
    if (got != want) {
        std::fprintf(stderr, "FAIL: %s: got %llu, want %llu\n", what,
                     static_cast<unsigned long long>(got),
                     static_cast<unsigned long long>(want));
        ++failures;
    } else {
        std::printf("ok: %s = %llu\n", what,
                    static_cast<unsigned long long>(got));
    }
}

/** A straggler fault plan with no watchdog margin: a guaranteed hang. */
JobRequest
hangRequest()
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
            workloads::fibKernel(tc, 10, out);
        };
        return prep;
    };
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "fleet_report.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else {
            std::fprintf(stderr, "usage: %s [--out=<path>]\n", argv[0]);
            return 2;
        }
    }

    FleetServer server;
    std::printf("# fleet smoke batch on %u workers\n", server.workerCount());

    // Healthy work, one cell under a chaos fault plan.
    JobRequest fib = makeWorkloadRequest({"fib", 12, 0, 0.0});
    JobRequest sort = makeWorkloadRequest({"cilksort", 400, 900, 0.0});
    sort.faultSeed = 3;
    sort.faultHorizon = 200'000;
    FleetServer::JobId fib_id = server.submit(std::move(fib));
    FleetServer::JobId sort_id = server.submit(std::move(sort));
    FleetServer::JobId hang_id = server.submit(hangRequest());
    JobRequest broken;
    broken.name = "broken-setup";
    broken.cacheKey = "broken-setup";
    broken.prepare = [](Machine &, AssetCache &) -> PreparedJob {
        throw std::runtime_error("synthetic setup crash");
    };
    FleetServer::JobId broken_id = server.submit(std::move(broken));

    // A duplicate submitted after its primary settled hits the cache;
    // a quarantined spec resubmitted is refused.
    JobReport fib_report = server.wait(fib_id);
    FleetServer::JobId dup_id =
        server.submit(makeWorkloadRequest({"fib", 12, 0, 0.0}));
    server.wait(hang_id);
    FleetServer::JobId refused_id = server.submit(hangRequest());
    server.waitAll();

    expectEq("fib status ok",
             server.wait(fib_id).status == JobStatus::Ok, 1);
    expectEq("fib digest matches reference", fib_report.digest,
             static_cast<uint64_t>(workloads::fibReference(12)));
    expectEq("chaos cilksort status ok",
             server.wait(sort_id).status == JobStatus::Ok, 1);
    expectEq("hang status",
             server.wait(hang_id).status == JobStatus::Hang, 1);
    expectEq("hang attempts", server.wait(hang_id).attempts, 1);
    expectEq("hang quarantined", server.wait(hang_id).quarantined, 1);
    expectEq("setup failure status",
             server.wait(broken_id).status == JobStatus::SetupFailure, 1);
    expectEq("duplicate served from cache",
             server.wait(dup_id).status == JobStatus::CacheHit, 1);
    expectEq("duplicate digest identical", server.wait(dup_id).digest,
             fib_report.digest);
    expectEq("resubmitted hang refused",
             server.wait(refused_id).status == JobStatus::Quarantined, 1);

    FleetServer::Totals totals = server.totals();
    expectEq("totals.jobs", totals.jobs, 6);
    expectEq("totals.ok", totals.ok, 2);
    expectEq("totals.cache_hits", totals.cacheHits, 1);
    expectEq("totals.failures", totals.failures, 2);
    expectEq("totals.quarantined", totals.quarantinedRefusals, 1);
    expectEq("totals.attempts", totals.attempts, 4);

    std::string json = server.reportJson();
    FILE *file = std::fopen(out_path.c_str(), "w");
    if (file == nullptr) {
        std::fprintf(stderr, "FAIL: cannot open %s for writing\n",
                     out_path.c_str());
        ++failures;
    } else {
        std::fputs(json.c_str(), file);
        std::fputc('\n', file);
        std::fclose(file);
        std::printf("# wrote %s\n", out_path.c_str());
    }

    if (failures != 0) {
        std::fprintf(stderr, "%d fleet smoke check(s) failed\n", failures);
        return 1;
    }
    std::printf("fleet smoke batch: all checks passed (%.2f sims/sec)\n",
                totals.simsPerSec);
    return 0;
}
