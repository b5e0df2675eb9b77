/**
 * @file
 * Shared FleetServer plumbing for the figure and ablation benches.
 *
 * Every bench submits its whole figure as one supervised batch (each
 * cell a JobRequest run once behind the hang watchdog), settles the rows
 * it needs, and then asserts the per-status batch totals so a
 * quarantined or failed cell cannot silently vanish from the output.
 * The helpers here keep that contract, and trace capture, identical
 * across benches.
 */

#ifndef SPMRT_BENCH_FLEET_UTIL_HPP
#define SPMRT_BENCH_FLEET_UTIL_HPP

#include "bench/support.hpp"
#include "serve/server.hpp"

namespace spmrt {
namespace bench {

/**
 * Fleet configuration for a bench batch. Trace capture
 * (SPMRT_TRACE_OUT) uses support.hpp's first-writer-wins flag, which is
 * not synchronized across worker threads — so a tracing run pins the
 * fleet to one worker, which also makes it deterministic *which* run
 * lands in the trace file.
 */
inline serve::FleetConfig
benchFleetConfig()
{
    serve::FleetConfig cfg;
    if (!traceOutPath().empty())
        cfg.workers = 1;
    return cfg;
}

/**
 * Wrap @p req's prepare so the job records SPMRT_TRACE_OUT's trace and,
 * at the digest stage (the last point the worker's machine is alive),
 * hands the machine to @p inspect for counters or heatmaps that the job
 * report does not carry.
 */
inline void
traceJob(serve::JobRequest &req,
         std::function<void(Machine &)> inspect = nullptr)
{
    auto inner = req.prepare;
    req.prepare = [inner, inspect](Machine &machine,
                                   serve::AssetCache &assets) {
        maybeArmTrace(machine);
        serve::PreparedJob prep = inner(machine, assets);
        auto digest = prep.digest;
        prep.digest = [digest, inspect](Machine &m) {
            if (inspect)
                inspect(m);
            maybeWriteTrace(m);
            return digest(m);
        };
        return prep;
    };
}

/**
 * Per-status batch accounting shared by every fleet-backed bench:
 * every one of the @p submitted jobs must settle Ok (or as a cache hit
 * on a resubmitted figure); anything quarantined or failed is a bench
 * defect even when a per-job wait already flagged it.
 */
inline void
assertFleetTotals(Report &report, serve::FleetServer &server,
                  uint64_t submitted)
{
    serve::FleetServer::Totals totals = server.totals();
    if (totals.jobs != submitted)
        report.fail("fleet ran %llu jobs, expected %llu",
                    static_cast<unsigned long long>(totals.jobs),
                    static_cast<unsigned long long>(submitted));
    if (totals.ok + totals.cacheHits != totals.jobs)
        report.fail("fleet: %llu of %llu jobs did not settle Ok "
                    "(%llu failures, %llu quarantined)",
                    static_cast<unsigned long long>(
                        totals.jobs - totals.ok - totals.cacheHits),
                    static_cast<unsigned long long>(totals.jobs),
                    static_cast<unsigned long long>(totals.failures),
                    static_cast<unsigned long long>(
                        totals.quarantinedRefusals));
    report.comment("fleet: %llu jobs, %.2f sims/sec",
                   static_cast<unsigned long long>(totals.jobs),
                   totals.simsPerSec);
}

} // namespace bench
} // namespace spmrt

#endif // SPMRT_BENCH_FLEET_UTIL_HPP
