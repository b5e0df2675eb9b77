/**
 * @file
 * The one way a figure, table or ablation bench runs its cells.
 *
 * A bench describes every cell of its figure as a JobRequest and hands
 * the list to runCells(), which runs it as one FleetServer batch: each
 * cell runs once behind the hang watchdog, its result is checked against
 * the digest the request expects (and a repeated spec against its first
 * run), and a cell that does not end ok fails the report by name, so it
 * cannot silently vanish from a figure. The helper also captures SPMRT_TRACE_OUT's trace and
 * reads the machine counters that a JobReport does not carry.
 */

#ifndef SPMRT_BENCH_FLEET_UTIL_HPP
#define SPMRT_BENCH_FLEET_UTIL_HPP

#include "bench/support.hpp"
#include "obs/heatmap.hpp"
#include "serve/server.hpp"

namespace spmrt {
namespace bench {

/** One cell of a figure: its job, plus an optional look at its machine. */
struct Cell
{
    Cell(serve::JobRequest request,
         std::function<std::string(Machine &)> inspect_fn = nullptr)
        : req(std::move(request)), inspect(std::move(inspect_fn))
    {
    }

    serve::JobRequest req;
    /**
     * Runs on the worker at the job's digest stage, the last point where
     * its machine is alive (heatmap exports). A non-empty return is an
     * error that fails the report.
     */
    std::function<std::string(Machine &)> inspect;
};

/** What one cell produced: its report and its machine's counters. */
struct CellResult
{
    serve::JobReport job;
    uint64_t instructions = 0; ///< Machine::totalInstructions()
    uint64_t stealHits = 0;
    uint64_t stealAttempts = 0;

    /** True when the cell simulated and its digest was accepted. */
    bool ok() const { return job.status == serve::JobStatus::Ok; }
};

/**
 * Wrap @p req's prepare so the job records SPMRT_TRACE_OUT's trace when
 * none has been captured yet and, at the digest stage, hands the machine
 * to @p inspect before the trace is written.
 */
inline void
traceJob(serve::JobRequest &req, std::function<void(Machine &)> inspect)
{
    auto inner = req.prepare;
    req.prepare = [inner, inspect](Machine &machine,
                                   serve::AssetCache &assets) {
        if (!traceOutPath().empty() && !detail::traceWritten())
            machine.armTracer();
        serve::PreparedJob prep = inner(machine, assets);
        auto digest = prep.digest;
        prep.digest = [digest, inspect](Machine &m) {
            inspect(m);
            // The first armed machine to get here wins the trace file.
            obs::Tracer *tracer = m.tracer();
            if (tracer != nullptr && !detail::traceWritten()) {
                detail::traceFailed() =
                    !tracer->writeChromeJson(traceOutPath());
                detail::traceWritten() = true;
            }
            return digest ? digest(m) : 0ull;
        };
        return prep;
    };
}

/**
 * Run @p cells as one fleet batch and return their results in submission
 * order. Every cell simulates, so every counter fills. A cell that does
 * not end ok, or whose inspect reports an error, fails @p report with
 * the cell's name; so do server totals that disagree with the cells.
 */
inline std::vector<CellResult>
runCells(Report &report, std::vector<Cell> cells)
{
    std::vector<CellResult> results(cells.size());
    std::vector<std::string> inspect_errors(cells.size());
    serve::FleetConfig cfg;
    // Trace capture's first-writer-wins flag is not synchronized across
    // workers, so a tracing batch runs on one worker; that also makes
    // the first cell the one that lands in the trace.
    if (!traceOutPath().empty())
        cfg.workers = 1;
    serve::FleetServer server(cfg);
    std::vector<serve::FleetServer::JobId> ids;
    for (size_t i = 0; i < cells.size(); ++i) {
        serve::JobRequest &req = cells[i].req;
        // Written on the worker, read below after wait() orders it.
        traceJob(req, [result = &results[i], error = &inspect_errors[i],
                       inspect = std::move(cells[i].inspect)](Machine &m) {
            result->instructions = m.totalInstructions();
            result->stealHits = m.totalStat(&RuntimeStats::stealHits);
            result->stealAttempts =
                m.totalStat(&RuntimeStats::stealAttempts);
            if (inspect)
                *error = inspect(m);
        });
        ids.push_back(server.submit(std::move(req)));
    }

    uint64_t ok = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        serve::JobReport &job = results[i].job;
        job = server.wait(ids[i]);
        if (!results[i].ok())
            report.fail("%s: %s (%s)", job.name.c_str(),
                        serve::jobStatusName(job.status),
                        job.error.c_str());
        else if (!inspect_errors[i].empty())
            report.fail("%s: %s", job.name.c_str(),
                        inspect_errors[i].c_str());
        ok += results[i].ok() ? 1 : 0;
    }
    serve::FleetServer::Totals totals = server.totals();
    if (totals.jobs != cells.size() || totals.ok != ok)
        report.fail("fleet totals (%llu jobs, %llu ok) disagree with the "
                    "cells (%zu jobs, %llu ok)",
                    static_cast<unsigned long long>(totals.jobs),
                    static_cast<unsigned long long>(totals.ok),
                    cells.size(), static_cast<unsigned long long>(ok));
    report.comment("fleet: %llu jobs on %u workers, %.2f sims/sec",
                   static_cast<unsigned long long>(totals.jobs),
                   server.workerCount(), totals.simsPerSec);
    return results;
}

/**
 * A cell's inspect for contention heatmaps: write @p m's per-link NoC
 * and per-bank LLC maps as BENCH_<figure>_noc_heatmap_<tag>.csv and
 * BENCH_<figure>_llc_heatmap_<tag>.csv; returns "" or an error naming
 * each file that could not be written.
 */
inline std::string
writeHeatmaps(Machine &m, const char *figure, const std::string &tag)
{
    const std::pair<const char *, obs::Heatmap> maps[] = {
        {"noc", m.mem().noc().linkHeatmap()},
        {"llc", m.mem().llc().bankHeatmap()},
    };
    std::string error;
    for (const auto &[kind, map] : maps) {
        std::string path = log::format("BENCH_%s_%s_heatmap_%s.csv", figure,
                                       kind, tag.c_str());
        if (!map.writeCsv(path))
            error += (error.empty() ? "cannot write " : ", ") + path;
    }
    return error;
}

} // namespace bench
} // namespace spmrt

#endif // SPMRT_BENCH_FLEET_UTIL_HPP
