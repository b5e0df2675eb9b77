/**
 * @file
 * Ablation E9 (DESIGN.md): parallel_for grain-size sensitivity.
 *
 * Sweeps the leaf-task grain for (a) a uniform loop and (b) a skewed
 * loop whose iteration costs follow the in-degree distribution of an
 * email-like graph. Small grains pay task overhead; large grains strand
 * heavy iterations inside unstealable leaves.
 *
 * Every (grain, loop-shape) cell is one supervised FleetServer job:
 * the whole sweep is submitted up front, cells parallelize across host
 * workers behind the hang watchdog, and the batch totals are asserted
 * per status at the end.
 */

#include <memory>

#include "bench/fleet_util.hpp"
#include "graph/generators.hpp"

using namespace spmrt;
using namespace spmrt::bench;

namespace {

/** One sweep cell (grain x uniform/skewed loop) as a fleet job. */
serve::JobRequest
cellRequest(int64_t grain, bool skewed_loop, int64_t iterations,
            std::shared_ptr<const HostGraph> skewed)
{
    serve::JobRequest req;
    req.name = log::format("abl_grain/%s/grain-%" PRId64,
                           skewed_loop ? "skewed" : "uniform", grain);
    req.cacheKey = req.name;
    req.machine = MachineConfig{};
    req.runtime = RuntimeConfig::full();
    req.armChecker = false;
    req.prepare = [grain, skewed_loop, iterations,
                   skewed](Machine &machine, serve::AssetCache &) {
        maybeArmTrace(machine);
        serve::PreparedJob prep;
        prep.root = [grain, skewed_loop, iterations,
                     skewed](TaskContext &tc) {
            ForOptions opts;
            opts.grain = grain;
            if (skewed_loop) {
                parallelFor(
                    tc, 0, iterations,
                    [&skewed](TaskContext &btc, int64_t i) {
                        // Cost proportional to the vertex's degree.
                        btc.core().tick(
                            5 + 3 * skewed->degree(
                                        static_cast<uint32_t>(i)));
                    },
                    opts);
            } else {
                parallelFor(
                    tc, 0, iterations,
                    [](TaskContext &btc, int64_t) { btc.core().tick(20); },
                    opts);
            }
        };
        prep.digest = [](Machine &m) {
            maybeWriteTrace(m);
            return 0ull;
        };
        return prep;
    };
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    Report report("abl_grain_size", argc, argv);
    const int64_t iterations = scaled<int64_t>(16384, 2048);
    auto skewed = std::make_shared<const HostGraph>(genPowerLaw(
        static_cast<uint32_t>(iterations), 8, 0.7, 99));

    report.comment("Ablation: parallel_for grain size, %" PRId64
                   " iterations on 128 cores",
                   iterations);

    serve::FleetServer server(benchFleetConfig());
    report.comment("batch of supervised fleet jobs across %u host workers",
                   server.workerCount());

    struct PendingGrain
    {
        int64_t grain;
        serve::FleetServer::JobId uniform;
        serve::FleetServer::JobId skewed;
    };
    std::vector<PendingGrain> pending;
    for (int64_t grain : {1, 4, 16, 32, 64, 128, 512}) {
        if (!report.wants(log::format("grain-%" PRId64, grain)))
            continue;
        PendingGrain p;
        p.grain = grain;
        p.uniform = server.submit(
            cellRequest(grain, false, iterations, skewed));
        p.skewed = server.submit(
            cellRequest(grain, true, iterations, skewed));
        pending.push_back(p);
    }

    for (const PendingGrain &p : pending) {
        serve::JobReport uniform = server.wait(p.uniform);
        serve::JobReport skewed_job = server.wait(p.skewed);
        for (const serve::JobReport *job : {&uniform, &skewed_job})
            if (job->status != serve::JobStatus::Ok &&
                job->status != serve::JobStatus::CacheHit)
                report.fail("%s: %s (%s)", job->name.c_str(),
                            serve::jobStatusName(job->status),
                            job->error.c_str());
        report.row()
            .cell("grain", p.grain)
            .cell("uniform_cycles", uniform.cycles)
            .cell("skewed_cycles", skewed_job.cycles);
    }
    report.comment("expected: uniform loops tolerate coarse grains; "
                   "skewed loops need fine ones");
    assertFleetTotals(report, server, pending.size() * 2);
    return report.finish();
}
