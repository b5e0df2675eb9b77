/**
 * @file
 * Host-performance trajectory bench: how fast the simulator itself runs.
 *
 * Runs fib/cilksort/uts/nqueens under the work-stealing runtime at 16 and
 * 128 cores, as five alternating pairs of one winner-tree-scheduler run
 * and one linear-scan-reference-scheduler run, and records the median
 * host wall-clock of each scheduler, the median of the five per-pair
 * speedups, context switches, sync points, and simulated cycles. With
 * --out=<path> the rows go to a spmrt-bench-v1 document (fields
 * documented in EXPERIMENTS.md) that tools/check_host_perf.py gates: CI's
 * bench-smoke job compares the fast-vs-reference speedup, which is
 * machine-independent in a way absolute wall-clock is not, against the
 * committed trajectory, and can append the rows as a trajectory point.
 *
 * The two schedulers must agree on results, cycles, switches, and sync
 * points, and the result must equal the workload registry's host
 * reference digest — this bench asserts it (cheaply re-checking
 * test_engine_equiv's contract at bench scale) so the recorded speedup
 * is never a speedup into wrongness.
 *
 * A second series ("throughput") measures batch simulation throughput
 * through the FleetServer: the same job mix on 1 worker vs 4 workers,
 * recorded as sims/sec with speedup = multi/serial throughput. Every job
 * carries its host reference digest, so the speedup is only recorded as
 * equivalent when all results byte-match a standalone run.
 */

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>
#include <vector>

#include "bench/support.hpp"
#include "common/host_cpus.hpp"
#include "serve/server.hpp"
#include "serve/workloads.hpp"

namespace spmrt {
namespace {

/** The two machine scales of the trajectory. */
MachineConfig
machineFor(uint32_t cores)
{
    if (cores == 128)
        return MachineConfig(); // the paper's 16x8 platform
    MachineConfig cfg;
    cfg.meshCols = 4;
    cfg.meshRows = 4;
    cfg.llcBanks = 8;
    cfg.llcSetsPerBank = 32;
    cfg.dramBytes = 128ull * 1024 * 1024;
    return cfg;
}

/** One measured execution. */
struct Sample
{
    uint64_t digest = 0;
    double wallMs = 0;
    uint64_t switches = 0;
    uint64_t syncPoints = 0;
    Cycles simCycles = 0;
};

/** One fleet batch at @p workers threads: sims/sec + all-verified. */
struct FleetSample
{
    double simsPerSec = 0;
    double wallMs = 0;
    uint64_t jobs = 0;
    bool allOk = true;
};

FleetSample
measureFleet(uint32_t workers)
{
    const uint32_t fib_n = bench::scaled(14u, 11u);
    const uint32_t sort_n = bench::scaled(2000u, 800u);
    const uint32_t uts_depth = bench::scaled(7u, 6u);
    const uint32_t queens_n = bench::scaled(7u, 6u);

    serve::FleetConfig cfg;
    cfg.workers = workers;
    serve::FleetServer server(cfg);
    std::vector<serve::FleetServer::JobId> ids;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        std::vector<serve::FleetWorkload> mix = {
            {"fib", fib_n, 0, 0.0},
            {"cilksort", sort_n, 100 * seed, 0.0},
            {"uts", uts_depth, seed, 2.2},
            {"nqueens", queens_n, 0, 0.0},
        };
        for (const serve::FleetWorkload &spec : mix) {
            serve::JobRequest req = serve::makeWorkloadRequest(spec);
            req.machine = machineFor(16);
            req.scheduleSeed = seed; // distinct interleavings per seed
            req.armChecker = false;
            ids.push_back(server.submit(std::move(req)));
        }
    }
    FleetSample sample;
    for (serve::FleetServer::JobId id : ids)
        sample.allOk = sample.allOk &&
                       server.wait(id).status == serve::JobStatus::Ok;
    serve::FleetServer::Totals totals = server.totals();
    sample.simsPerSec = totals.simsPerSec;
    sample.wallMs = totals.wallMs;
    sample.jobs = totals.jobs;
    return sample;
}

/**
 * Run @p req once through serve::runJob on a fresh machine of @p cores,
 * under the chosen scheduler. The timed span is the whole call:
 * prepare() (inputs are generated inside it), the runtime constructor,
 * the run and the digest.
 */
Sample
measureOnce(serve::JobRequest req, uint32_t cores, bool reference)
{
    req.machine = machineFor(cores);
    req.armChecker = false;
    Machine machine(req.machine);
    machine.engine().setReferenceScheduler(reference);
    serve::AssetCache assets;
    auto start = std::chrono::steady_clock::now();
    serve::JobResult result = serve::runJob(req, machine, assets);
    auto stop = std::chrono::steady_clock::now();
    Sample sample;
    sample.digest = result.digest;
    sample.wallMs =
        std::chrono::duration<double, std::milli>(stop - start).count();
    sample.simCycles = machine.engine().maxTime();
    sample.switches = machine.engine().switchCount();
    sample.syncPoints = machine.engine().syncPointCount();
    return sample;
}

/** The median of an odd number of @p values. */
double
median(std::vector<double> values)
{
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return values[values.size() / 2];
}

/** One row's measurement: both schedulers and their speedup. */
struct Row
{
    Sample fast; ///< wallMs is the median over the pairs
    Sample ref;  ///< likewise, under the reference scheduler
    double speedup = 0; ///< median of the per-pair ref/fast wall ratios
};

/** Die unless @p run reproduces @p first, the scheduler's first run. */
void
expectSameRun(const Sample &first, const Sample &run,
              const serve::JobRequest &req, uint32_t cores, int pair,
              const char *scheduler)
{
    if (run.digest != first.digest || run.simCycles != first.simCycles ||
        run.switches != first.switches || run.syncPoints != first.syncPoints)
        SPMRT_FATAL("host_perf: %s/%u %s pair %d diverged from pair 0 "
                    "(digest %llx vs %llx)",
                    req.name.c_str(), cores, scheduler, pair,
                    (unsigned long long)run.digest,
                    (unsigned long long)first.digest);
}

// Five alternating fast/reference pairs. The gated quantity is the
// fast-vs-reference wall ratio, and a single timing on a shared host can
// swing 30%+ from background load. Each pair times both schedulers back
// to back, so load that drifts across the measurement lands on both
// sides of its ratio, and the median of the five ratios discards the
// pairs that one burst distorted. Every run must reproduce its
// scheduler's first digest, cycle count, and switch/syncPoint counts — a
// run that diverges is a determinism bug, not noise, and fataling here
// beats gating on it.
Row
measure(const serve::JobRequest &req, uint32_t cores)
{
    constexpr int kPairs = 5;
    Row row;
    std::vector<double> fast_ms, ref_ms, ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
        Sample fast = measureOnce(req, cores, false);
        Sample ref = measureOnce(req, cores, true);
        if (pair == 0) {
            row.fast = fast;
            row.ref = ref;
        }
        expectSameRun(row.fast, fast, req, cores, pair, "fast");
        expectSameRun(row.ref, ref, req, cores, pair, "reference");
        fast_ms.push_back(fast.wallMs);
        ref_ms.push_back(ref.wallMs);
        ratios.push_back(fast.wallMs > 0 ? ref.wallMs / fast.wallMs : 0.0);
    }
    row.fast.wallMs = median(fast_ms);
    row.ref.wallMs = median(ref_ms);
    row.speedup = median(ratios);
    return row;
}

/**
 * The first quantity on which @p fast and @p ref disagree, with
 * "reference_digest" when both computed a result other than the
 * registry's host reference @p expected; nullptr when they ran the
 * identical, correct simulation.
 */
const char *
divergence(const Sample &fast, const Sample &ref, uint64_t expected)
{
    if (fast.digest != ref.digest)
        return "digest";
    if (fast.digest != expected)
        return "reference_digest";
    if (fast.simCycles != ref.simCycles)
        return "sim_cycles";
    if (fast.switches != ref.switches)
        return "switches";
    if (fast.syncPoints != ref.syncPoints)
        return "syncpoints";
    return nullptr;
}

} // namespace
} // namespace spmrt

int
main(int argc, char **argv)
{
    using namespace spmrt;
    bench::Report report("host_perf", argc, argv);
    const serve::FleetWorkload specs[] = {
        {"fib", bench::scaled(17u, 11u)},
        {"cilksort", bench::scaled(6000u, 800u), 900},
        {"uts", bench::scaled(9u, 6u), 42, 2.2},
        {"nqueens", bench::scaled(8u, 6u)},
    };
    const uint32_t core_counts[] = {16, 128};
    // Recorded in every row: a wall-clock number only means anything
    // relative to the machine that measured it, and the fleet series
    // scales with host cores.
    const uint32_t host_cores = usableCpus();

    for (const serve::FleetWorkload &spec : specs) {
        const serve::JobRequest req = serve::makeWorkloadRequest(spec);
        const char *name = spec.kind.c_str();
        for (uint32_t cores : core_counts) {
            if (!report.wants(log::format("%s/%u", name, cores)))
                continue;
            const Row row = measure(req, cores);
            const Sample &fast = row.fast;
            const Sample &ref = row.ref;
            // The speedup is only meaningful if it is a speedup into the
            // identical, correct simulation.
            const char *diverged =
                divergence(fast, ref, req.expectedDigest);
            bool equivalent = diverged == nullptr;
            if (!equivalent)
                report.fail("%s at %u cores: the fast scheduler, the "
                            "reference scheduler and the host reference "
                            "disagree on %s",
                            name, cores, diverged);
            report.row()
                .cell("workload", name)
                .cell("cores", cores)
                .cell("geometry", machineFor(cores).geometry())
                .cell("host_cores", host_cores)
                .cell("wall_ms", fast.wallMs)
                .cell("wall_ms_reference", ref.wallMs)
                .cell("speedup", row.speedup)
                .cell("switches", fast.switches)
                .cell("syncpoints", fast.syncPoints)
                .cell("sim_cycles", fast.simCycles)
                .cell("equivalent", equivalent);
        }
    }

    // ---- Fleet batch-throughput series ---------------------------------
    if (report.wants("fleet")) {
        FleetSample serial = measureFleet(1);
        FleetSample multi = measureFleet(4);
        double scaling = serial.simsPerSec > 0
                             ? multi.simsPerSec / serial.simsPerSec
                             : 0;
        for (const auto &[workers, sample, speedup] :
             {std::tuple{1u, serial, 1.0}, std::tuple{4u, multi, scaling}})
            report.row()
                .cell("workload", "fleet")
                .cell("cores", workers)
                .cell("geometry", machineFor(16).geometry())
                .cell("series", "throughput")
                .cell("host_cores", host_cores)
                .cell("wall_ms", sample.wallMs)
                .cell("sims_per_sec", sample.simsPerSec)
                .cell("jobs", sample.jobs)
                .cell("speedup", speedup)
                .cell("equivalent", sample.allOk);
        if (!serial.allOk || !multi.allOk)
            report.fail("fleet batch: some jobs did not verify against "
                        "their standalone references");
        report.comment("fleet: %.2f sims/sec serial, %.2f sims/sec on 4 "
                       "workers (%.2fx)",
                       serial.simsPerSec, multi.simsPerSec, scaling);
    }
    return report.finish();
}
