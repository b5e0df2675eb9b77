/**
 * @file
 * Reproduces Fig. 5: the normalized remote-scratchpad load latency heat
 * map when every core repeatedly loads from core 0's SPM (the situation
 * created by reference-captured lambda environments before the read-only
 * duplication optimization).
 *
 * The grid is one fleet job (fleet_util.hpp's runCells) using the
 * raw-body job mode (PreparedJob::rawBody): the measurement loop runs
 * every core's body directly under Machine::run with no task runtime in
 * the way, yet still sits behind the fleet's hang watchdog. The
 * distance-gradient contract (farthest mesh row slower than the
 * nearest) folds into the digest.
 *
 * Expected shape: latency grows with mesh distance from core 0, with the
 * Y-direction distance mattering more than X (X-Y routing concentrates
 * the return traffic, and ruche channels widen X).
 */

#include <memory>
#include <vector>

#include "bench/fleet_util.hpp"

using namespace spmrt;
using namespace spmrt::bench;

int
main(int argc, char **argv)
{
    Report report("fig05_remote_latency", argc, argv);
    if (!report.wants("remote-latency-grid"))
        return report.finish();

    MachineConfig cfg; // full 16x8 machine
    const uint32_t loads = scaled<uint32_t>(200, 40);

    // Side-channel for the per-core measurements: filled by the job's
    // raw body on the fleet worker, read back after runCells.
    auto avg_latency =
        std::make_shared<std::vector<double>>(cfg.numCores(), 0.0);

    serve::JobRequest jobreq;
    jobreq.name = "fig05/remote-latency-grid";
    jobreq.machine = cfg;
    jobreq.armChecker = false;
    // The digest folds the figure's headline shape claim into the job
    // contract: the farthest mesh row must average slower than row 0.
    jobreq.expectedDigest = 1;
    jobreq.hasExpectedDigest = true;
    jobreq.prepare = [avg_latency, cfg,
                      loads](Machine &machine, serve::AssetCache &) {
        Addr hot = machine.mem().map().spmBase(0);
        serve::PreparedJob prep;
        prep.rawBody = [avg_latency, hot, loads](Core &core) {
            // Every core periodically reads core 0's scratchpad between
            // bursts of local compute, mimicking per-iteration reads of
            // a lambda environment homed there (PageRank's profile in
            // the paper). Pure back-to-back loads would saturate core
            // 0's SPM port and flatten the distance gradient.
            Cycles load_time = 0;
            for (uint32_t i = 0; i < loads; ++i) {
                core.tick(24, 12); // body work between environment reads
                Cycles t0 = core.now();
                (void)core.load<uint32_t>(hot + (i % 64) * 4);
                load_time += core.now() - t0;
            }
            (*avg_latency)[core.id()] =
                static_cast<double>(load_time) / loads;
        };
        prep.digest = [avg_latency, cfg](Machine &) {
            double near = 0, far = 0;
            for (uint32_t x = 0; x < cfg.meshCols; ++x) {
                near += (*avg_latency)[cfg.coreAt(x, 0)];
                far += (*avg_latency)[cfg.coreAt(x, cfg.meshRows - 1)];
            }
            return far > near ? 1ull : 0ull;
        };
        return prep;
    };

    report.comment("supervised fleet job (raw machine body, no runtime)");
    runCells(report, {std::move(jobreq)});

    double max_latency = 0;
    for (double latency : *avg_latency)
        max_latency = std::max(max_latency, latency);

    report.comment("Fig. 5: remote SPM load latency, normalized to the "
                   "slowest core; %ux%u mesh, all cores loading from "
                   "core 0",
                   cfg.meshCols, cfg.meshRows);
    // The figure itself: a normalized latency grid in mesh layout
    // (Heatmap cells are integers, so normalized values are permille).
    obs::Heatmap grid;
    grid.labelColumn = "row";
    for (uint32_t x = 0; x < cfg.meshCols; ++x)
        grid.columns.push_back(log::format("x%02u", x));
    for (uint32_t y = 0; y < cfg.meshRows; ++y) {
        std::vector<uint64_t> values;
        for (uint32_t x = 0; x < cfg.meshCols; ++x)
            values.push_back(static_cast<uint64_t>(
                (*avg_latency)[cfg.coreAt(x, y)] / max_latency * 1000.0 +
                0.5));
        grid.addRow(log::format("y%u", y), values);
        std::printf("# ");
        for (uint64_t norm : values)
            std::printf("%4.1f", static_cast<double>(norm) / 1000.0);
        std::printf("\n");
    }
    if (grid.writeCsv("BENCH_fig05_latency_heatmap.csv"))
        report.comment("wrote BENCH_fig05_latency_heatmap.csv");
    else
        report.fail("cannot write BENCH_fig05_latency_heatmap.csv");

    // Shape checks, mirroring the paper's observations.
    auto rowAvg = [&](uint32_t y) {
        double total = 0;
        for (uint32_t x = 0; x < cfg.meshCols; ++x)
            total += (*avg_latency)[cfg.coreAt(x, y)];
        return total / cfg.meshCols;
    };
    for (uint32_t y = 0; y < cfg.meshRows; ++y)
        report.row()
            .cell("mesh_row", static_cast<uint64_t>(y))
            .cell("avg_latency_cycles", rowAvg(y))
            .cell("normalized", rowAvg(y) / rowAvg(cfg.meshRows - 1));
    report.comment("gradient check: farthest row %.2fx the nearest row",
                   rowAvg(cfg.meshRows - 1) / rowAvg(0));
    return report.finish();
}
