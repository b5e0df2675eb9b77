/**
 * @file
 * Ablation E9 (DESIGN.md): parallel_for grain-size sensitivity.
 *
 * Sweeps the leaf-task grain for (a) a uniform loop and (b) a skewed
 * loop whose iteration costs follow the in-degree distribution of an
 * email-like graph. Small grains pay task overhead; large grains strand
 * heavy iterations inside unstealable leaves.
 *
 * Every (grain, loop-shape) cell is one job of the bench's fleet batch
 * (fleet_util.hpp's runCells).
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
    req.machine = MachineConfig{};
    req.runtime = RuntimeConfig::full();
    req.armChecker = false;
    req.prepare = [grain, skewed_loop, iterations,
                   skewed](Machine &, serve::AssetCache &) {
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

    // Each grain is a (uniform, skewed) pair of cells.
    std::vector<Cell> cells;
    std::vector<int64_t> grains;
    for (int64_t grain : {1, 4, 16, 32, 64, 128, 512}) {
        if (!report.wants(log::format("grain-%" PRId64, grain)))
            continue;
        cells.push_back(cellRequest(grain, false, iterations, skewed));
        cells.push_back(cellRequest(grain, true, iterations, skewed));
        grains.push_back(grain);
    }

    const std::vector<CellResult> results =
        runCells(report, std::move(cells));
    for (size_t g = 0; g < grains.size(); ++g)
        report.row()
            .cell("grain", grains[g])
            .cell("uniform_cycles", results[2 * g].job.cycles)
            .cell("skewed_cycles", results[2 * g + 1].job.cycles);
    report.comment("expected: uniform loops tolerate coarse grains; "
                   "skewed loops need fine ones");
    return report.finish();
}
