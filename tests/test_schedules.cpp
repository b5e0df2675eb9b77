/**
 * @file
 * Schedule-exploration sweep: the work-stealing protocol under seeded
 * perturbation of the engine's ready-core order, with the concurrency
 * checker armed.
 *
 * Each schedule seed is one alternative — fully reproducible —
 * interleaving of the same program: lock races resolve differently,
 * thieves hit different victims, queue occupancy histories diverge. The
 * protocol's correctness claim is that none of this is observable:
 *
 *  - the checker reports zero violations on every interleaving;
 *  - every interleaving computes the reference result;
 *  - the same seed replays to the exact cycle (determinism);
 *  - different seeds genuinely produce different interleavings
 *    (otherwise the sweep tests nothing);
 *  - arming the checker changes no cycle count (it is an observer).
 *
 * The per-seed sweep runs through the FleetServer: each seed is one
 * fleet job (checker armed, expected digest = host reference), and the
 * replay leg is the server's repeated-spec check — a second run of the
 * same spec that disagrees on digest or cycles with the first reports
 * digest_mismatch, so an Ok status certifies deterministic replay.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "serve/workloads.hpp"
#include "sim/checker.hpp"
#include "sim/machine.hpp"

namespace spmrt {
namespace {

constexpr uint64_t kNumSeeds = 16;
constexpr Cycles kWindow = 8; ///< admission window around the min clock

/** Outcome of one timed run. */
struct Outcome
{
    uint64_t digest = 0; ///< workload result, order-independent
    Cycles cycles = 0;
    size_t violations = 0;
    std::string report;
};

/** The swept workloads (serve/workloads.hpp specs). */
const serve::FleetWorkload kWorkloads[] = {
    {"fib", 12},
    {"cilksort", 400, 900},
    {"uts", 7, 42, 2.2},
    {"nqueens", 6},
};

/** Run @p workload once; optionally perturbed, optionally checked. */
Outcome
runOnce(const serve::FleetWorkload &workload, bool perturb,
        uint64_t sched_seed, bool armed)
{
    serve::JobRequest req = serve::makeWorkloadRequest(workload);
    req.armChecker = armed;
    if (perturb) {
        req.scheduleSeed = sched_seed;
        req.scheduleWindow = kWindow;
    }
    Machine machine(req.machine);
    serve::AssetCache assets;
    serve::JobResult result = serve::runJob(req, machine, assets);

    Outcome out;
    out.digest = result.digest;
    out.cycles = result.cycles;
    if (ConcurrencyChecker *ck = machine.checker()) {
        out.violations = ck->violations().size();
        out.report = ck->report();
    }
    return out;
}

class ScheduleSweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ScheduleSweep, SeededPerturbationIsCleanAndDeterministic)
{
    const serve::FleetWorkload &spec = kWorkloads[GetParam()];
    SCOPED_TRACE(spec.kind);

    serve::FleetConfig fcfg;
    fcfg.workers = 2;
    serve::FleetServer server(fcfg);
    std::set<Cycles> distinct_cycles;
    for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
        serve::JobRequest req = serve::makeWorkloadRequest(spec);
        req.scheduleSeed = seed;
        req.scheduleWindow = kWindow;
        serve::JobReport a = server.wait(server.submit(std::move(req)));
        // Ok subsumes the old assertions: a race would come back as
        // checker_violation, a wrong result as digest_mismatch.
        EXPECT_EQ(a.status, serve::JobStatus::Ok)
            << spec.kind << " seed " << seed << ": " << a.error << "\n"
            << a.dump;

        // The same seed must replay bit-identically, to the cycle: the
        // server checks the second run against the first.
        serve::JobRequest again = serve::makeWorkloadRequest(spec);
        again.scheduleSeed = seed;
        again.scheduleWindow = kWindow;
        serve::JobReport b = server.wait(server.submit(std::move(again)));
        EXPECT_EQ(b.status, serve::JobStatus::Ok)
            << spec.kind << " is nondeterministic under seed " << seed
            << ": " << b.error;
        EXPECT_EQ(b.cycles, a.cycles);
        distinct_cycles.insert(a.cycles);
    }

    // The sweep must actually explore: if every seed produced the same
    // cycle count, the perturbation is a no-op and the 16 "schedules"
    // were one schedule.
    EXPECT_GE(distinct_cycles.size(), 2u)
        << spec.kind
        << ": all schedule seeds collapsed to one interleaving";
}

std::string
workloadName(const ::testing::TestParamInfo<size_t> &info)
{
    return kWorkloads[info.param].kind;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ScheduleSweep,
                         ::testing::Range<size_t>(0, std::size(kWorkloads)),
                         workloadName);

TEST(ScheduleSweep, UnperturbedRunIsCleanToo)
{
    for (const serve::FleetWorkload &workload : kWorkloads) {
        Outcome out = runOnce(workload, false, 0, true);
        EXPECT_EQ(out.violations, 0u)
            << workload.kind << ":\n" << out.report;
        EXPECT_EQ(out.digest, serve::workloadReference(workload))
            << workload.kind;
    }
}

TEST(ScheduleSweep, ArmingTheCheckerChangesNoCycle)
{
    // The checker is a pure observer: with it armed and disarmed the
    // same program must take exactly the same number of cycles.
    for (const serve::FleetWorkload &workload : kWorkloads) {
        Outcome armed = runOnce(workload, false, 0, true);
        Outcome bare = runOnce(workload, false, 0, false);
        EXPECT_EQ(armed.cycles, bare.cycles)
            << workload.kind << ": arming the checker perturbed timing";
        EXPECT_EQ(armed.digest, bare.digest) << workload.kind;

        // Same under a perturbed schedule (same seed, armed vs not).
        Outcome armed_p = runOnce(workload, true, 3, true);
        Outcome bare_p = runOnce(workload, true, 3, false);
        EXPECT_EQ(armed_p.cycles, bare_p.cycles)
            << workload.kind
            << ": checker perturbed a perturbed schedule";
        EXPECT_EQ(armed_p.digest, bare_p.digest) << workload.kind;
    }
}

TEST(SchedulePerturbation, WindowRelaxedSyncPointStillTerminatesAlone)
{
    // A machine where only one core has a body: minOtherTime() is the
    // "alone" sentinel; the window-relaxed bound must not overflow it.
    Machine machine(MachineConfig::tiny());
    machine.engine().perturbSchedule(99, 1000);
    Addr scratch = machine.dramAlloc(8, 8);
    std::vector<std::function<void(Core &)>> bodies(machine.numCores());
    bodies[0] = [scratch](Core &core) {
        for (int i = 0; i < 64; ++i)
            core.store<uint32_t>(scratch, i);
        core.fence();
    };
    for (CoreId i = 1; i < machine.numCores(); ++i)
        bodies[i] = [](Core &) {};
    machine.runPerCore(bodies);
    EXPECT_EQ(machine.mem().peekAs<uint32_t>(scratch), 63u);
}

} // namespace
} // namespace spmrt
