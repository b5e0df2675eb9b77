/**
 * @file
 * Unit-cost probes: single public layer calls timed on their own, on the
 * workload's machine geometry. Each probe repeats its call enough times
 * to take tens of milliseconds and reports the median of a few reps.
 */

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "common/rng.hpp"
#include "mem/memory_system.hpp"
#include "mem/noc.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using namespace spmrt;

namespace {

template <typename Fn>
double
medianOf(int reps, Fn &&fn)
{
    std::vector<double> values;
    for (int i = 0; i < reps; ++i)
        values.push_back(fn());
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/** Host ns per MemorySystem::load of @p count accesses at @p addr(i). */
template <typename AddrFn>
double
loadNs(MemorySystem &mem, uint64_t count, AddrFn &&addr)
{
    Cycles t = 0;
    uint32_t value = 0;
    uint64_t sink = 0;
    Clock::time_point start = Clock::now();
    for (uint64_t i = 0; i < count; ++i) {
        t = mem.load(0, t, addr(i), &value, 4);
        sink += value;
    }
    double ns = msBetween(start, Clock::now()) * 1e6;
    volatile uint64_t keep = sink;
    (void)keep;
    return ns / static_cast<double>(count);
}

} // namespace

Probes
runProbes(const MachineConfig &machine, bool quick)
{
    const uint64_t scale = quick ? 10 : 1;
    const int reps = quick ? 1 : 3;
    Probes probes;

    probes.engineBuildMs = medianOf(reps, [&] {
        Clock::time_point start = Clock::now();
        Engine engine(machine.numCores(), machine.hostStackBytes);
        return msBetween(start, Clock::now());
    });

    std::unique_ptr<MemorySystem> mem;
    probes.memBuildMs = medianOf(reps, [&] {
        mem.reset();
        Clock::time_point start = Clock::now();
        mem = std::make_unique<MemorySystem>(machine);
        return msBetween(start, Clock::now());
    });
    probes.memBuildNsPerMb =
        probes.memBuildMs * 1e6 /
        (static_cast<double>(machine.dramBytes) / (1024.0 * 1024.0));

    // Two cores ping-pong through advance + syncPoint: every sync point
    // hands the host thread to the other core.
    const int rounds = static_cast<int>(200000 / scale);
    probes.switchNs = medianOf(reps, [&] {
        Engine engine(2, 64 * 1024);
        for (CoreId i = 0; i < 2; ++i) {
            engine.setBody(i, [&engine, i, rounds] {
                for (int k = 0; k < rounds; ++k) {
                    engine.advance(i, 1);
                    engine.syncPoint(i);
                }
            });
        }
        Clock::time_point start = Clock::now();
        engine.run();
        return msBetween(start, Clock::now()) * 1e6 / (2.0 * rounds);
    });

    const Addr own = mem->map().spmBase(0);
    const Addr remote = mem->map().spmBase(machine.numCores() - 1);
    const Addr dram = mem->map().dramBase();
    probes.localLoadNs = medianOf(reps, [&] {
        return loadNs(*mem, 4000000 / scale,
                      [own](uint64_t i) { return own + ((i * 4) & 1023); });
    });
    probes.remoteLoadNs = medianOf(reps, [&] {
        return loadNs(*mem, 1000000 / scale, [remote](uint64_t i) {
            return remote + ((i * 4) & 1023);
        });
    });
    // Line-strided over 16 MiB: a mix of LLC hits and DRAM fills.
    probes.dramLoadNs = medianOf(reps, [&] {
        return loadNs(*mem, 1000000 / scale, [dram](uint64_t i) {
            return dram + static_cast<Addr>((i * 64) & ((16u << 20) - 1));
        });
    });
    mem.reset();

    probes.nocTraverseNs = medianOf(reps, [&] {
        MeshNoc noc(machine);
        Xoshiro256StarStar rng(3);
        const uint64_t count = 2000000 / scale;
        Cycles t = 0;
        Cycles sink = 0;
        Clock::time_point start = Clock::now();
        for (uint64_t i = 0; i < count; ++i) {
            CoreId src =
                static_cast<CoreId>(rng.nextBounded(machine.numCores()));
            CoreId dst =
                static_cast<CoreId>(rng.nextBounded(machine.numCores()));
            sink += noc.traverse(noc.coreEndpoint(src), noc.coreEndpoint(dst),
                                 t++, 4);
        }
        double ns = msBetween(start, Clock::now()) * 1e6 / count;
        volatile Cycles keep = sink;
        (void)keep;
        return ns;
    });
    return probes;
}

} // namespace perfbench
