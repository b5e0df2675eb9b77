/**
 * @file
 * The Machine: one simulated manycore system.
 *
 * Bundles the engine, the memory system, the per-core guest handles, and a
 * DRAM heap allocator. Benchmarks construct a Machine, place inputs with
 * untimed pokes, then run one or more timed kernels.
 */

#ifndef SPMRT_SIM_MACHINE_HPP
#define SPMRT_SIM_MACHINE_HPP

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/alloc.hpp"
#include "mem/memory_system.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/core.hpp"
#include "sim/engine.hpp"

namespace spmrt {

/**
 * A complete simulated manycore machine.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg)
        : cfg_(validated(cfg)), engine_(cfg.numCores(), cfg.hostStackBytes),
          mem_(cfg),
          dramHeap_(mem_.map().dramBase(),
                    cfg.dramBytes)
    {
        cores_.reserve(cfg.numCores());
        for (CoreId i = 0; i < cfg.numCores(); ++i)
            cores_.push_back(std::make_unique<Core>(engine_, mem_, i, cfg_));
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Machine configuration. */
    const MachineConfig &config() const { return cfg_; }
    /** Number of cores. */
    uint32_t numCores() const { return cfg_.numCores(); }
    /** Guest handle for core @p id. */
    Core &core(CoreId id) { return *cores_[id]; }
    /** The memory system (for untimed peeks/pokes). */
    MemorySystem &mem() { return mem_; }
    /** The execution engine. */
    Engine &engine() { return engine_; }

    /**
     * Allocate @p bytes of simulated DRAM (untimed). Exhaustion while
     * the machine is being set up on the host (inputs, runtime
     * structures) throws std::runtime_error, which a supervisor reports
     * as a setup failure; inside a running guest, where no exception may
     * unwind, it is fatal. Both carry the same message.
     */
    Addr
    dramAlloc(uint64_t bytes, uint32_t align = 8)
    {
        Addr addr = dramHeap_.alloc(bytes, align);
        if (addr == kNullAddr) {
            std::string what = log::format(
                "simulated DRAM exhausted (%llu bytes requested)",
                static_cast<unsigned long long>(bytes));
            if (engine_.running() != kInvalidCore)
                SPMRT_FATAL("%s", what.c_str());
            throw std::runtime_error(what);
        }
        return addr;
    }

    /** Allocate a DRAM array of @p count elements of type T (untimed). */
    template <typename T>
    Addr
    dramAllocArray(uint64_t count)
    {
        return dramAlloc(count * sizeof(T), alignof(T) < 4 ? 4 : alignof(T));
    }

    /** Release a DRAM allocation. */
    void dramFree(Addr addr) { dramHeap_.release(addr); }

    /**
     * Run @p body on every core to completion.
     * @return the cycle count of the slowest core for this phase.
     */
    Cycles
    run(const std::function<void(Core &)> &body)
    {
        return runPerCore(
            std::vector<std::function<void(Core &)>>(numCores(), body));
    }

    /** Run a distinct body per core (size must equal numCores()). */
    Cycles
    runPerCore(const std::vector<std::function<void(Core &)>> &bodies)
    {
        SPMRT_ASSERT(bodies.size() == numCores(),
                     "runPerCore: %zu bodies for %u cores", bodies.size(),
                     numCores());
        Cycles start = engine_.maxTime();
        syncClocks();
        for (CoreId i = 0; i < numCores(); ++i) {
            Core *core = cores_[i].get();
            auto body = bodies[i];
            engine_.setBody(i, [body, core] { body(*core); });
        }
        engine_.run();
        return engine_.maxTime() - start;
    }

    /** Align every core's clock to the global maximum (phase barrier). */
    void
    syncClocks()
    {
        Cycles max_time = engine_.maxTime();
        for (CoreId i = 0; i < numCores(); ++i)
            engine_.advanceTo(i, max_time);
        // The phase barrier is a genuine global synchronization point;
        // mirror it in the checker's happens-before relation.
        if (ConcurrencyChecker *ck = mem_.checker())
            ck->onPhaseBarrier();
    }

    /** Sum of a per-core ISA-level statistic over all cores. */
    uint64_t
    totalStat(uint64_t IsaStats::*field) const
    {
        uint64_t total = 0;
        for (const auto &core : cores_)
            total += core->stats().isa.*field;
        return total;
    }

    /** Sum of a per-core runtime-level statistic over all cores. */
    uint64_t
    totalStat(uint64_t RuntimeStats::*field) const
    {
        uint64_t total = 0;
        for (const auto &core : cores_)
            total += core->stats().rt.*field;
        return total;
    }

    /** Total dynamic operations across all cores. */
    uint64_t
    totalInstructions() const
    {
        return totalStat(&IsaStats::instructions);
    }

    /**
     * Install (or clear, with nullptr) a fault plan machine-wide: every
     * core plus the NoC and LLC consult it. The plan must outlive the
     * runs it perturbs.
     */
    void
    setFaultPlan(FaultPlan *plan)
    {
        for (auto &core : cores_)
            core->setFaultPlan(plan);
        mem_.setFaultPlan(plan);
        if (tracer_ && plan != nullptr)
            reportFaultPlan(*plan);
    }

    /**
     * Arm the concurrency checker: creates it (idempotently) and attaches
     * it to the memory system so every timed access is observed. Arm
     * *before* constructing a runtime — region registration happens in
     * runtime constructors.
     */
    ConcurrencyChecker *
    armChecker()
    {
        if (!checker_)
            checker_ = std::make_unique<ConcurrencyChecker>(numCores());
        mem_.setChecker(checker_.get());
        return checker_.get();
    }

    /** The armed checker, or nullptr. */
    ConcurrencyChecker *checker() const { return mem_.checker(); }

    /**
     * Arm the timeline tracer: creates it (idempotently) and attaches it
     * to the engine and all cores. Hooks only read simulated state and
     * charge no cycles, so an armed run stays bit-identical to a
     * disarmed one (tests/test_obs.cpp). Counters need no arming: each
     * layer keeps its own and is read where it lives (core stats,
     * mem().stats(), the NoC/LLC/DRAM accessors and heatmaps).
     */
    obs::Tracer *
    armTracer()
    {
        if (!tracer_)
            tracer_ = std::make_unique<obs::Tracer>();
        engine_.setTracer(tracer_.get());
        for (auto &core : cores_)
            core->setTracer(tracer_.get());
        return tracer_.get();
    }

    /** The armed tracer, or nullptr (never armed). */
    obs::Tracer *tracer() const { return tracer_.get(); }

  private:
    /** Fail fast on an inconsistent geometry, before any layer sizes
     *  itself from it. The heap base comes from the memory system's
     *  AddressMap, which moves DRAM up when a big machine's SPM region
     *  outgrows the historical base. */
    static const MachineConfig &
    validated(const MachineConfig &cfg)
    {
        cfg.validate();
        return cfg;
    }

    /**
     * Mirror an installed fault plan into the trace: every window
     * becomes a complete span on the synthetic "faults" track. The
     * injected-delay totals stay on the plan (FaultPlan::injected()).
     */
    void
    reportFaultPlan(const FaultPlan &plan)
    {
        obs::Tracer &tracer = *tracer_;
        for (const auto &w : plan.coreStalls())
            tracer.span(obs::kTraceFault, obs::kTraceFaultTrack, w.start,
                        w.end, "core_stall", "core", w.core,
                        "extra_per_op", w.extraPerOp);
        for (const auto &w : plan.linkDelays())
            tracer.span(obs::kTraceFault, obs::kTraceFaultTrack, w.start,
                        w.end, "link_delay", "node_x", w.x, "node_y", w.y);
        for (const auto &w : plan.llcSlows())
            tracer.span(obs::kTraceFault, obs::kTraceFaultTrack, w.start,
                        w.end, "llc_slow", "bank", w.bank, "extra",
                        w.extra);
    }

    MachineConfig cfg_;
    Engine engine_;
    MemorySystem mem_;
    RangeAllocator dramHeap_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<ConcurrencyChecker> checker_;
    std::unique_ptr<obs::Tracer> tracer_;
};

} // namespace spmrt

#endif // SPMRT_SIM_MACHINE_HPP
