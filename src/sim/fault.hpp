/**
 * @file
 * Deterministic fault injection for chaos-testing the runtime.
 *
 * A FaultPlan is a set of *timing perturbations* — never functional
 * corruption — registered with a Machine before a run:
 *
 *  - core stall windows: while a core's local clock is inside the window,
 *    every charged operation costs extra cycles (a straggler core);
 *  - link delay windows: every hop leaving mesh node (x, y) inside the
 *    window pays extra latency (a NoC congestion spike);
 *  - LLC bank slowdown windows: requests arriving at the bank inside the
 *    window pay extra latency (a slow cache bank);
 *  - lock-holder delays: every Nth lock acquisition by a core charges
 *    extra cycles *while the lock is held*, widening critical sections.
 *
 * Because every perturbation is a pure function of deterministic
 * simulation state (local clocks, arrival times, per-core acquisition
 * counts), a perturbed run is exactly as reproducible as a fault-free
 * one: the same (workload, seed, FaultPlan) triple yields bit-identical
 * results and cycle counts. Perturbing only timing means any workload
 * result that *differs* from the fault-free run is a runtime protocol
 * bug (a race in the queue protocol, a lost ready-count decrement, a
 * premature termination broadcast) — which is the point.
 */

#ifndef SPMRT_SIM_FAULT_HPP
#define SPMRT_SIM_FAULT_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"

namespace spmrt {

/**
 * One deterministic perturbation schedule. Query methods are called on
 * simulation hot paths and accumulate how much delay was actually
 * injected (diagnostics; a plan whose windows were never hit injected
 * nothing, and a chaos test should know that).
 */
class FaultPlan
{
  public:
    /** A straggler core: extra cycles per charged op inside the window. */
    struct CoreStallWindow
    {
        CoreId core;
        Cycles start;
        Cycles end;
        Cycles extraPerOp;
    };

    /** Congestion spike: extra latency per hop leaving node (x, y). */
    struct LinkDelayWindow
    {
        uint32_t x;
        uint32_t y;
        Cycles start;
        Cycles end;
        Cycles extra;
    };

    /** Slow LLC bank: extra latency per request inside the window. */
    struct LlcSlowWindow
    {
        uint32_t bank;
        Cycles start;
        Cycles end;
        Cycles extra;
    };

    /** Every @c period-th lock acquisition by @c core holds it longer. */
    struct LockHolderFault
    {
        CoreId core;
        uint32_t period;
        Cycles extra;
    };

    /** Totals of delay actually injected so far. */
    struct InjectedStats
    {
        uint64_t coreStallCycles = 0;
        uint64_t linkDelayCycles = 0;
        uint64_t llcDelayCycles = 0;
        uint64_t lockHolderCycles = 0;
        uint64_t lockHolderHits = 0;
    };

    FaultPlan() = default;

    /** @name Builders (chainable)
     *  @{
     */
    FaultPlan &
    stallCore(CoreId core, Cycles start, Cycles end, Cycles extra_per_op)
    {
        coreStalls_.push_back({core, start, end, extra_per_op});
        return *this;
    }

    FaultPlan &
    delayLinks(uint32_t x, uint32_t y, Cycles start, Cycles end,
               Cycles extra)
    {
        linkDelays_.push_back({x, y, start, end, extra});
        return *this;
    }

    FaultPlan &
    slowLlcBank(uint32_t bank, Cycles start, Cycles end, Cycles extra)
    {
        llcSlows_.push_back({bank, start, end, extra});
        return *this;
    }

    FaultPlan &
    delayLockHolder(CoreId core, uint32_t period, Cycles extra)
    {
        lockFaults_.push_back({core, period, extra});
        return *this;
    }
    /** @} */

    /** @name Hot-path queries
     *  Inline so the mem library can call them without linking against
     *  the sim library (which owns fault.cpp).
     *  @{
     */

    /** Extra cycles for one charged op on @p core at local time @p now. */
    Cycles
    coreStall(CoreId core, Cycles now)
    {
        Cycles extra = 0;
        for (const CoreStallWindow &w : coreStalls_)
            if (w.core == core && now >= w.start && now < w.end)
                extra += w.extraPerOp;
        injected_.coreStallCycles += extra;
        return extra;
    }

    /** Extra latency for a hop leaving node (x, y) at time @p now. */
    Cycles
    linkDelay(uint32_t x, uint32_t y, Cycles now)
    {
        Cycles extra = 0;
        for (const LinkDelayWindow &w : linkDelays_)
            if (w.x == x && w.y == y && now >= w.start && now < w.end)
                extra += w.extra;
        injected_.linkDelayCycles += extra;
        return extra;
    }

    /** Extra latency for a request at LLC @p bank arriving at @p now. */
    Cycles
    llcDelay(uint32_t bank, Cycles now)
    {
        Cycles extra = 0;
        for (const LlcSlowWindow &w : llcSlows_)
            if (w.bank == bank && now >= w.start && now < w.end)
                extra += w.extra;
        injected_.llcDelayCycles += extra;
        return extra;
    }

    /**
     * Extra cycles @p core must hold the lock it just acquired. Counts
     * acquisitions per core; the count is itself deterministic because
     * the whole simulation is.
     */
    Cycles
    lockHolderDelay(CoreId core)
    {
        if (lockFaults_.empty())
            return 0;
        if (core >= lockAcquisitions_.size())
            lockAcquisitions_.resize(core + 1, 0);
        uint64_t count = ++lockAcquisitions_[core];
        Cycles extra = 0;
        for (const LockHolderFault &f : lockFaults_)
            if (f.core == core && f.period != 0 && count % f.period == 0)
                extra += f.extra;
        if (extra != 0) {
            injected_.lockHolderCycles += extra;
            ++injected_.lockHolderHits;
        }
        return extra;
    }
    /** @} */

    /** True when the plan perturbs nothing. */
    bool
    empty() const
    {
        return coreStalls_.empty() && linkDelays_.empty() &&
               llcSlows_.empty() && lockFaults_.empty();
    }

    /**
     * True when the plan carries any link-delay windows. The NoC checks
     * this once per packet: under such a plan — even one whose windows
     * have already passed — every hop of the packet queries linkDelay(),
     * so injected timing can never be skipped.
     */
    bool hasLinkDelays() const { return !linkDelays_.empty(); }

    /** Delay actually injected so far. */
    const InjectedStats &injected() const { return injected_; }

    /** Forget injected-delay totals and acquisition counts. */
    void
    resetInjected()
    {
        injected_ = InjectedStats{};
        lockAcquisitions_.clear();
    }

    /** Registered windows (read-only, for tests and reports). */
    const std::vector<CoreStallWindow> &coreStalls() const
    {
        return coreStalls_;
    }
    const std::vector<LinkDelayWindow> &linkDelays() const
    {
        return linkDelays_;
    }
    const std::vector<LlcSlowWindow> &llcSlows() const { return llcSlows_; }
    const std::vector<LockHolderFault> &lockFaults() const
    {
        return lockFaults_;
    }

    /** Multi-line human-readable summary of the plan and injections. */
    std::string describe() const;

    /**
     * Build a randomized-but-deterministic plan from @p plan_seed: a few
     * straggler cores, link congestion spikes, LLC slow banks and
     * lock-holder delays, all with windows inside [0, @p horizon).
     */
    static FaultPlan chaos(uint64_t plan_seed, const MachineConfig &cfg,
                           Cycles horizon = 200'000);

  private:
    std::vector<CoreStallWindow> coreStalls_;
    std::vector<LinkDelayWindow> linkDelays_;
    std::vector<LlcSlowWindow> llcSlows_;
    std::vector<LockHolderFault> lockFaults_;
    std::vector<uint64_t> lockAcquisitions_;
    InjectedStats injected_;
    uint64_t seed_ = 0; ///< the seed chaos() was built from (0 if hand-built)
};

} // namespace spmrt

#endif // SPMRT_SIM_FAULT_HPP
