/**
 * @file
 * Global barrier used by the static runtime.
 *
 * Arrival is modelled faithfully (an atomic fetch-and-add on a DRAM
 * counter, so arrival traffic contends at the LLC); waiting is modelled as
 * the core parking until the last arrival, plus a broadcast latency. This
 * keeps idle cores from inflating dynamic-instruction counts with spin
 * loops — the static runtimes in the paper report low, stable instruction
 * counts, which parking reproduces.
 */

#ifndef SPMRT_RUNTIME_BARRIER_HPP
#define SPMRT_RUNTIME_BARRIER_HPP

#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "sim/machine.hpp"

namespace spmrt {

/**
 * A reusable global barrier over all cores of a machine.
 */
class SimBarrier
{
  public:
    /**
     * @param machine the machine (the counter is allocated in DRAM).
     * @param participants number of cores that join each episode.
     * @param broadcast_latency extra cycles from last arrival to release,
     *        modelling the wake-up notification crossing the chip.
     */
    SimBarrier(Machine &machine, uint32_t participants,
               Cycles broadcast_latency = 16)
        : machine_(machine), participants_(participants),
          broadcastLatency_(broadcast_latency),
          countAddr_(machine.dramAlloc(sizeof(uint32_t), 4))
    {
        machine_.mem().pokeAs<uint32_t>(countAddr_, 0);
    }

    /**
     * Join the barrier; returns once all @c participants have arrived.
     */
    void
    wait(Core &core)
    {
        uint32_t before = core.amoAddRelease(countAddr_, 1);
        if (before + 1 < participants_) {
            core.engine().block(core.id());
            // The wake-up notification is an acquire of the last
            // arrival's release below — without this edge every
            // cross-region data handoff would look racy to the checker.
            if (ConcurrencyChecker *ck = core.mem().checker())
                ck->onLoadSync(core.id(), countAddr_, 4);
            return;
        }
        // Last arrival: reset the counter and release everyone.
        core.store<uint32_t>(countAddr_, 0);
        core.fence();
        if (ConcurrencyChecker *ck = core.mem().checker())
            ck->onStoreRelease(core.id(), countAddr_);
        Cycles release = core.now() + broadcastLatency_;
        core.engine().advanceTo(core.id(), release);
        // Wake every participant but ourselves. The participant set is
        // cores [0, participants) by construction (all users barrier over
        // the whole machine), so no arrival list is needed.
        for (CoreId id = 0; id < participants_; ++id) {
            if (id != core.id())
                core.engine().unblock(id, release);
        }
        ++episodes_;
    }

    /** Completed barrier episodes (diagnostics). */
    uint64_t episodes() const { return episodes_; }

  private:
    Machine &machine_;
    uint32_t participants_;
    Cycles broadcastLatency_;
    Addr countAddr_;
    uint64_t episodes_ = 0;
};

} // namespace spmrt

#endif // SPMRT_RUNTIME_BARRIER_HPP
