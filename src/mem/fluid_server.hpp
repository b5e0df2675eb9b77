/**
 * @file
 * Fluid-approximation queueing server used by every shared resource in
 * the memory system (mesh links, SPM ports, LLC banks, DRAM channels).
 *
 * Each resource drains a backlog at a fixed rate (units per cycle); a
 * request arriving at time t first drains the backlog for the elapsed
 * time, waits behind whatever remains, then deposits its own service
 * units. This models contention and saturation (backlog grows without
 * bound while the offered rate exceeds the drain rate — the hot-spot
 * behaviour behind the paper's Fig. 5) while being robust to the
 * slightly out-of-time-order reservations a one-pass timing walk makes:
 * a next-free-time scalar would let a packet reserved at t+RTT falsely
 * block packets at t+1, compounding into convoys.
 */

#ifndef SPMRT_MEM_FLUID_SERVER_HPP
#define SPMRT_MEM_FLUID_SERVER_HPP

#include "common/log.hpp"
#include "common/types.hpp"

namespace spmrt {

/**
 * Single queueing station draining @c rate units per cycle (the DRAM
 * channels, whose rate is the configured bytes per cycle).
 */
class FluidServer
{
  public:
    explicit FluidServer(uint32_t rate = 1) : rate_(rate)
    {
        SPMRT_ASSERT(rate > 0, "server rate must be positive");
    }

    /**
     * Account @p units of service arriving at time @p t.
     * @return the queueing delay this request sees (its own service time
     *         is not included).
     */
    Cycles
    charge(Cycles t, uint64_t units)
    {
        if (t > anchor_) {
            uint64_t drained = (t - anchor_) * rate_;
            backlog_ = backlog_ > drained ? backlog_ - drained : 0;
            anchor_ = t;
        }
        Cycles delay = backlog_ / rate_;
        backlog_ += units;
        return delay;
    }

    /** Current backlog in service units (diagnostics). */
    uint64_t backlogUnits() const { return backlog_; }

    /** Forget all state. */
    void
    reset()
    {
        anchor_ = 0;
        backlog_ = 0;
    }

  private:
    uint32_t rate_;
    Cycles anchor_ = 0;
    uint64_t backlog_ = 0;
};

/**
 * FluidServer at rate 1 (one unit per cycle): mesh links, SPM ports and
 * LLC banks. The arithmetic is FluidServer's with the rate folded away,
 * so a charge needs no multiply or divide and the state is 16 bytes.
 */
class UnitFluidServer
{
  public:
    /** As FluidServer::charge at rate 1. */
    Cycles
    charge(Cycles t, uint64_t units)
    {
        if (t > anchor_) {
            uint64_t drained = t - anchor_;
            backlog_ = backlog_ > drained ? backlog_ - drained : 0;
            anchor_ = t;
        }
        Cycles delay = backlog_;
        backlog_ += units;
        return delay;
    }

    /** Current backlog in service units (diagnostics). */
    uint64_t backlogUnits() const { return backlog_; }

    /** Forget all state. */
    void
    reset()
    {
        anchor_ = 0;
        backlog_ = 0;
    }

  private:
    Cycles anchor_ = 0;
    uint64_t backlog_ = 0;
};

} // namespace spmrt

#endif // SPMRT_MEM_FLUID_SERVER_HPP
