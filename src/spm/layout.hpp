/**
 * @file
 * Per-core scratchpad layout, shared by the runtime and user code.
 *
 * Following the paper (Sec. 4), each 4 KB scratchpad is carved into three
 * regions. The task-queue region sits at the top of the SPM *at the same
 * offset on every core*, which is what lets a thief compute the address of
 * any victim's queue (and its spin lock) directly from the victim's core
 * id — no DRAM-resident pointer table is needed:
 *
 *   spmBase                                          spmBase + spmBytes
 *     | user (spm_reserve) | stack (grows down) | task queue | ctrl |
 *     ^ userReserve bytes    ^ whatever is left   ^ queueBytes ^ 8 B
 *
 * When the runtime is configured with the task queue in DRAM the queue
 * region is simply absent and the stack extends up to the control word.
 * The 8-byte control word always lives in SPM: it holds the runtime's
 * per-core termination flag, which idle workers poll locally instead of
 * hammering a shared DRAM location (core 0 broadcasts termination with
 * one remote store per core).
 */

#ifndef SPMRT_SPM_LAYOUT_HPP
#define SPMRT_SPM_LAYOUT_HPP

#include <stdexcept>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/address_map.hpp"
#include "sim/checker.hpp"
#include "sim/config.hpp"

namespace spmrt {

/**
 * Computes the region boundaries of every core's scratchpad.
 */
class SpmLayout
{
  public:
    /**
     * @param cfg machine description.
     * @param user_reserve bytes claimed by the application (spm_reserve).
     * @param queue_bytes bytes claimed by the runtime's task queue at the
     *        top of the SPM (0 when the queue lives in DRAM).
     */
    /** Bytes of the always-SPM runtime control word. */
    static constexpr uint32_t kCtrlBytes = 8;

    SpmLayout(const MachineConfig &cfg, uint32_t user_reserve,
              uint32_t queue_bytes)
        : spmBytes_(cfg.spmBytes),
          userReserve_(alignUp<uint32_t>(user_reserve, 8)),
          queueBytes_(alignUp<uint32_t>(queue_bytes, 8))
    {
        // A runtime constructor builds the layout on the host before the
        // first cycle: an overflow is a setup error a supervisor can
        // classify (uncaught, it ends the process with this message).
        if (userReserve_ + queueBytes_ + kCtrlBytes > spmBytes_)
            throw std::runtime_error(log::format(
                "SPM layout overflows: %u user + %u queue > %u",
                userReserve_, queueBytes_, spmBytes_));
        if (stackBytes() < 64)
            SPMRT_WARN("only %u bytes of SPM left for the stack",
                       stackBytes());
    }

    /** Offset of the user region (always 0). */
    uint32_t userOffset() const { return 0; }
    /** Bytes in the user region. */
    uint32_t userBytes() const { return userReserve_; }

    /** Offset of the stack region's low bound (overflow threshold). */
    uint32_t stackLowOffset() const { return userReserve_; }
    /** Offset one past the stack region's top (stacks grow down). */
    uint32_t
    stackTopOffset() const
    {
        return spmBytes_ - kCtrlBytes - queueBytes_;
    }
    /** Bytes available to the SPM stack. */
    uint32_t stackBytes() const { return stackTopOffset() - stackLowOffset(); }

    /** Offset of the task-queue region (same on every core). */
    uint32_t
    queueOffset() const
    {
        return spmBytes_ - kCtrlBytes - queueBytes_;
    }
    /** Bytes in the task-queue region. */
    uint32_t queueBytes() const { return queueBytes_; }

    /** Offset of the runtime control word (same on every core). */
    uint32_t ctrlOffset() const { return spmBytes_ - kCtrlBytes; }

    /** Absolute address helpers for core @p id. */
    Addr
    userBase(const AddressMap &map, CoreId id) const
    {
        return map.spmBase(id) + userOffset();
    }
    Addr
    stackLow(const AddressMap &map, CoreId id) const
    {
        return map.spmBase(id) + stackLowOffset();
    }
    Addr
    stackTop(const AddressMap &map, CoreId id) const
    {
        return map.spmBase(id) + stackTopOffset();
    }
    Addr
    queueBase(const AddressMap &map, CoreId id) const
    {
        SPMRT_ASSERT(queueBytes_ > 0, "no SPM queue region configured");
        return map.spmBase(id) + queueOffset();
    }
    Addr
    ctrlBase(const AddressMap &map, CoreId id) const
    {
        return map.spmBase(id) + ctrlOffset();
    }

    /**
     * Describe core @p id's SPM carving to the concurrency checker: the
     * stack span, the task-queue region (its spin lock sits at queue base
     * + 8, per QueueAddrs), and the control word. Region kinds label
     * violation reports and drive the per-kind write rules.
     */
    void
    registerRegions(ConcurrencyChecker &ck, const AddressMap &map,
                    CoreId id) const
    {
        ck.registerRegion(RegionKind::Stack, stackLow(map, id),
                          stackBytes(), id);
        if (queueBytes_ > 0)
            ck.registerRegion(RegionKind::Queue, queueBase(map, id),
                              queueBytes_, id, queueBase(map, id) + 8);
        ck.registerRegion(RegionKind::Ctrl, ctrlBase(map, id), kCtrlBytes,
                          id);
    }

  private:
    uint32_t spmBytes_;
    uint32_t userReserve_;
    uint32_t queueBytes_;
};

/**
 * The user-facing scratchpad allocator: the paper's spm_reserve() /
 * spm_malloc() pair for one core.
 *
 * spm_reserve() fixes the maximum amount of SPM the application will use
 * (done once, before the runtime claims the rest); spm_malloc() hands out
 * chunks of that reservation and returns kNullAddr on exhaustion — exactly
 * the failure contract described in Sec. 4.
 */
class SpmUserAllocator
{
  public:
    /** @param base absolute base of this core's user region.
     *  @param reserved bytes reserved via spm_reserve(). */
    SpmUserAllocator(Addr base, uint32_t reserved)
        : base_(base), reserved_(reserved)
    {
    }

    /**
     * Allocate @p bytes from the reservation.
     * @return scratchpad address, or kNullAddr when the reservation is
     *         exhausted.
     */
    Addr
    malloc(uint32_t bytes, uint32_t align = 8)
    {
        Addr candidate = alignUp<Addr>(base_ + used_, align);
        uint32_t end_offset = (candidate - base_) + bytes;
        if (end_offset > reserved_)
            return kNullAddr;
        used_ = end_offset;
        return candidate;
    }

  private:
    Addr base_;
    uint32_t reserved_;
    uint32_t used_ = 0;
};

} // namespace spmrt

#endif // SPMRT_SPM_LAYOUT_HPP
