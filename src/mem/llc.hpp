/**
 * @file
 * Banked, set-associative last-level cache timing model.
 *
 * The LLC is purely a *timing* structure: data always lives in the flat
 * functional DRAM backing store, and each bank tracks only tags, LRU state
 * and dirty bits. DRAM addresses are interleaved across banks at line
 * granularity. A miss charges a DRAM line fill (plus a write-back when the
 * victim is dirty) through the shared DRAM channel model, which is where
 * bandwidth saturation appears.
 */

#ifndef SPMRT_MEM_LLC_HPP
#define SPMRT_MEM_LLC_HPP

#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/dram.hpp"
#include "mem/fluid_server.hpp"
#include "obs/heatmap.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"

namespace spmrt {

/**
 * All LLC banks plus their interface to DRAM.
 */
class LlcModel
{
  public:
    LlcModel(const MachineConfig &cfg, DramModel &dram);

    /** Bank servicing DRAM byte offset @p dram_offset. */
    uint32_t
    bankOf(uint64_t dram_offset) const
    {
        const uint64_t line = dram_offset >> kLineShift;
        return static_cast<uint32_t>(pow2_ ? line & bankMask_
                                           : line % numBanks_);
    }

    /**
     * Access @p bytes at DRAM offset @p dram_offset through the LLC.
     *
     * Defined here so the hot lookup — bank charge, set index hash, tag
     * match — inlines into MemorySystem's DRAM paths; only the miss
     * (victim selection + DRAM fill) stays out of line.
     *
     * @param arrive time the request reaches the bank.
     * @param dram_offset byte offset within DRAM.
     * @param bytes access size (must not straddle a line).
     * @param is_store stores mark the line dirty.
     * @return time the bank can send the response.
     */
    Cycles
    access(Cycles arrive, uint64_t dram_offset, uint32_t bytes,
           bool is_store)
    {
        constexpr uint32_t kLine = MachineConfig::kLlcLineBytes;
        const uint64_t line = dram_offset >> kLineShift;
        SPMRT_ASSERT((dram_offset & (kLine - 1)) + bytes <= kLine,
                     "LLC access straddles a line boundary");
        // XOR-fold the upper address bits into the set index so regular
        // strides (e.g. the per-core 256 KB overflow stacks) don't all
        // land in one set — the index hashing any real LLC employs.
        // Power-of-two bank and set counts (every preset) take the same
        // arithmetic as shifts and masks.
        uint32_t bank;
        uint32_t index;
        uint64_t in_bank;
        if (pow2_) {
            bank = static_cast<uint32_t>(line & bankMask_);
            in_bank = line >> bankShift_;
            const uint64_t folded = in_bank ^ (in_bank >> setShift_) ^
                                    (in_bank >> (2 * setShift_));
            index = static_cast<uint32_t>(folded & setMask_);
        } else {
            bank = static_cast<uint32_t>(line % numBanks_);
            in_bank = line / numBanks_;
            const uint64_t folded = in_bank ^ (in_bank / setsPerBank_) ^
                                    (in_bank / setsPerBank_ / setsPerBank_);
            index = static_cast<uint32_t>(folded % setsPerBank_);
        }
        const uint32_t tag = static_cast<uint32_t>(
            pow2_ ? in_bank >> setShift_ : in_bank / setsPerBank_);

        // Serialize at the bank, then pay the tag/data pipeline latency.
        Cycles wait =
            banks_[bank].charge(arrive, MachineConfig::kLlcBankOccupancy);
        Cycles slow =
            fault_ != nullptr ? fault_->llcDelay(bank, arrive) : 0;
        Cycles done = arrive + wait + MachineConfig::kLlcLatency + slow;
        ++bankAccesses_[bank];
        bankWaitCycles_[bank] += wait;

        Way *ways = set(bank, index);
        ++useClock_;

        // Hit path (an invalid way's tag is kNoTag, which no line has).
        for (uint32_t w = 0; w < ways_; ++w) {
            if (ways[w].tag == tag) {
                ways[w].lastUse = useClock_;
                ways[w].lineDirty |= is_store ? 1u : 0u;
                ++hits_;
                ++bankHits_[bank];
                return done;
            }
        }
        return fill(done, bank, ways, tag, line, is_store);
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }

    /** Number of banks (rows of the contention heatmap). */
    uint32_t numBanks() const { return numBanks_; }

    /**
     * Snapshot the per-bank contention heatmap: one row per bank with its
     * cumulative accesses, hits, misses, and queueing wait at the bank
     * server.
     */
    obs::Heatmap bankHeatmap() const;

    /** Install (or clear, with nullptr) a fault plan consulted per access. */
    void setFaultPlan(FaultPlan *plan) { fault_ = plan; }

  private:
    /** Tag value of an invalid way; the constructor proves no line's
     *  tag reaches it. */
    static constexpr uint32_t kNoTag = ~uint32_t(0);

    /**
     * One way's tag state in 16 bytes. lastUse is 0 exactly when the
     * way is invalid: the use clock ticks before every lookup, so a
     * filled way always holds a positive stamp.
     */
    struct Way
    {
        uint64_t lastUse = 0;
        uint32_t tag = kNoTag;
        uint32_t lineDirty = 0; ///< line number << 1 | dirty bit
    };
    static_assert(sizeof(Way) == 16, "four ways per cache line");

    /** log2 of the line size (a power of two by static_assert). */
    static constexpr uint32_t kLineShift =
        floorLog2(MachineConfig::kLlcLineBytes);

    DramModel &dram_;
    uint32_t numBanks_;
    uint32_t setsPerBank_;
    uint32_t ways_;

    // Index arithmetic: banks and sets take the shift/mask path when
    // both are powers of two (pow2_).
    bool pow2_;
    uint32_t bankShift_ = 0;
    uint64_t bankMask_ = 0;
    uint32_t setShift_ = 0;
    uint64_t setMask_ = 0;

    std::vector<UnitFluidServer> banks_; ///< per-bank service queues
    std::vector<Way> tags_;        ///< [bank][set][way] flattened
    std::vector<uint64_t> bankAccesses_;
    std::vector<uint64_t> bankHits_;
    std::vector<uint64_t> bankMisses_;
    std::vector<uint64_t> bankWaitCycles_;
    uint64_t useClock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
    FaultPlan *fault_ = nullptr;

    Way *
    set(uint32_t bank, uint32_t index)
    {
        return &tags_[(static_cast<size_t>(bank) * setsPerBank_ + index) *
                      ways_];
    }

    /** Miss path: victim selection, write-back, DRAM line fill. */
    Cycles fill(Cycles done, uint32_t bank, Way *ways, uint32_t tag,
                uint64_t line, bool is_store);
};

} // namespace spmrt

#endif // SPMRT_MEM_LLC_HPP
