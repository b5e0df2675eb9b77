#include "mem/llc.hpp"

#include "sim/fault.hpp"

namespace spmrt {

LlcModel::LlcModel(const MachineConfig &cfg, DramModel &dram)
    : dram_(dram), numBanks_(cfg.llcBanks),
      setsPerBank_(cfg.llcSetsPerBank), ways_(cfg.llcWays),
      pow2_(isPowerOfTwo(cfg.llcBanks) && isPowerOfTwo(cfg.llcSetsPerBank))
{
    // Bank count vs. edge placement (even split across two edges, any
    // count on one) is MachineConfig::validate()'s job; the model itself
    // stripes lines over any nonzero bank count.
    SPMRT_ASSERT(numBanks_ >= 1, "LLC needs at least one bank");
    SPMRT_ASSERT(setsPerBank_ >= 1, "LLC needs at least one set per bank");
    if (pow2_) {
        bankShift_ = floorLog2(numBanks_);
        bankMask_ = numBanks_ - 1;
        setShift_ = floorLog2(setsPerBank_);
        setMask_ = setsPerBank_ - 1;
    }
    // The compact Way stores a 32-bit tag and a 31-bit line number.
    const uint64_t lines = cfg.dramBytes >> kLineShift;
    SPMRT_ASSERT(lines <= (uint64_t(1) << 31) &&
                     lines / numBanks_ / setsPerBank_ < kNoTag,
                 "%llu DRAM lines overflow the LLC way record",
                 static_cast<unsigned long long>(lines));
    banks_.assign(numBanks_, UnitFluidServer{});
    tags_.assign(static_cast<size_t>(numBanks_) * setsPerBank_ * ways_,
                 Way{});
    bankAccesses_.assign(numBanks_, 0);
    bankHits_.assign(numBanks_, 0);
    bankMisses_.assign(numBanks_, 0);
    bankWaitCycles_.assign(numBanks_, 0);
}

obs::Heatmap
LlcModel::bankHeatmap() const
{
    obs::Heatmap map;
    map.labelColumn = "bank";
    map.columns = {"accesses", "hits", "misses", "wait_cycles"};
    for (uint32_t b = 0; b < numBanks_; ++b)
        map.addRow(log::format("%02u", b),
                   {bankAccesses_[b], bankHits_[b], bankMisses_[b],
                    bankWaitCycles_[b]});
    return map;
}

Cycles
LlcModel::fill(Cycles done, uint32_t bank, Way *ways, uint32_t tag,
               uint64_t line, bool is_store)
{
    // Miss: pick an invalid way or evict the LRU way.
    ++misses_;
    ++bankMisses_[bank];
    uint32_t victim = 0;
    for (uint32_t w = 0; w < ways_; ++w) {
        if (ways[w].lastUse == 0) {
            victim = w;
            break;
        }
        if (ways[w].lastUse < ways[victim].lastUse)
            victim = w;
    }
    // An invalid way's dirty bit is clear, so this implies validity.
    if (ways[victim].lineDirty & 1u) {
        // Write-back occupies the DRAM bus but does not delay the fill's
        // critical path beyond the shared bus occupancy.
        dram_.access(done,
                     static_cast<uint64_t>(ways[victim].lineDirty >> 1)
                         << kLineShift,
                     MachineConfig::kLlcLineBytes);
        ++writebacks_;
    }
    Cycles filled =
        dram_.access(done, line << kLineShift, MachineConfig::kLlcLineBytes);
    ways[victim] = Way{useClock_, tag,
                       static_cast<uint32_t>(line << 1) | (is_store ? 1u : 0u)};
    return filled;
}

} // namespace spmrt
