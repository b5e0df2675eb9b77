/**
 * @file
 * Bandwidth-limited DRAM channel model.
 *
 * Each channel is a simple latency + occupancy server: a transfer of B
 * bytes holds the channel's data bus for ceil(B / bytesPerCycle) cycles and
 * completes a fixed access latency after it wins the bus. This reproduces
 * the two DRAM effects the paper's evaluation depends on: long access
 * latency relative to SPM, and saturation once aggregate demand exceeds the
 * single HBM2 channel's ~16 GB/s.
 */

#ifndef SPMRT_MEM_DRAM_HPP
#define SPMRT_MEM_DRAM_HPP

#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "mem/fluid_server.hpp"
#include "sim/config.hpp"

namespace spmrt {

/**
 * One or more DRAM channels with address-interleaved assignment.
 */
class DramModel
{
  public:
    explicit DramModel(const MachineConfig &cfg)
        : bytesPerCycle_(cfg.dramBytesPerCycle),
          channels_(cfg.dramChannels == 0 ? 1 : cfg.dramChannels,
                    FluidServer(cfg.dramBytesPerCycle)),
          channelBytes_(channels_.size(), 0)
    {
    }

    /**
     * Schedule a transfer of @p bytes belonging to DRAM line offset
     * @p line_offset (selects the channel) starting no earlier than
     * @p start.
     *
     * @return the completion time of the transfer.
     */
    Cycles
    access(Cycles start, uint64_t line_offset, uint32_t bytes)
    {
        size_t channel = channelOf(line_offset);
        Cycles wait = channels_[channel].charge(start, bytes);
        Cycles occupancy = divCeil<Cycles>(bytes, bytesPerCycle_);
        ++transfers_;
        bytesMoved_ += bytes;
        channelBytes_[channel] += bytes;
        return start + wait + occupancy + MachineConfig::kDramLatency;
    }

    /** Number of independent channels. */
    uint32_t
    numChannels() const
    {
        return static_cast<uint32_t>(channels_.size());
    }

    /** Channel serving DRAM offset @p line_offset (line-interleaved). */
    uint32_t
    channelOf(uint64_t line_offset) const
    {
        return static_cast<uint32_t>(
            (line_offset / MachineConfig::kLlcLineBytes) % channels_.size());
    }

    /** Bytes transferred through channel @p channel (diagnostics; shows
     *  whether line interleaving actually spreads the traffic). */
    uint64_t channelBytes(uint32_t channel) const
    {
        return channelBytes_[channel];
    }

    /** Current backlog of channel @p channel in bytes (diagnostics). */
    uint64_t channelBacklog(uint32_t channel) const
    {
        return channels_[channel].backlogUnits();
    }

    /** Total bytes transferred (diagnostics). */
    uint64_t bytesMoved() const { return bytesMoved_; }
    /** Total transfers performed (diagnostics). */
    uint64_t transfers() const { return transfers_; }

    /** Forget channel occupancy (used between benchmark phases). */
    void
    reset()
    {
        for (FluidServer &channel : channels_)
            channel.reset();
        for (uint64_t &bytes : channelBytes_)
            bytes = 0;
        bytesMoved_ = 0;
        transfers_ = 0;
    }

  private:
    uint32_t bytesPerCycle_;
    std::vector<FluidServer> channels_;
    std::vector<uint64_t> channelBytes_;
    uint64_t bytesMoved_ = 0;
    uint64_t transfers_ = 0;
};

} // namespace spmrt

#endif // SPMRT_MEM_DRAM_HPP
