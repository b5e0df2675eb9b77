/**
 * @file
 * Simulated machine configuration.
 *
 * Defaults mirror the paper's evaluation platform (Sec. 5.1): a 16x8 mesh of
 * 128 cores at an implied 1.5 GHz, 4 KB of scratchpad per core with 2-cycle
 * access latency, 32 LLC banks along the top and bottom mesh rows, and a
 * single HBM2 channel with ~16 GB/s of bandwidth (~10.7 bytes per core
 * cycle).
 *
 * The per-access latencies, the flit width and the LLC line size are the
 * paper's fixed platform and are constants (kSpmLatency and friends).
 * Every topology dimension is a free, validated field: mesh shape, ruche
 * factors in X *and* Y, LLC bank count, sets, ways and edge placement,
 * DRAM channel count, per-channel bandwidth and capacity, and the SPM
 * window stride of the PGAS address map. validate() fail-fasts on
 * inconsistent machines; geometry() renders the canonical one-line spec
 * string recorded by the benches; key() spells out every field;
 * fromSpec()/fromEnv() parse the spec language back (presets plus
 * key=value overrides, see fromSpec()), so SPMRT_MACHINE can retarget any
 * bench without a recompile.
 */

#ifndef SPMRT_SIM_CONFIG_HPP
#define SPMRT_SIM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace spmrt {

/** Which mesh edges host the LLC banks. */
enum class LlcPlacement : uint8_t
{
    TopBottom, ///< first half on the top row (y = -1), rest on the bottom
    Top,       ///< all banks on the top virtual row (y = -1)
    Bottom     ///< all banks on the bottom virtual row (y = meshRows)
};

/**
 * Static description of the simulated manycore hardware.
 *
 * All timing parameters are expressed in core clock cycles. The struct is
 * plain data so tests and benches can freely produce scaled-down machines.
 */
struct MachineConfig
{
    /**
     * @name Fixed timing of the paper's platform (Sec. 5.1)
     * @{
     */
    /** Local scratchpad access latency (cycles). */
    static constexpr Cycles kSpmLatency = 2;
    /** Per-hop mesh link traversal latency (cycles). */
    static constexpr Cycles kLinkLatency = 1;
    /** Flit payload width in bytes (one link-cycle of occupancy per flit). */
    static constexpr uint32_t kFlitBytes = 4;
    /** LLC line size in bytes; also the largest single timed transfer. */
    static constexpr uint32_t kLlcLineBytes = 64;
    /** LLC bank access (tag + data) latency in cycles. */
    static constexpr Cycles kLlcLatency = 4;
    /** Serialization interval of one bank (cycles per request). */
    static constexpr Cycles kLlcBankOccupancy = 1;
    /** DRAM fixed access latency in cycles (row activation etc.). */
    static constexpr Cycles kDramLatency = 60;
    /** @} */

    static_assert(kFlitBytes >= 1, "zero flit bytes");
    static_assert(kLlcLineBytes >= 1 &&
                      (kLlcLineBytes & (kLlcLineBytes - 1)) == 0,
                  "LLC line size must be a power of two");

    /** Mesh columns (X dimension). */
    uint32_t meshCols = 16;
    /** Mesh rows (Y dimension). */
    uint32_t meshRows = 8;

    /** Scratchpad bytes per core. */
    uint32_t spmBytes = 4096;
    /**
     * Address-space stride between consecutive cores' SPM windows (bytes,
     * power of two, >= spmBytes). The PGAS base addresses are derived
     * from it; see AddressMap.
     */
    uint32_t spmWindowBytes = 0x1000;

    /**
     * Ruche factor for the X dimension: long links that skip @c rucheX
     * routers, modelling HammerBlade's mesh-with-ruching. 0 disables.
     */
    uint32_t rucheX = 3;
    /**
     * Ruche factor for the Y dimension. Y express links exist only
     * between core-array rows (never into the virtual LLC rows), so the
     * exit hop toward an LLC bank is always a single link. 0 disables
     * (the paper's machine ruches only in X).
     */
    uint32_t rucheY = 0;

    /** Number of last-level cache banks. */
    uint32_t llcBanks = 32;
    /** Which mesh edges the banks sit on. */
    LlcPlacement llcPlacement = LlcPlacement::TopBottom;
    /** LLC associativity. */
    uint32_t llcWays = 8;
    /** LLC sets per bank. */
    uint32_t llcSetsPerBank = 64;

    /**
     * Per-channel DRAM bandwidth in bytes per core cycle; aggregate
     * bandwidth scales with dramChannels. 16 GB/s at 1.5 GHz is ~10.7;
     * we round to 10.
     */
    uint32_t dramBytesPerCycle = 10;
    /** Number of independent DRAM channels (line-interleaved). */
    uint32_t dramChannels = 1;
    /** Total simulated DRAM capacity in bytes. */
    uint64_t dramBytes = 256ull * 1024 * 1024;

    /** Host stack bytes for each simulated core's coroutine. */
    uint32_t hostStackBytes = 512 * 1024;

    /** Number of cores in the machine. */
    uint32_t numCores() const { return meshCols * meshRows; }

    /** X coordinate of core @p id (row-major numbering). */
    uint32_t coreX(CoreId id) const { return id % meshCols; }
    /** Y coordinate of core @p id (row-major numbering). */
    uint32_t coreY(CoreId id) const { return id / meshCols; }
    /** Core id at mesh coordinate (x, y). */
    CoreId coreAt(uint32_t x, uint32_t y) const { return y * meshCols + x; }

    /** Number of mesh edges hosting LLC banks under llcPlacement. */
    uint32_t
    llcEdgeCount() const
    {
        return llcPlacement == LlcPlacement::TopBottom ? 2 : 1;
    }

    /**
     * Mesh X coordinate of LLC bank @p bank. Banks stripe across their
     * edge's columns left to right, wrapping when an edge carries more
     * banks than columns (stacked banks share a router node).
     */
    uint32_t
    llcBankX(uint32_t bank) const
    {
        uint32_t index = bank;
        if (llcPlacement == LlcPlacement::TopBottom) {
            uint32_t half = llcBanks / 2;
            index = bank < half ? bank : bank - half;
        }
        return index % meshCols;
    }

    /** Mesh Y coordinate of LLC bank @p bank (-1 = top virtual row,
     *  meshRows = bottom virtual row). */
    int32_t
    llcBankY(uint32_t bank) const
    {
        bool top = llcPlacement == LlcPlacement::Top ||
                   (llcPlacement == LlcPlacement::TopBottom &&
                    bank < llcBanks / 2);
        return top ? -1 : static_cast<int32_t>(meshRows);
    }

    /**
     * Derived PGAS layout: SPM windows start at kSpmBase and DRAM begins
     * at the fixed kDramBase unless the SPM region has grown past it, in
     * which case DRAM is pushed up to the next 64 KB boundary. Inline so
     * the mem layer can derive the same bases without linking sim code.
     */
    static constexpr uint64_t kSpmRegionBase = 0x1000'0000;
    static constexpr uint64_t kDefaultDramBase = 0x4000'0000;

    /** One past the last SPM window (64-bit; validate() bounds it). */
    uint64_t
    spmRegionEnd() const
    {
        return kSpmRegionBase +
               static_cast<uint64_t>(numCores()) * spmWindowBytes;
    }

    /** Derived base address of the DRAM region. */
    uint64_t
    dramBase() const
    {
        uint64_t end = spmRegionEnd();
        if (end <= kDefaultDramBase)
            return kDefaultDramBase;
        constexpr uint64_t kAlign = 0x1'0000;
        return (end + kAlign - 1) & ~(kAlign - 1);
    }

    /**
     * Fail-fast consistency check: throws std::runtime_error with a
     * "machine config: ..." diagnostic naming the offending parameter on
     * any machine the models cannot faithfully simulate (zero
     * dimensions, ruche factor >= mesh dimension, LLC banks not
     * divisible across the chosen edges, SPM bytes exceeding the window
     * stride, non-power-of-two window, zero DRAM channels or bandwidth,
     * address-space overflow). Machine's constructor calls this on every
     * config it is handed, so a fleet job reports it as setup_failure
     * and an uncaught one ends a standalone run with the diagnostic.
     */
    void validate() const;

    /**
     * Canonical one-line geometry string, e.g.
     * "16x8-rx3-ry0-llc32tb-d1x10-spm4096w4096". Filename-safe; recorded
     * in every BENCH_host_perf.json row and tags per-geometry heatmap
     * exports. It names the topology only, not every field: use key()
     * where two machines must compare equal exactly when they simulate
     * alike.
     */
    std::string geometry() const;

    /**
     * Every field, in declaration order: the machine's part of a fleet
     * job's cache and quarantine key (FleetServer::specKeyFor). Two
     * configs that differ in any field must not share a key, so a new
     * field belongs here too.
     */
    std::string key() const;

    /**
     * Parse a machine spec: either a preset name (paper, big256,
     * big1024, tiny, small) or "<cols>x<rows>", optionally followed by
     * comma-separated key=value overrides (applicable after a preset
     * too): rx, ry (ruche factors), llc (bank count), place (tb|t|b),
     * ch (DRAM channels), bw (bytes/cycle/channel), spm (bytes/core),
     * win (SPM window stride), dramMB (DRAM capacity), stackKB (host
     * stack per core). E.g. "big256,ch=4" or "16x16,ry=2,llc=32,ch=2".
     * On success the parsed config is validate()d and returned through
     * @p out. On failure returns false with a one-line diagnostic in
     * @p error (validate()'s exception is not caught — a parseable but
     * inconsistent spec is a hard error by design).
     */
    static bool fromSpec(const char *text, MachineConfig &out,
                         std::string &error);

    /**
     * The SPMRT_MACHINE environment override: returns @p fallback when
     * the variable is unset, otherwise the parsed spec (fatal on a
     * malformed value — a typo must not silently run the default
     * machine).
     */
    static MachineConfig fromEnv(const MachineConfig &fallback);

    /** The paper's evaluation platform (identical to the defaults). */
    static MachineConfig
    paper()
    {
        return MachineConfig{};
    }

    /** A small machine for unit tests: 4x2 cores, tiny LLC. */
    static MachineConfig
    tiny()
    {
        MachineConfig cfg;
        cfg.meshCols = 4;
        cfg.meshRows = 2;
        // Audit: the paper default's rucheX = 3 used to be inherited
        // here, where a 4-wide mesh let it fire only on the single
        // full-width straight. A factor of 2 is the meaningful choice
        // at this scale (fires on distances 2 and 3).
        cfg.rucheX = 2;
        cfg.llcBanks = 4;
        cfg.llcSetsPerBank = 16;
        cfg.dramBytes = 64ull * 1024 * 1024;
        return cfg;
    }

    /** A mid-size machine for integration tests: 8x4 cores. */
    static MachineConfig
    small()
    {
        MachineConfig cfg;
        cfg.meshCols = 8;
        cfg.meshRows = 4;
        // Audit: explicit rather than inherited — 3 is meaningful on an
        // 8-wide mesh (express hops fire on distances 3..7).
        cfg.rucheX = 3;
        cfg.llcBanks = 8;
        cfg.llcSetsPerBank = 32;
        cfg.dramBytes = 128ull * 1024 * 1024;
        return cfg;
    }

    /** 256 cores: 16x16 mesh, ruche in both dimensions, 2 HBM channels. */
    static MachineConfig
    big256()
    {
        MachineConfig cfg;
        cfg.meshCols = 16;
        cfg.meshRows = 16;
        cfg.rucheX = 3;
        cfg.rucheY = 3;
        cfg.llcBanks = 32;
        cfg.dramChannels = 2;
        // 2x the cores of the paper machine; keep host RSS in check.
        cfg.hostStackBytes = 128 * 1024;
        return cfg;
    }

    /** 1024 cores: 32x32 mesh, 64 LLC banks, 4 HBM channels. */
    static MachineConfig
    big1024()
    {
        MachineConfig cfg;
        cfg.meshCols = 32;
        cfg.meshRows = 32;
        cfg.rucheX = 3;
        cfg.rucheY = 3;
        cfg.llcBanks = 64;
        cfg.dramChannels = 4;
        cfg.dramBytes = 512ull * 1024 * 1024;
        // 1024 coroutine stacks: 512 KB each would cost half a GB of
        // host memory before the workload runs.
        cfg.hostStackBytes = 128 * 1024;
        return cfg;
    }
};

} // namespace spmrt

#endif // SPMRT_SIM_CONFIG_HPP
