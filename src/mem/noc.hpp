/**
 * @file
 * 2-D mesh on-chip network with dimension-ordered (X-Y) routing, optional
 * ruche (multi-hop express) channels in the X and Y dimensions, and
 * per-link occupancy tracking.
 *
 * The timing model is wormhole-like at a first order: a packet of F flits
 * loads every link on its path with F flit-cycles of service, and its
 * delivery time is start + hops * kLinkLatency + (F - 1) plus the queueing
 * delay of each link's fluid backlog (see fluid_server.hpp). Per-link
 * backlog is what creates the congestion gradient of the paper's Fig. 5
 * when many cores hammer one endpoint.
 *
 * Endpoints are mesh coordinates. LLC banks live on virtual rows above
 * (y = -1) and below (y = meshRows) the core array, matching HammerBlade's
 * floorplan of cache banks along the top and bottom edges.
 */

#ifndef SPMRT_MEM_NOC_HPP
#define SPMRT_MEM_NOC_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/fluid_server.hpp"
#include "obs/heatmap.hpp"
#include "sim/config.hpp"

namespace spmrt {

class FaultPlan;

/** A network endpoint in mesh coordinates. */
struct NocEndpoint
{
    uint32_t x;
    int32_t y; ///< -1 = top LLC row, meshRows = bottom LLC row
};

/**
 * Mesh network timing model.
 */
class MeshNoc
{
  public:
    explicit MeshNoc(const MachineConfig &cfg);

    /**
     * Route one packet from @p src to @p dst, reserving link occupancy.
     *
     * The hop sequence of a packet is a pure function of (src, dst) —
     * X-Y routing never consults time or occupancy — and it splits by
     * dimension: the X hops depend only on (src x, dst x) and run along
     * the source row, the Y hops only on (src row, dst row) and run
     * along the destination column. Every packet therefore replays two
     * precomputed step lists, adding the row (or column) base to each
     * step to get the link index, and touches only the live state
     * (fluid backlog, flit/wait counters) per hop. When the installed
     * FaultPlan carries link-delay windows, the same loop also asks the
     * plan for each hop's extra latency, keyed by the link's source node
     * and the hop's arrival time.
     *
     * @param src source endpoint.
     * @param dst destination endpoint.
     * @param start injection time (cycles).
     * @param payload_bytes packet payload (a header flit is added).
     * @return delivery (head-arrival + serialization) time at @p dst.
     */
    Cycles traverse(const NocEndpoint &src, const NocEndpoint &dst,
                    Cycles start, uint32_t payload_bytes);

    /**
     * Packets routed while the installed plan had link-delay windows,
     * i.e. whose hops each queried FaultPlan::linkDelay() (diagnostics:
     * proves the per-hop fault queries engaged). The name predates the
     * single route loop, when these packets took a separate per-hop
     * walk; perfbench reports it as mem.noc.walked_traversals.
     */
    uint64_t walkedTraversals() const { return walkedTraversals_; }

    /** Endpoint of core @p id. */
    NocEndpoint
    coreEndpoint(CoreId id) const
    {
        return {cfg_.coreX(id), static_cast<int32_t>(cfg_.coreY(id))};
    }

    /** Endpoint of LLC bank @p bank (placement per the machine config:
     *  MachineConfig::llcBankX/llcBankY are the single source of truth). */
    NocEndpoint
    bankEndpoint(uint32_t bank) const
    {
        SPMRT_ASSERT(bank < cfg_.llcBanks, "bad LLC bank %u", bank);
        return {cfg_.llcBankX(bank), cfg_.llcBankY(bank)};
    }

    /** Total link-cycles of occupancy charged so far (diagnostics). */
    uint64_t linkCyclesUsed() const { return linkCyclesUsed_; }

    /** Total packets routed (diagnostics). */
    uint64_t packetsRouted() const { return packets_; }

    /** Forget all link occupancy (used between benchmark phases). */
    void reset();

    /** Install (or clear, with nullptr) a fault plan consulted per hop. */
    void setFaultPlan(FaultPlan *plan) { fault_ = plan; }

    /** Per-link cumulative flit counts (diagnostics snapshot; indexed
     *  like linkCoords). */
    std::vector<uint64_t>
    linkFlits() const
    {
        std::vector<uint64_t> flits(links_.size());
        for (size_t i = 0; i < links_.size(); ++i)
            flits[i] = links_[i].flits;
        return flits;
    }

    /** Per-link cumulative queueing-wait cycles (diagnostics snapshot). */
    std::vector<uint64_t>
    linkWaitCycles() const
    {
        std::vector<uint64_t> waits(links_.size());
        for (size_t i = 0; i < links_.size(); ++i)
            waits[i] = links_[i].waitCycles;
        return waits;
    }

    /** Number of links (rows of the occupancy heatmap). */
    size_t numLinks() const { return links_.size(); }

    /** Mesh coordinates and direction code (0..7 = E/W/N/S/RE/RW/RN/RS)
     *  of link @p index. */
    void linkCoords(size_t index, uint32_t &x, uint32_t &y,
                    uint32_t &dir) const;

    /**
     * Snapshot the per-link occupancy heatmap: one row per link with its
     * mesh coordinates, direction, cumulative flits, cumulative queueing
     * wait, and instantaneous backlog. Fig. 6's hot-spot picture is this
     * table rendered spatially.
     */
    obs::Heatmap linkHeatmap() const;

    /** Human-readable name of link @p index (diagnostics). */
    std::string linkName(size_t index) const;

  private:
    enum Dir : uint32_t
    {
        kEast = 0,
        kWest,
        kNorth,
        kSouth,
        kRucheEast,
        kRucheWest,
        kRucheNorth,
        kRucheSouth,
        kNumDirs
    };

    /**
     * Live state of one mesh link: its rate-1 fluid server and both
     * cumulative counters in one 32-byte record, aligned so two links
     * share a cache line and no link straddles two.
     */
    struct alignas(32) LinkState
    {
        UnitFluidServer server;
        uint64_t flits = 0;      ///< cumulative flits carried
        uint64_t waitCycles = 0; ///< cumulative queueing wait
    };
    static_assert(sizeof(LinkState) == 32, "a link must fill half a line");

    /** The hops one dimension contributes to a route: a slice of
     *  steps_. */
    struct StepRange
    {
        uint32_t offset = 0; ///< first step in steps_
        uint32_t count = 0;  ///< number of hops
    };

    /** Build both dimensions' step tables (constructor). */
    void buildStepTables();

    /**
     * Charge one packet of @p flits flits injected at @p start over the
     * @p xr hops along @p row and the @p yr hops along @p column. With
     * @p kLinkDelays each hop also pays the installed plan's link delay;
     * the packet-level choice keeps that query off the fault-free loop.
     */
    template <bool kLinkDelays>
    Cycles route(const StepRange &xr, LinkState *row, const StepRange &yr,
                 LinkState *column, Cycles start, uint32_t flits);

    MachineConfig cfg_;
    std::vector<LinkState> links_;
    /// X hops by [src x][dst x]; a step is the link index minus the
    /// source row's base.
    std::vector<StepRange> xSteps_;
    /// Y hops by [src core row][dst endpoint row + 1]; a step is the link
    /// index minus the destination column's base.
    std::vector<StepRange> ySteps_;
    std::vector<uint32_t> steps_; ///< shared pool of both tables' steps
    uint64_t linkCyclesUsed_ = 0;
    uint64_t packets_ = 0;
    uint64_t walkedTraversals_ = 0;
    FaultPlan *fault_ = nullptr;
};

} // namespace spmrt

#endif // SPMRT_MEM_NOC_HPP
