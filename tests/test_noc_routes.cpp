/**
 * @file
 * Property tests for the compiled NoC step tables.
 *
 * MeshNoc routes every packet through precomputed X and Y step lists.
 * The oracle here is an independent implementation of the same routing
 * rule: the per-hop walk, which decides each X-Y (and ruche express)
 * hop as it goes and keeps its own link state. For any (src, dst, time,
 * payload) sequence both must produce identical delivery times and link
 * statistics, because both charge the same links the same flits in the
 * same order. Under a FaultPlan with link-delay windows both query the
 * plan on every hop, so injected timing must match too — including for
 * packets straddling the edges of the delay windows.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.hpp"
#include "mem/fluid_server.hpp"
#include "mem/noc.hpp"
#include "sim/config.hpp"
#include "sim/fault.hpp"

namespace spmrt {
namespace {

/**
 * The per-hop routing walk, with its own link state: the oracle the
 * step tables are tested against. Links are indexed like
 * MeshNoc::linkFlits(), so the two instances' per-link counters compare
 * element for element.
 */
class WalkOracle
{
  public:
    explicit WalkOracle(const MachineConfig &cfg) : cfg_(cfg)
    {
        links_.assign(static_cast<size_t>(cfg_.meshCols) * cfg_.meshRows *
                          kNumDirs,
                      LinkState{});
    }

    /** Install (or clear, with nullptr) a fault plan consulted per hop. */
    void setFaultPlan(FaultPlan *plan) { fault_ = plan; }

    /** MeshNoc::traverse()'s contract, routed by the walk. */
    Cycles
    traverse(const NocEndpoint &src, const NocEndpoint &dst, Cycles start,
             uint32_t payload_bytes)
    {
        ++packets_;
        const uint32_t flits =
            1 + divCeil(payload_bytes, MachineConfig::kFlitBytes);
        int32_t y = src.y;
        if (y < 0)
            y = 0;
        if (y >= static_cast<int32_t>(cfg_.meshRows))
            y = static_cast<int32_t>(cfg_.meshRows) - 1;
        return traverseWalk(src.x, y, dst, start, flits);
    }

    uint64_t linkCyclesUsed() const { return linkCyclesUsed_; }
    uint64_t packetsRouted() const { return packets_; }

    std::vector<uint64_t>
    linkFlits() const
    {
        std::vector<uint64_t> flits(links_.size());
        for (size_t i = 0; i < links_.size(); ++i)
            flits[i] = links_[i].flits;
        return flits;
    }

    std::vector<uint64_t>
    linkWaitCycles() const
    {
        std::vector<uint64_t> waits(links_.size());
        for (size_t i = 0; i < links_.size(); ++i)
            waits[i] = links_[i].waitCycles;
        return waits;
    }

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

    struct LinkState
    {
        UnitFluidServer server;
        uint64_t flits = 0;
        uint64_t waitCycles = 0;
    };

    LinkState &
    link(uint32_t x, uint32_t y, Dir dir)
    {
        return links_[(static_cast<size_t>(y) * cfg_.meshCols + x) *
                          kNumDirs +
                      dir];
    }

    /** Charge one hop across the @p dir link out of (x, y). */
    Cycles
    hop(uint32_t x, uint32_t y, Dir dir, Cycles t, uint32_t flits)
    {
        LinkState &state = link(x, y, dir);
        Cycles wait = state.server.charge(t, flits);
        linkCyclesUsed_ += flits;
        state.flits += flits;
        state.waitCycles += wait;
        Cycles extra = fault_ != nullptr ? fault_->linkDelay(x, y, t) : 0;
        return t + wait + MachineConfig::kLinkLatency + extra;
    }

    Cycles
    traverseWalk(uint32_t x, int32_t y, const NocEndpoint &dst,
                 Cycles start, uint32_t flits)
    {
        Cycles t = start;

        // The routing decisions MeshNoc's step tables precompute, taken
        // hop by hop here.
        while (x != dst.x) {
            uint32_t dist = x < dst.x ? dst.x - x : x - dst.x;
            bool east = x < dst.x;
            if (cfg_.rucheX > 1 && dist >= cfg_.rucheX) {
                t = hop(x, static_cast<uint32_t>(y),
                        east ? kRucheEast : kRucheWest, t, flits);
                x = east ? x + cfg_.rucheX : x - cfg_.rucheX;
            } else {
                t = hop(x, static_cast<uint32_t>(y), east ? kEast : kWest,
                        t, flits);
                x = east ? x + 1 : x - 1;
            }
        }

        while (y != dst.y) {
            bool north = y > dst.y;
            uint32_t dist =
                static_cast<uint32_t>(north ? y - dst.y : dst.y - y);
            int32_t landing = north ? y - static_cast<int32_t>(cfg_.rucheY)
                                    : y + static_cast<int32_t>(cfg_.rucheY);
            if (cfg_.rucheY > 1 && dist >= cfg_.rucheY && landing >= 0 &&
                landing < static_cast<int32_t>(cfg_.meshRows)) {
                t = hop(x, static_cast<uint32_t>(y),
                        north ? kRucheNorth : kRucheSouth, t, flits);
                y = landing;
                continue;
            }
            uint32_t link_row = static_cast<uint32_t>(
                north ? (y > 0 ? y : 0)
                      : (y < static_cast<int32_t>(cfg_.meshRows) - 1
                             ? y
                             : static_cast<int32_t>(cfg_.meshRows) - 1));
            t = hop(x, link_row, north ? kNorth : kSouth, t, flits);
            y += north ? -1 : 1;
        }

        return t + (flits - 1);
    }

    MachineConfig cfg_;
    std::vector<LinkState> links_;
    uint64_t linkCyclesUsed_ = 0;
    uint64_t packets_ = 0;
    FaultPlan *fault_ = nullptr;
};

/** Deterministic 64-bit mix (splitmix64) — no global RNG state. */
uint64_t
mix64(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Every endpoint of @p cfg: all cores plus all LLC banks. */
std::vector<NocEndpoint>
allEndpoints(const MachineConfig &cfg, MeshNoc &noc)
{
    std::vector<NocEndpoint> points;
    for (CoreId id = 0; id < cfg.numCores(); ++id)
        points.push_back(noc.coreEndpoint(id));
    for (uint32_t bank = 0; bank < cfg.llcBanks; ++bank)
        points.push_back(noc.bankEndpoint(bank));
    return points;
}

/** One random packet drawn from @p state. */
struct Packet
{
    size_t src;
    size_t dst;
    Cycles start;
    uint32_t payload;
};

std::vector<Packet>
makeTraffic(uint64_t seed, size_t num_endpoints, size_t count)
{
    std::vector<Packet> traffic;
    uint64_t state = seed;
    Cycles t = 0;
    for (size_t i = 0; i < count; ++i) {
        Packet p;
        p.src = mix64(state) % num_endpoints;
        p.dst = mix64(state) % num_endpoints;
        // Mostly advancing time with occasional same-cycle bursts, so
        // link backlogs both build and drain.
        t += mix64(state) % 3;
        p.start = t;
        p.payload = 4u << (mix64(state) % 5); // 4..64 bytes
        traffic.push_back(p);
    }
    return traffic;
}

/** Both instances charged the same links the same flits and waits. */
void
expectSameLinkState(const MeshNoc &compiled, const WalkOracle &walked)
{
    EXPECT_EQ(compiled.linkCyclesUsed(), walked.linkCyclesUsed());
    EXPECT_EQ(compiled.packetsRouted(), walked.packetsRouted());
    EXPECT_EQ(compiled.linkFlits(), walked.linkFlits());
    EXPECT_EQ(compiled.linkWaitCycles(), walked.linkWaitCycles());
}

/**
 * Drive identical traffic through a MeshNoc and the walk oracle (same
 * optional fault plan on both) and require identical delivery times and
 * link statistics.
 */
void
expectEquivalent(const MachineConfig &cfg, uint64_t seed, FaultPlan *plan)
{
    MeshNoc compiled(cfg);
    WalkOracle walked(cfg);
    // Each instance needs its own plan object: the plan accumulates
    // injected-delay totals as it is queried.
    FaultPlan plan_copy;
    if (plan != nullptr) {
        plan_copy = *plan;
        compiled.setFaultPlan(plan);
        walked.setFaultPlan(&plan_copy);
    }

    std::vector<NocEndpoint> points = allEndpoints(cfg, compiled);
    for (const Packet &p : makeTraffic(seed, points.size(), 400)) {
        Cycles a = compiled.traverse(points[p.src], points[p.dst], p.start,
                                     p.payload);
        Cycles b = walked.traverse(points[p.src], points[p.dst], p.start,
                                   p.payload);
        ASSERT_EQ(a, b) << "delivery time diverged (seed " << seed << ")";
    }
    expectSameLinkState(compiled, walked);
}

/**
 * Every core to every LLC bank and back — the request and response legs
 * of each DRAM access — on a MeshNoc and the walk oracle, requiring
 * identical delivery times and link statistics.
 */
void
expectBankSweepEquivalent(const MachineConfig &cfg)
{
    MeshNoc compiled(cfg);
    WalkOracle walked(cfg);
    Cycles t = 0;
    for (CoreId id = 0; id < cfg.numCores(); ++id) {
        const NocEndpoint core = compiled.coreEndpoint(id);
        for (uint32_t bank = 0; bank < cfg.llcBanks; ++bank) {
            const NocEndpoint llc = compiled.bankEndpoint(bank);
            ASSERT_EQ(compiled.traverse(core, llc, t, 4),
                      walked.traverse(core, llc, t, 4))
                << "core " << id << " -> bank " << bank;
            ASSERT_EQ(compiled.traverse(llc, core, t + 1, 64),
                      walked.traverse(llc, core, t + 1, 64))
                << "bank " << bank << " -> core " << id;
            t += bank % 2; // same-cycle pairs build backlog
        }
    }
    expectSameLinkState(compiled, walked);
}

TEST(NocRoutes, CompiledMatchesWalkAcrossSeeds)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        expectEquivalent(MachineConfig::tiny(), seed, nullptr);
        expectEquivalent(MachineConfig::small(), seed, nullptr);
    }
}

TEST(NocRoutes, CompiledMatchesWalkOnFullMachine)
{
    expectEquivalent(MachineConfig{}, 11, nullptr); // 16x8, ruche 3
}

/** The free-geometry matrix: wide, tall, Y-ruched, asymmetric-LLC and
 *  stacked-bank machines. Every shape the config layer admits must keep
 *  the compiled tables bit-equal to the per-hop walk — the route
 *  compiler and the walker share no generalized-placement code beyond
 *  MachineConfig's helpers, so this is the test that catches one of
 *  them hard-coding the paper's floorplan. */
TEST(NocRoutes, CompiledMatchesWalkAcrossGeometries)
{
    struct Shape
    {
        uint32_t cols, rows, rucheX, rucheY, banks;
        LlcPlacement place;
    };
    const Shape shapes[] = {
        {32, 2, 5, 0, 8, LlcPlacement::TopBottom},  // wide, long X ruche
        {2, 32, 0, 5, 4, LlcPlacement::TopBottom},  // tall, long Y ruche
        {16, 16, 3, 3, 32, LlcPlacement::TopBottom}, // big256 shape
        {8, 8, 2, 2, 8, LlcPlacement::Top},          // one-edge LLC
        {8, 8, 3, 3, 8, LlcPlacement::Bottom},       // other edge
        {4, 4, 2, 2, 16, LlcPlacement::TopBottom},   // stacked banks
        {5, 7, 3, 4, 10, LlcPlacement::TopBottom},   // non-power-of-two
    };
    uint64_t seed = 21;
    for (const Shape &s : shapes) {
        MachineConfig cfg = MachineConfig::tiny();
        cfg.meshCols = s.cols;
        cfg.meshRows = s.rows;
        cfg.rucheX = s.rucheX;
        cfg.rucheY = s.rucheY;
        cfg.llcBanks = s.banks;
        cfg.llcPlacement = s.place;
        cfg.validate();
        expectEquivalent(cfg, seed++, nullptr);
    }
}

TEST(NocRoutes, CompiledMatchesWalkOn1024Cores)
{
    expectEquivalent(MachineConfig::big1024(), 31, nullptr);
}

TEST(NocRoutes, CoreBankSweepsMatchWalkOnEveryPreset)
{
    // Random traffic samples core<->bank pairs; this covers every one,
    // on every preset and on Y-ruched and one-edge LLC shapes.
    MachineConfig top = MachineConfig::small();
    top.llcPlacement = LlcPlacement::Top;
    top.llcBanks = 5;
    top.validate();
    MachineConfig bottom_ruche_y = MachineConfig::small();
    bottom_ruche_y.llcPlacement = LlcPlacement::Bottom;
    bottom_ruche_y.rucheY = 2;
    bottom_ruche_y.validate();
    const MachineConfig configs[] = {
        MachineConfig::tiny(),   MachineConfig::small(),
        MachineConfig::paper(),  MachineConfig::big256(),
        MachineConfig::big1024(), top,
        bottom_ruche_y,
    };
    for (const MachineConfig &cfg : configs) {
        SCOPED_TRACE(cfg.geometry());
        expectBankSweepEquivalent(cfg);
    }
}

TEST(NocRoutes, RucheYFaultWindowsStillMatchWalk)
{
    // Chaos plans carry link-delay windows; a Y-ruched mesh must inject
    // identical delays on both sides (the Y express hop is charged on
    // the launching node, exactly like the X express hop).
    MachineConfig cfg = MachineConfig::small(); // 8x4
    cfg.rucheY = 2;
    cfg.validate();
    for (uint64_t plan_seed = 1; plan_seed <= 3; ++plan_seed) {
        FaultPlan plan = FaultPlan::chaos(plan_seed, cfg);
        expectEquivalent(cfg, 200 + plan_seed, &plan);
    }
}

TEST(NocRoutes, FaultMatrixMatchesWalkCycleForCycle)
{
    // Chaos plans include link-delay windows, so every hop queries the
    // plan; both sides must still agree exactly.
    for (uint64_t plan_seed = 1; plan_seed <= 6; ++plan_seed) {
        MachineConfig cfg = MachineConfig::small();
        FaultPlan plan = FaultPlan::chaos(plan_seed, cfg);
        expectEquivalent(cfg, 100 + plan_seed, &plan);
    }
}

TEST(NocRoutes, WindowEdgeStraddlesMatchWalk)
{
    // A hand-built window on the links out of (0, 0) — the injection
    // node, so the first hop is queried exactly at the injection time —
    // with packets just before the start, on the boundaries, and just
    // after the end: the off-by-one cases a cached route could get wrong.
    MachineConfig cfg = MachineConfig::small();
    const Cycles kStart = 50, kEnd = 90;
    FaultPlan plan;
    plan.delayLinks(0, 0, kStart, kEnd, 7);

    MeshNoc compiled(cfg);
    WalkOracle walked(cfg);
    FaultPlan plan_copy = plan;
    compiled.setFaultPlan(&plan);
    walked.setFaultPlan(&plan_copy);

    NocEndpoint src = compiled.coreEndpoint(0);
    NocEndpoint dst = compiled.coreEndpoint(3); // X path out of (0, 0)
    const Cycles probes[] = {kStart - 1, kStart, kStart + 1, kEnd - 1,
                             kEnd,       kEnd + 1};
    for (Cycles t : probes) {
        Cycles a = compiled.traverse(src, dst, t, 4);
        Cycles b = walked.traverse(src, dst, t, 4);
        EXPECT_EQ(a, b) << "at t=" << t;
    }
    // Both sides must have injected the same (non-zero) total delay.
    EXPECT_EQ(plan.injected().linkDelayCycles,
              plan_copy.injected().linkDelayCycles);
    EXPECT_GT(plan.injected().linkDelayCycles, 0u);
}

TEST(NocRoutes, FallbackEngagesAndDisengagesWithThePlan)
{
    MachineConfig cfg = MachineConfig::tiny();
    FaultPlan plan;
    plan.delayLinks(0, 0, 10, 20, 3);

    MeshNoc noc(cfg);
    NocEndpoint src = noc.coreEndpoint(0);
    NocEndpoint dst = noc.coreEndpoint(cfg.numCores() - 1);

    noc.traverse(src, dst, 0, 4);
    EXPECT_EQ(noc.packetsRouted(), 1u);
    EXPECT_EQ(noc.walkedTraversals(), 0u);

    // Installing a plan with link windows makes every hop query it —
    // even for packets entirely outside the window.
    noc.setFaultPlan(&plan);
    noc.traverse(src, dst, 1000, 4);
    EXPECT_EQ(noc.packetsRouted(), 2u);
    EXPECT_EQ(noc.walkedTraversals(), 1u);

    // A plan without link windows does not.
    FaultPlan no_links;
    no_links.stallCore(0, 0, 100, 2);
    noc.setFaultPlan(&no_links);
    noc.traverse(src, dst, 2000, 4);
    EXPECT_EQ(noc.packetsRouted(), 3u);
    EXPECT_EQ(noc.walkedTraversals(), 1u);

    // Clearing the plan stops the queries.
    noc.setFaultPlan(nullptr);
    noc.traverse(src, dst, 3000, 4);
    EXPECT_EQ(noc.packetsRouted(), 4u);
    EXPECT_EQ(noc.walkedTraversals(), 1u);
}

TEST(NocRoutes, ResetKeepsRoutesAndClearsCounters)
{
    MachineConfig cfg = MachineConfig::tiny();
    MeshNoc compiled(cfg);

    NocEndpoint src = compiled.coreEndpoint(0);
    NocEndpoint dst = compiled.coreEndpoint(cfg.numCores() - 1);
    compiled.traverse(src, dst, 0, 16);

    compiled.reset();
    EXPECT_EQ(compiled.packetsRouted(), 0u);

    // Routes compiled before the reset must still match a fresh walk.
    WalkOracle walked(cfg);
    Cycles a = compiled.traverse(src, dst, 5, 16);
    Cycles b = walked.traverse(src, dst, 5, 16);
    EXPECT_EQ(a, b);
    expectSameLinkState(compiled, walked);
}

} // namespace
} // namespace spmrt
