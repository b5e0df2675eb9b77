#include "mem/noc.hpp"

#include "sim/fault.hpp"

namespace spmrt {

MeshNoc::MeshNoc(const MachineConfig &cfg) : cfg_(cfg)
{
    // Core-array nodes own all links, including the exit links toward the
    // LLC rows (a row-0 node's north link reaches the top LLC row).
    links_.assign(static_cast<size_t>(cfg_.meshCols) * cfg_.meshRows *
                      kNumDirs,
                  LinkState{});
    buildStepTables();
}

void
MeshNoc::linkCoords(size_t index, uint32_t &x, uint32_t &y,
                    uint32_t &dir) const
{
    dir = static_cast<uint32_t>(index % kNumDirs);
    uint32_t node = static_cast<uint32_t>(index / kNumDirs);
    x = node % cfg_.meshCols;
    y = node / cfg_.meshCols;
}

obs::Heatmap
MeshNoc::linkHeatmap() const
{
    obs::Heatmap map;
    map.labelColumn = "link";
    map.columns = {"x", "y", "dir", "flits", "wait_cycles", "backlog"};
    for (size_t i = 0; i < links_.size(); ++i) {
        uint32_t x, y, dir;
        linkCoords(i, x, y, dir);
        map.addRow(linkName(i),
                   {x, y, dir, links_[i].flits, links_[i].waitCycles,
                    links_[i].server.backlogUnits()});
    }
    return map;
}

std::string
MeshNoc::linkName(size_t index) const
{
    static const char *kDirNames[kNumDirs] = {"E",  "W",  "N",  "S",
                                              "RE", "RW", "RN", "RS"};
    uint32_t dir = index % kNumDirs;
    uint32_t node = static_cast<uint32_t>(index / kNumDirs);
    uint32_t x = node % cfg_.meshCols;
    uint32_t y = node / cfg_.meshCols;
    return log::format("(%u,%u)%s", x, y, kDirNames[dir]);
}

void
MeshNoc::reset()
{
    for (LinkState &link : links_) {
        link.server.reset();
        link.flits = 0;
        link.waitCycles = 0;
    }
    linkCyclesUsed_ = 0;
    packets_ = 0;
    walkedTraversals_ = 0;
    // The step tables are pure topology; they survive a reset.
}

void
MeshNoc::buildStepTables()
{
    const uint32_t cols = cfg_.meshCols;
    const int32_t rows = static_cast<int32_t>(cfg_.meshRows);

    // --- X hops (dimension-ordered routing goes X first), using ruche
    // (express) channels for long straights when configured. A link out
    // of node (x, y) has index (y * cols + x) * kNumDirs + dir, so the
    // step x * kNumDirs + dir plus the row base y * cols * kNumDirs
    // names it.
    xSteps_.assign(static_cast<size_t>(cols) * cols, StepRange{});
    for (uint32_t sx = 0; sx < cols; ++sx) {
        for (uint32_t dx = 0; dx < cols; ++dx) {
            StepRange &range = xSteps_[static_cast<size_t>(sx) * cols + dx];
            range.offset = static_cast<uint32_t>(steps_.size());
            uint32_t x = sx;
            while (x != dx) {
                uint32_t dist = x < dx ? dx - x : x - dx;
                bool east = x < dx;
                if (cfg_.rucheX > 1 && dist >= cfg_.rucheX) {
                    steps_.push_back(x * kNumDirs +
                                     (east ? kRucheEast : kRucheWest));
                    x = east ? x + cfg_.rucheX : x - cfg_.rucheX;
                } else {
                    steps_.push_back(x * kNumDirs + (east ? kEast : kWest));
                    x = east ? x + 1 : x - 1;
                }
            }
            range.count = static_cast<uint32_t>(steps_.size()) - range.offset;
        }
    }

    // --- Then the Y hops, from a core row to any endpoint row, possibly
    // exiting the core array at the top (y = -1) or bottom (y =
    // meshRows) to reach an LLC bank. Y express links exist only between
    // core-array rows, so the hop is taken only when the landing row
    // stays inside the array; the exit hop toward an LLC row is always a
    // single link, charged on the edge core node's N/S link. The step
    // row * cols * kNumDirs + dir plus the column base x * kNumDirs
    // names the link.
    ySteps_.assign(static_cast<size_t>(rows) * (rows + 2), StepRange{});
    for (int32_t sy = 0; sy < rows; ++sy) {
        for (int32_t dy = -1; dy <= rows; ++dy) {
            StepRange &range = ySteps_[static_cast<size_t>(sy) * (rows + 2) +
                                       static_cast<size_t>(dy + 1)];
            range.offset = static_cast<uint32_t>(steps_.size());
            int32_t y = sy;
            while (y != dy) {
                bool north = y > dy;
                uint32_t dist = static_cast<uint32_t>(north ? y - dy : dy - y);
                int32_t landing = north
                                      ? y - static_cast<int32_t>(cfg_.rucheY)
                                      : y + static_cast<int32_t>(cfg_.rucheY);
                uint32_t link_row;
                uint32_t dir;
                if (cfg_.rucheY > 1 && dist >= cfg_.rucheY && landing >= 0 &&
                    landing < rows) {
                    link_row = static_cast<uint32_t>(y);
                    dir = north ? kRucheNorth : kRucheSouth;
                    y = landing;
                } else {
                    link_row = static_cast<uint32_t>(
                        north ? (y > 0 ? y : 0)
                              : (y < rows - 1 ? y : rows - 1));
                    dir = north ? kNorth : kSouth;
                    y += north ? -1 : 1;
                }
                steps_.push_back(link_row * cols * kNumDirs + dir);
            }
            range.count = static_cast<uint32_t>(steps_.size()) - range.offset;
        }
    }
}

template <bool kLinkDelays>
Cycles
MeshNoc::route(const StepRange &xr, LinkState *row, const StepRange &yr,
               LinkState *column, Cycles start, uint32_t flits)
{
    const uint32_t *xs = steps_.data() + xr.offset;
    const uint32_t *ys = steps_.data() + yr.offset;
    Cycles t = start;
    auto charge = [&](LinkState &state) {
        const Cycles arrival = t;
        Cycles wait = state.server.charge(t, flits);
        state.flits += flits;
        state.waitCycles += wait;
        t += wait + MachineConfig::kLinkLatency;
        if constexpr (kLinkDelays) {
            // The link's index names its source node, which is what a
            // link-delay window is keyed by.
            const size_t node =
                static_cast<size_t>(&state - links_.data()) / kNumDirs;
            t += fault_->linkDelay(node % cfg_.meshCols,
                                   node / cfg_.meshCols, arrival);
        }
    };
    for (uint32_t i = 0; i < xr.count; ++i)
        charge(row[xs[i]]);
    for (uint32_t i = 0; i < yr.count; ++i)
        charge(column[ys[i]]);
    linkCyclesUsed_ +=
        static_cast<uint64_t>(flits) * (xr.count + yr.count);

    // Tail serialization: the body flits arrive one per cycle behind the
    // head.
    return t + (flits - 1);
}

Cycles
MeshNoc::traverse(const NocEndpoint &src, const NocEndpoint &dst,
                  Cycles start, uint32_t payload_bytes)
{
    ++packets_;
    const uint32_t flits =
        1 + divCeil(payload_bytes, MachineConfig::kFlitBytes);

    // Injection starts at a core-array node. LLC endpoints never originate
    // traffic in this model (responses are charged by the caller with the
    // roles swapped), so clamp the walking row into the core array.
    uint32_t x = src.x;
    int32_t y = src.y;
    if (y < 0)
        y = 0;
    if (y >= static_cast<int32_t>(cfg_.meshRows))
        y = static_cast<int32_t>(cfg_.meshRows) - 1;

    const StepRange &xr =
        xSteps_[static_cast<size_t>(x) * cfg_.meshCols + dst.x];
    const StepRange &yr =
        ySteps_[static_cast<size_t>(y) * (cfg_.meshRows + 2) +
                static_cast<size_t>(dst.y + 1)];
    LinkState *row = links_.data() +
                     static_cast<size_t>(y) * cfg_.meshCols * kNumDirs;
    LinkState *column = links_.data() + static_cast<size_t>(dst.x) * kNumDirs;

    // A plan with link-delay windows is queried on every hop — even
    // outside the windows — so injected timing can never be skipped.
    if (fault_ != nullptr && fault_->hasLinkDelays()) {
        ++walkedTraversals_;
        return route<true>(xr, row, yr, column, start, flits);
    }
    return route<false>(xr, row, yr, column, start, flits);
}

} // namespace spmrt
