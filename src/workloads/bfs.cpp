#include "workloads/bfs.hpp"

#include <deque>

namespace spmrt {
namespace workloads {

BfsData
bfsSetup(Machine &machine, const HostGraph &graph, uint32_t source)
{
    BfsData data;
    data.graph = SimGraph::upload(machine, graph);
    data.source = source;
    std::vector<uint32_t> levels(graph.numVertices, kBfsUnreached);
    levels[source] = 0;
    data.joinLevel = uploadArray(machine, levels);
    data.edgeCount = allocZeroArray<uint32_t>(machine, 2);
    machine.mem().pokeAs<uint32_t>(data.edgeCount,
                                   1 + graph.degree(source));
    return data;
}

void
bfsKernel(TaskContext &tc, const BfsData &data)
{
    const SimGraph &graph = data.graph;
    const uint32_t num_vertices = graph.numVertices;
    // Direction-switch threshold: pull when the frontier touches more
    // than ~5% of the edges (the |E|/20 dense-mode rule of
    // direction-optimizing graph frameworks, simplified).
    const uint64_t flip_threshold = graph.numEdges / 20 + 1;
    Addr levels = data.joinLevel;

    // Traversal phases have degree-dependent per-vertex cost: use a fine
    // grain so heavy vertices can be isolated by stealing.
    ForOptions env;
    env.env.bytes = 28;
    env.env.wordsPerIter = 2;
    env.grain = 16;

    uint32_t level = 0;
    while (true) {
        // Census cells were filled by last level's discoveries.
        Addr count_cell = data.edgeCount + (level % 2) * 4;
        Addr next_cell = data.edgeCount + ((level + 1) % 2) * 4;
        uint32_t frontier_edges = tc.core().load<uint32_t>(count_cell);
        if (frontier_edges == 0)
            break;
        tc.core().store<uint32_t>(count_cell, 0); // reset for reuse
        ++level;

        if (static_cast<uint64_t>(frontier_edges) > flip_threshold) {
            // Pull (bottom-up): every unreached vertex scans in-edges
            // for a parent discovered in the previous level.
            parallelFor(
                tc, 0, num_vertices,
                [&graph, levels, next_cell, level](TaskContext &btc,
                                                   int64_t v) {
                    Core &core = btc.core();
                    Addr idx = static_cast<Addr>(v);
                    if (core.load<uint32_t>(levels + idx * 4) !=
                        kBfsUnreached)
                        return;
                    uint32_t begin =
                        core.load<uint32_t>(graph.inOffsets + idx * 4);
                    uint32_t end = core.load<uint32_t>(graph.inOffsets +
                                                       idx * 4 + 4);
                    for (uint32_t e = begin; e < end; ++e) {
                        uint32_t u =
                            core.load<uint32_t>(graph.inTargets + e * 4);
                        core.tick(1, 2);
                        if (core.load<uint32_t>(levels + u * 4) ==
                            level - 1) {
                            // Single writer per v in pull mode.
                            core.store<uint32_t>(levels + idx * 4,
                                                 level);
                            // In-degree approximates the census add.
                            core.amoAdd(next_cell, 1 + (end - begin));
                            break;
                        }
                    }
                },
                env);
        } else {
            // Push (top-down): frontier vertices claim neighbors with
            // an atomic fetch-min; exactly one claimer sees unreached.
            parallelFor(
                tc, 0, num_vertices,
                [&graph, levels, next_cell, level](TaskContext &btc,
                                                   int64_t v) {
                    Core &core = btc.core();
                    Addr idx = static_cast<Addr>(v);
                    if (core.load<uint32_t>(levels + idx * 4) !=
                        level - 1)
                        return;
                    uint32_t begin =
                        core.load<uint32_t>(graph.outOffsets + idx * 4);
                    uint32_t end = core.load<uint32_t>(graph.outOffsets +
                                                       idx * 4 + 4);
                    for (uint32_t e = begin; e < end; ++e) {
                        uint32_t w =
                            core.load<uint32_t>(graph.outTargets + e * 4);
                        core.tick(1, 2);
                        uint32_t old = core.amo(levels + w * 4,
                                                AmoOp::Min, level);
                        if (old == kBfsUnreached) {
                            uint32_t w_begin = core.load<uint32_t>(
                                graph.outOffsets + w * 4);
                            uint32_t w_end = core.load<uint32_t>(
                                graph.outOffsets + w * 4 + 4);
                            core.amoAdd(next_cell,
                                        1 + (w_end - w_begin));
                        }
                    }
                },
                env);
        }
    }
}

std::vector<uint32_t>
bfsReference(const HostGraph &graph, uint32_t source)
{
    std::vector<uint32_t> dist(graph.numVertices, kBfsUnreached);
    dist[source] = 0;
    std::deque<uint32_t> queue{source};
    while (!queue.empty()) {
        uint32_t v = queue.front();
        queue.pop_front();
        for (uint32_t e = graph.offsets[v]; e < graph.offsets[v + 1];
             ++e) {
            uint32_t w = graph.targets[e];
            if (dist[w] == kBfsUnreached) {
                dist[w] = dist[v] + 1;
                queue.push_back(w);
            }
        }
    }
    return dist;
}

bool
bfsVerify(Machine &machine, const BfsData &data, const HostGraph &graph)
{
    std::vector<uint32_t> expected = bfsReference(graph, data.source);
    std::vector<uint32_t> actual = downloadArray<uint32_t>(
        machine, data.joinLevel, graph.numVertices);
    for (uint32_t v = 0; v < graph.numVertices; ++v) {
        if (expected[v] != actual[v]) {
            SPMRT_WARN("bfs mismatch at %u: %u vs %u", v, expected[v],
                       actual[v]);
            return false;
        }
    }
    return true;
}

} // namespace workloads
} // namespace spmrt
