/**
 * @file
 * Compressed-sparse-row graphs: a host-side representation used for
 * generation and verification, and a simulated-memory image used by the
 * kernels under test.
 */

#ifndef SPMRT_GRAPH_CSR_HPP
#define SPMRT_GRAPH_CSR_HPP

#include <algorithm>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "sim/machine.hpp"

namespace spmrt {

/**
 * Host-resident directed graph in CSR form.
 */
struct HostGraph
{
    uint32_t numVertices = 0;
    std::vector<uint32_t> offsets; ///< size numVertices + 1
    std::vector<uint32_t> targets; ///< size numEdges

    uint64_t numEdges() const { return targets.size(); }

    uint32_t
    degree(uint32_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }

    /**
     * Build a CSR graph from an edge list (duplicates preserved), each
     * row's targets ascending: the CSR of the sorted pair list, built by
     * two stable counting passes instead of a comparison sort. The first
     * buckets each source under its target; transpose() then visits
     * those in-edge rows in ascending target order.
     */
    static HostGraph
    fromEdges(uint32_t num_vertices,
              std::vector<std::pair<uint32_t, uint32_t>> edges)
    {
        HostGraph reverse = bucketed(num_vertices, [&](auto emit) {
            for (const auto &[src, dst] : edges) {
                SPMRT_ASSERT(src < num_vertices && dst < num_vertices,
                             "edge (%u,%u) out of range", src, dst);
                emit(dst, src);
            }
        });
        // Free the pairs before transpose() allocates: the peak stays the
        // pairs plus one target array, as it was for std::sort.
        decltype(edges)().swap(edges);
        return reverse.transpose();
    }

    /**
     * The reverse graph (in-edges become out-edges). Sources are visited
     * in ascending order, so each reversed row comes out ascending.
     */
    HostGraph
    transpose() const
    {
        return bucketed(numVertices, [this](auto emit) {
            for (uint32_t v = 0; v < numVertices; ++v)
                for (uint32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
                    SPMRT_ASSERT(targets[e] < numVertices,
                                 "target %u out of range", targets[e]);
                    emit(targets[e], v);
                }
        });
    }

    /** Largest out-degree (a load-imbalance indicator). */
    uint32_t
    maxDegree() const
    {
        uint32_t max_degree = 0;
        for (uint32_t v = 0; v < numVertices; ++v)
            max_degree = std::max(max_degree, degree(v));
        return max_degree;
    }

  private:
    /**
     * The stable counting scatter behind both builds. @p visit(emit)
     * calls emit(row, value) once per edge in a fixed order; it runs
     * twice, once to count each row and once to place each value at its
     * row's cursor, so every row lists its values in visiting order.
     */
    template <typename Visit>
    static HostGraph
    bucketed(uint32_t num_vertices, Visit visit)
    {
        HostGraph graph;
        graph.numVertices = num_vertices;
        graph.offsets.assign(num_vertices + 1, 0);
        visit([&](uint32_t row, uint32_t) { ++graph.offsets[row + 1]; });
        for (uint32_t v = 0; v < num_vertices; ++v)
            graph.offsets[v + 1] += graph.offsets[v];
        graph.targets.resize(graph.offsets.back());
        std::vector<uint32_t> cursor(graph.offsets.begin(),
                                     graph.offsets.end() - 1);
        visit([&](uint32_t row, uint32_t value) {
            graph.targets[cursor[row]++] = value;
        });
        return graph;
    }
};

// The transfers below move a whole array per untimed MemorySystem access
// (one decode and bounds check, then one memcpy or memset), byte-identical
// to a peekAs/pokeAs per element. An array that fits in simulated DRAM
// fits the 32-bit access size.

/** Copy a host vector into simulated DRAM; returns its base address. */
template <typename T>
Addr
uploadArray(Machine &machine, const std::vector<T> &data)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t bytes = data.size() * sizeof(T);
    Addr base = machine.dramAlloc(bytes, 64);
    if (bytes > 0)
        machine.mem().poke(base, data.data(), static_cast<uint32_t>(bytes));
    return base;
}

/** Allocate a zero-filled simulated DRAM array of @p count T elements. */
template <typename T>
Addr
allocZeroArray(Machine &machine, uint64_t count)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t bytes = count * sizeof(T);
    Addr base = machine.dramAlloc(bytes, 64);
    // A real write: the range may reuse memory an earlier dramFree()
    // released.
    if (bytes > 0)
        machine.mem().fill(base, 0, static_cast<uint32_t>(bytes));
    return base;
}

/** Download a simulated DRAM array into a host vector. */
template <typename T>
std::vector<T>
downloadArray(Machine &machine, Addr base, uint64_t count)
{
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<T> data(count);
    if (count > 0)
        machine.mem().peek(base, data.data(),
                           static_cast<uint32_t>(count * sizeof(T)));
    return data;
}

/**
 * A graph uploaded into simulated DRAM (both directions, as pull-based
 * kernels need in-edges).
 */
struct SimGraph
{
    uint32_t numVertices = 0;
    uint32_t numEdges = 0;
    Addr outOffsets = kNullAddr;
    Addr outTargets = kNullAddr;
    Addr inOffsets = kNullAddr;
    Addr inTargets = kNullAddr;

    static SimGraph
    upload(Machine &machine, const HostGraph &graph)
    {
        HostGraph reverse = graph.transpose();
        SimGraph sim;
        sim.numVertices = graph.numVertices;
        sim.numEdges = static_cast<uint32_t>(graph.numEdges());
        sim.outOffsets = uploadArray(machine, graph.offsets);
        sim.outTargets = uploadArray(machine, graph.targets);
        sim.inOffsets = uploadArray(machine, reverse.offsets);
        sim.inTargets = uploadArray(machine, reverse.targets);
        return sim;
    }
};

} // namespace spmrt

#endif // SPMRT_GRAPH_CSR_HPP
