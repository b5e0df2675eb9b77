/**
 * @file
 * BFS: push/pull hybrid breadth-first search (static-unbalanced).
 *
 * Direction-optimizing traversal over a level-stamped frontier: one
 * array joinLevel[v] holds the level at which v was discovered (and is
 * therefore also the output distance). A vertex is in the current
 * frontier iff joinLevel[v] == level-1, so no per-level clearing pass or
 * separate visited array is needed. Push mode claims vertices with an
 * atomic fetch-min (exactly one claimer observes the unreached value);
 * pull mode has a single writer per vertex. Discoveries accumulate
 * 1 + degree into a census cell so sizing the next frontier and picking
 * the traversal direction costs one load per level.
 */

#ifndef SPMRT_WORKLOADS_BFS_HPP
#define SPMRT_WORKLOADS_BFS_HPP

#include "graph/csr.hpp"
#include "parallel/patterns.hpp"

namespace spmrt {
namespace workloads {

/** Distance value of unreached vertices (fits signed atomic min). */
constexpr uint32_t kBfsUnreached = 0x7fffffff;

/** Problem instance in simulated memory. */
struct BfsData
{
    SimGraph graph;
    Addr joinLevel = kNullAddr; ///< uint32[V]: discovery level == distance
    Addr edgeCount = kNullAddr; ///< uint32[2]: per-parity census cells
    uint32_t source = 0;
};

/** Upload the graph and allocate the traversal arrays. */
BfsData bfsSetup(Machine &machine, const HostGraph &graph,
                 uint32_t source);

/** Run the full traversal from data.source. */
void bfsKernel(TaskContext &tc, const BfsData &data);

/** Host reference distances (kBfsUnreached where unreachable). */
std::vector<uint32_t> bfsReference(const HostGraph &graph,
                                   uint32_t source);

/** Compare simulated distances against the reference. */
bool bfsVerify(Machine &machine, const BfsData &data,
               const HostGraph &graph);

} // namespace workloads
} // namespace spmrt

#endif // SPMRT_WORKLOADS_BFS_HPP
