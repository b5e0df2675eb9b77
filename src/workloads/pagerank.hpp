/**
 * @file
 * PageRank: pull-based and vertex-centric (static-unbalanced).
 *
 * Each iteration runs six parallel kernels (the decomposition measured in
 * the paper's Fig. 6): K1 computes per-vertex contributions, K2 pulls and
 * sums over in-neighbors (the nested, imbalance-prone loop), K3 applies
 * the damping update, K4 reduces the L1 error, K5 commits the new ranks,
 * and K6 resets the accumulators.
 */

#ifndef SPMRT_WORKLOADS_PAGERANK_HPP
#define SPMRT_WORKLOADS_PAGERANK_HPP

#include <array>

#include "graph/csr.hpp"
#include "parallel/patterns.hpp"

namespace spmrt {
namespace workloads {

/** Number of parallel kernels in one iteration. */
constexpr uint32_t kPageRankKernels = 6;

/** Problem instance in simulated memory. */
struct PageRankData
{
    SimGraph graph;
    Addr rank = kNullAddr;    ///< float[V]
    Addr contrib = kNullAddr; ///< float[V]
    Addr sum = kNullAddr;     ///< float[V]
    Addr newRank = kNullAddr; ///< float[V]
    double damping = 0.85;
};

/** Upload the graph and allocate the rank arrays. */
PageRankData pagerankSetup(Machine &machine, const HostGraph &graph);

/**
 * One PageRank iteration (6 kernels); returns the L1 error. When
 * @p kernel_cycles is non-null, the per-kernel cycle deltas are recorded
 * there (for the Fig. 6 reproduction).
 */
double pagerankIteration(TaskContext &tc, const PageRankData &data,
                         std::array<Cycles, kPageRankKernels>
                             *kernel_cycles = nullptr);

/** Run @p iterations iterations. */
void pagerankKernel(TaskContext &tc, const PageRankData &data,
                    uint32_t iterations);

/** Host reference for @p iterations iterations. */
std::vector<double> pagerankReference(const HostGraph &graph,
                                      uint32_t iterations, double damping);

/** Compare simulated ranks against the host reference. */
bool pagerankVerify(Machine &machine, const PageRankData &data,
                    const HostGraph &graph, uint32_t iterations);

} // namespace workloads
} // namespace spmrt

#endif // SPMRT_WORKLOADS_PAGERANK_HPP
