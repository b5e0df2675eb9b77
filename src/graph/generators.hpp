/**
 * @file
 * Synthetic graph generators standing in for the paper's inputs.
 *
 * The paper evaluates on synthetic graphs named gSkD (2^S vertices, average
 * degree D, e.g. g14k16, g18k8, u16k32) and on SuiteSparse matrices treated
 * as graphs (email-*, c-58, bundle1). We cannot redistribute the real
 * inputs, so we generate structural stand-ins (see DESIGN.md Sec. 2):
 *
 *  - uniformRandom: Erdos-Renyi-style, degree concentration around the
 *    mean -> balanced work per vertex (the gSkD family);
 *  - powerLaw: Zipf-distributed out-degrees -> heavy-tailed row lengths
 *    like the email-* communication graphs (drives load imbalance);
 *  - banded: narrow structural band like the c-58 stiffness matrix.
 *
 * The bundle1 stand-in is a matrix, genCsrBundle (matrix/generators.hpp).
 */

#ifndef SPMRT_GRAPH_GENERATORS_HPP
#define SPMRT_GRAPH_GENERATORS_HPP

#include "graph/csr.hpp"

namespace spmrt {

/**
 * Inverse-CDF lookup over a non-decreasing cumulative weight table.
 * find(u) returns exactly what std::lower_bound returns: the first rank
 * k with cumulative[k] >= u, or the table size if there is none. A guide
 * of one bucket per entry records where each bucket's lower edge falls;
 * a query scans forward from its bucket's guide, so a sample costs
 * expected O(1) instead of a binary search. The scan's answer is
 * returned only if it meets lower_bound's definition (cumulative[k] >= u
 * and, for k > 0, cumulative[k-1] < u); otherwise find() runs the full
 * search, so no rounding in the bucket index can change a result.
 */
class CdfGuide
{
  public:
    explicit CdfGuide(std::vector<double> cumulative);

    uint32_t find(double u) const;

  private:
    std::vector<double> cumulative_;
    std::vector<uint32_t> guide_; ///< lower_bound of each bucket's edge
    double scale_ = 0;            ///< buckets per unit of weight
};

/** Uniform random graph: @p avg_degree out-edges per vertex. */
HostGraph genUniformRandom(uint32_t num_vertices, uint32_t avg_degree,
                           uint64_t seed);

/**
 * Power-law graph: both endpoints Zipf-distributed with exponent
 * @p alpha, rescaled to the requested average degree. alpha ~ 0.8-1.2
 * gives email-like skew. Heavy vertices keep low ids and therefore
 * cluster — like crawl-ordered real graphs, and the worst case for
 * statically chunked loops.
 */
HostGraph genPowerLaw(uint32_t num_vertices, uint32_t avg_degree,
                      double alpha, uint64_t seed);

/** Banded graph/matrix: edges only within +-bandwidth of the diagonal. */
HostGraph genBanded(uint32_t num_vertices, uint32_t bandwidth,
                    uint32_t avg_degree, uint64_t seed);

} // namespace spmrt

#endif // SPMRT_GRAPH_GENERATORS_HPP
