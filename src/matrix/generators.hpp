/**
 * @file
 * Matrix generators mirroring the structure of the paper's inputs (see
 * graph/generators.hpp for the substitution rationale).
 */

#ifndef SPMRT_MATRIX_GENERATORS_HPP
#define SPMRT_MATRIX_GENERATORS_HPP

#include "common/rng.hpp"
#include "matrix/matrix.hpp"

namespace spmrt {

/**
 * Distinct uniform draws for one sparse row at a time. draw() pulls
 * values in [0, span) from @p rng until @p count distinct ones are
 * picked and returns them ascending: the same draws, stop rule and
 * order as inserting into a std::set until it holds @p count values.
 * A bitmap over the span, cleared again after every row, replaces the
 * set, and the picks are sorted once, so a row costs its draws plus one
 * sort of its columns.
 */
class DistinctDraws
{
  public:
    /** Draws over spans of at most @p max_span values. */
    explicit DistinctDraws(uint32_t max_span) : seen_(max_span, 0) {}

    /** @p count distinct values in [0, span), ascending (count <= span). */
    const std::vector<uint32_t> &draw(uint32_t count, uint32_t span,
                                      Xoshiro256StarStar &rng);

  private:
    std::vector<uint8_t> seen_;    ///< all clear between draws
    std::vector<uint32_t> picked_; ///< the last row's picks
};

/** Dense matrix with pseudo-random entries in [-1, 1). */
HostDense genDenseRandom(uint32_t rows, uint32_t cols, uint64_t seed);

/** Sparse matrix with a fixed nnz per row at random columns. */
HostCsr genCsrUniform(uint32_t rows, uint32_t cols, uint32_t nnz_per_row,
                      uint64_t seed);

/** Sparse matrix with Zipf-distributed row lengths ("email"-like skew). */
HostCsr genCsrPowerLaw(uint32_t rows, uint32_t cols, uint32_t avg_nnz,
                       double alpha, uint64_t seed);

/** Banded structural matrix ("c-58"-like). */
HostCsr genCsrBanded(uint32_t n, uint32_t bandwidth, uint32_t nnz_per_row,
                     uint64_t seed);

/**
 * Bundle-adjustment-like matrix: a minority of dense rows over a sparse
 * remainder ("bundle1"-like).
 */
HostCsr genCsrBundle(uint32_t rows, uint32_t cols, uint32_t dense_rows,
                     uint32_t dense_nnz, uint32_t sparse_nnz,
                     uint64_t seed);

} // namespace spmrt

#endif // SPMRT_MATRIX_GENERATORS_HPP
