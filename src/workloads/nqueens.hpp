/**
 * @file
 * NQueens: backtracking solution count (dynamic-unbalanced).
 *
 * Recursive parallel loops over candidate columns; every task copies the
 * partially filled board into its own stack frame before extending it —
 * the stack-heavy behaviour that makes NQueens the strongest beneficiary
 * of the SPM-allocated stack in the paper (and of keeping the whole SPM
 * for the stack).
 */

#ifndef SPMRT_WORKLOADS_NQUEENS_HPP
#define SPMRT_WORKLOADS_NQUEENS_HPP

#include "graph/csr.hpp" // sim array helpers
#include "parallel/patterns.hpp"

namespace spmrt {
namespace workloads {

/** Board sizes nqueensReference() knows the solution count of. */
constexpr uint32_t kNQueensMinN = 4;
constexpr uint32_t kNQueensMaxN = 12;

/** Problem instance in simulated memory. */
struct NQueensData
{
    uint32_t n = 0;
    Addr solutionCells = kNullAddr; ///< uint32[numCores], striped counters
    uint32_t cellStride = 64;       ///< bytes between counter cells
};

/** Allocate the striped solution counters. */
NQueensData nqueensSetup(Machine &machine, uint32_t n);

/** Count all placements (dynamic contexts only). */
void nqueensKernel(TaskContext &tc, const NQueensData &data);

/** Sum the striped counters. */
uint64_t nqueensResult(Machine &machine, const NQueensData &data);

/** Known solution counts for n = kNQueensMinN..kNQueensMaxN. */
uint64_t nqueensReference(uint32_t n);

} // namespace workloads
} // namespace spmrt

#endif // SPMRT_WORKLOADS_NQUEENS_HPP
