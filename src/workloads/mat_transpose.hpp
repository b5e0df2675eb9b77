/**
 * @file
 * MatrixTranspose: dense out-of-place transpose via recursive
 * spawn-and-sync (dynamic-balanced).
 *
 * Cache-oblivious quadrant recursion expressed with parallel_invoke; the
 * paper notes it has no static baseline because the computation starts
 * from a single task.
 */

#ifndef SPMRT_WORKLOADS_MAT_TRANSPOSE_HPP
#define SPMRT_WORKLOADS_MAT_TRANSPOSE_HPP

#include "matrix/matrix.hpp"
#include "parallel/patterns.hpp"

namespace spmrt {
namespace workloads {

/** Problem instance in simulated memory. */
struct MatTransposeData
{
    SimDense in;
    SimDense out;
    uint32_t n = 0;
};

/** Generate an n x n matrix and allocate the destination. */
MatTransposeData matTransposeSetup(Machine &machine, uint32_t n,
                                   uint64_t seed);

/** Upload square matrix @p in and allocate the destination. */
MatTransposeData matTransposeSetupFrom(Machine &machine,
                                       const HostDense &in);

/** out = in^T via recursive quadrant division (dynamic contexts only). */
void matTransposeKernel(TaskContext &tc, const MatTransposeData &data);

/** Compare against the host reference. */
bool matTransposeVerify(Machine &machine, const MatTransposeData &data,
                        const HostDense &in);

} // namespace workloads
} // namespace spmrt

#endif // SPMRT_WORKLOADS_MAT_TRANSPOSE_HPP
