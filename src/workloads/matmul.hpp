/**
 * @file
 * MatMul: tiled dense matrix multiplication (static-balanced).
 *
 * The only workload whose user code claims scratchpad space: each core
 * reserves 3 KB via spm_reserve() for three tile buffers (A, B, C) and
 * streams tiles through them — shrinking the SPM stack region the runtime
 * may claim, exactly the interaction Sec. 4 describes.
 */

#ifndef SPMRT_WORKLOADS_MATMUL_HPP
#define SPMRT_WORKLOADS_MATMUL_HPP

#include "matrix/matrix.hpp"
#include "parallel/patterns.hpp"

namespace spmrt {
namespace workloads {

/** Tile edge (in elements); 3 buffers of T*T floats must fit in 3 KB. */
constexpr uint32_t kMatMulTile = 16; // 16*16*4 = 1 KB per buffer

/** SPM bytes MatMul reserves via spm_reserve(). */
constexpr uint32_t kMatMulSpmReserve = 3 * kMatMulTile * kMatMulTile * 4;

/** Problem instance in simulated memory. */
struct MatMulData
{
    SimDense a;
    SimDense b;
    SimDense c;
    uint32_t n = 0;
};

/** Generate an n x n problem (A from @p seed, B from seed + 1), upload it. */
MatMulData matmulSetup(Machine &machine, uint32_t n, uint64_t seed);

/** Upload square operands @p a and @p b and allocate a zeroed C. */
MatMulData matmulSetupFrom(Machine &machine, const HostDense &a,
                           const HostDense &b);

/**
 * C = A * B over TxT tiles with SPM-resident tile buffers. Runs on both
 * runtimes (a single flat parallel_for over output tiles).
 */
void matmulKernel(TaskContext &tc, const MatMulData &data);

/** Compare the simulated result against the host reference. */
bool matmulVerify(Machine &machine, const MatMulData &data,
                  const HostDense &a, const HostDense &b);

} // namespace workloads
} // namespace spmrt

#endif // SPMRT_WORKLOADS_MATMUL_HPP
