#include "workloads/mat_transpose.hpp"

#include "matrix/generators.hpp"

namespace spmrt {
namespace workloads {

namespace {

/** Below this edge length a block is transposed sequentially. */
constexpr uint32_t kLeafEdge = 16;

/** Transpose in[r0..r0+rows) x [c0..c0+cols) into out[c][r]. */
void
transposeRec(TaskContext &tc, const MatTransposeData &data, uint32_t r0,
             uint32_t c0, uint32_t rows, uint32_t cols)
{
    Core &core = tc.core();
    if (rows <= kLeafEdge && cols <= kLeafEdge) {
        // Leaf: burst-read each row, scatter it as a column of `out`.
        std::vector<float> row(cols);
        for (uint32_t r = 0; r < rows; ++r) {
            core.read(data.in.elem(r0 + r, c0), row.data(), cols * 4);
            for (uint32_t c = 0; c < cols; ++c) {
                core.store<float>(data.out.elem(c0 + c, r0 + r), row[c]);
                core.tick(1, 1);
            }
        }
        return;
    }
    if (rows >= cols) {
        uint32_t half = rows / 2;
        parallelInvoke(
            tc,
            [&, r0, c0, half, cols](TaskContext &sub) {
                transposeRec(sub, data, r0, c0, half, cols);
            },
            [&, r0, c0, half, rows, cols](TaskContext &sub) {
                transposeRec(sub, data, r0 + half, c0, rows - half, cols);
            });
    } else {
        uint32_t half = cols / 2;
        parallelInvoke(
            tc,
            [&, r0, c0, rows, half](TaskContext &sub) {
                transposeRec(sub, data, r0, c0, rows, half);
            },
            [&, r0, c0, rows, half, cols](TaskContext &sub) {
                transposeRec(sub, data, r0, c0 + half, rows, cols - half);
            });
    }
}

} // namespace

MatTransposeData
matTransposeSetup(Machine &machine, uint32_t n, uint64_t seed)
{
    return matTransposeSetupFrom(machine, genDenseRandom(n, n, seed));
}

MatTransposeData
matTransposeSetupFrom(Machine &machine, const HostDense &in)
{
    SPMRT_ASSERT(in.rows == in.cols, "transpose input must be square");
    MatTransposeData data;
    data.n = in.rows;
    data.in = SimDense::upload(machine, in);
    data.out = SimDense::zeros(machine, data.n, data.n);
    return data;
}

void
matTransposeKernel(TaskContext &tc, const MatTransposeData &data)
{
    transposeRec(tc, data, 0, 0, data.n, data.n);
}

bool
matTransposeVerify(Machine &machine, const MatTransposeData &data,
                   const HostDense &in)
{
    HostDense expected = in.transposed();
    HostDense actual = data.out.download(machine);
    for (uint32_t r = 0; r < expected.rows; ++r)
        for (uint32_t c = 0; c < expected.cols; ++c)
            if (expected.at(r, c) != actual.at(r, c)) {
                SPMRT_WARN("transpose mismatch at (%u,%u)", r, c);
                return false;
            }
    return true;
}

} // namespace workloads
} // namespace spmrt
