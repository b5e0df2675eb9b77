#include "workloads/matmul.hpp"

#include <cmath>

#include "matrix/generators.hpp"

namespace spmrt {
namespace workloads {

MatMulData
matmulSetup(Machine &machine, uint32_t n, uint64_t seed)
{
    return matmulSetupFrom(machine, genDenseRandom(n, n, seed),
                           genDenseRandom(n, n, seed + 1));
}

MatMulData
matmulSetupFrom(Machine &machine, const HostDense &a, const HostDense &b)
{
    const uint32_t n = a.rows;
    SPMRT_ASSERT(a.cols == n && b.rows == n && b.cols == n,
                 "matmul operands must be square and of one order");
    SPMRT_ASSERT(n % kMatMulTile == 0, "n must be a multiple of the tile");
    MatMulData data;
    data.n = n;
    data.a = SimDense::upload(machine, a);
    data.b = SimDense::upload(machine, b);
    data.c = SimDense::zeros(machine, n, n);
    return data;
}

void
matmulKernel(TaskContext &tc, const MatMulData &data)
{
    const uint32_t n = data.n;
    const uint32_t tiles = n / kMatMulTile;
    constexpr uint32_t kTileElems = kMatMulTile * kMatMulTile;
    constexpr uint32_t kTileBytes = kTileElems * 4;

    ForOptions opts;
    opts.grain = 1; // one output tile per leaf task
    opts.env.bytes = 24;      // captured: A, B, C base pointers + n
    opts.env.wordsPerIter = 2;

    parallelFor(
        tc, 0, static_cast<int64_t>(tiles) * tiles,
        [&data, n, tiles](TaskContext &btc, int64_t tile) {
            Core &core = btc.core();
            const uint32_t ti = static_cast<uint32_t>(tile) / tiles;
            const uint32_t tj = static_cast<uint32_t>(tile) % tiles;
            // User-reserved SPM region: three tile buffers at offsets
            // 0 / 1K / 2K of this core's scratchpad (spm_malloc layout).
            const Addr buf_a = core.spmBase();
            const Addr buf_b = buf_a + kTileBytes;
            const Addr buf_c = buf_b + kTileBytes;

            std::vector<float> tile_a(kTileElems), tile_b(kTileElems),
                tile_c(kTileElems, 0.f);

            for (uint32_t tk = 0; tk < tiles; ++tk) {
                // Stream the A and B tiles into scratchpad, row by row
                // (rows of a tile are strided in DRAM).
                for (uint32_t r = 0; r < kMatMulTile; ++r) {
                    core.read(data.a.elem(ti * kMatMulTile + r,
                                          tk * kMatMulTile),
                              &tile_a[r * kMatMulTile],
                              kMatMulTile * 4);
                    core.read(data.b.elem(tk * kMatMulTile + r,
                                          tj * kMatMulTile),
                              &tile_b[r * kMatMulTile],
                              kMatMulTile * 4);
                }
                core.write(buf_a, tile_a.data(), kTileBytes);
                core.write(buf_b, tile_b.data(), kTileBytes);

                // Dense TxT x TxT tile product out of scratchpad: ~1 MAC
                // per cycle with 2 SPM operands folded into the charge.
                for (uint32_t r = 0; r < kMatMulTile; ++r)
                    for (uint32_t k = 0; k < kMatMulTile; ++k) {
                        float lhs = tile_a[r * kMatMulTile + k];
                        for (uint32_t col = 0; col < kMatMulTile; ++col)
                            tile_c[r * kMatMulTile + col] +=
                                lhs * tile_b[k * kMatMulTile + col];
                    }
                core.tick(kTileElems * kMatMulTile,
                          kTileElems * kMatMulTile * 2);
                core.write(buf_c, tile_c.data(), kTileBytes);
            }
            // Write the finished C tile back to DRAM.
            for (uint32_t r = 0; r < kMatMulTile; ++r)
                core.write(
                    data.c.elem(ti * kMatMulTile + r, tj * kMatMulTile),
                    &tile_c[r * kMatMulTile], kMatMulTile * 4);
        },
        opts);
}

bool
matmulVerify(Machine &machine, const MatMulData &data, const HostDense &a,
             const HostDense &b)
{
    HostDense expected = a.multiply(b);
    HostDense actual = data.c.download(machine);
    for (uint32_t i = 0; i < expected.rows; ++i)
        for (uint32_t j = 0; j < expected.cols; ++j) {
            float want = expected.at(i, j);
            float got = actual.at(i, j);
            if (std::fabs(want - got) > 1e-3f * (1.f + std::fabs(want))) {
                SPMRT_WARN("matmul mismatch at (%u,%u): %f vs %f", i, j,
                           static_cast<double>(want),
                           static_cast<double>(got));
                return false;
            }
        }
    return true;
}

} // namespace workloads
} // namespace spmrt
