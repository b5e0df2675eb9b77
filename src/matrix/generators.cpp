#include "matrix/generators.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace spmrt {

const std::vector<uint32_t> &
DistinctDraws::draw(uint32_t count, uint32_t span, Xoshiro256StarStar &rng)
{
    SPMRT_ASSERT(count <= span && span <= seen_.size(),
                 "%u distinct draws from a span of %u (bitmap %zu)", count,
                 span, seen_.size());
    picked_.clear();
    while (picked_.size() < count) {
        auto value = static_cast<uint32_t>(rng.nextBounded(span));
        if (!seen_[value]) {
            seen_[value] = 1;
            picked_.push_back(value);
        }
    }
    for (uint32_t value : picked_)
        seen_[value] = 0;
    std::sort(picked_.begin(), picked_.end());
    return picked_;
}

namespace {

/** Append @p count sorted distinct random columns of the next row. */
void
appendRow(HostCsr &csr, uint32_t count, DistinctDraws &draws,
          Xoshiro256StarStar &rng)
{
    for (uint32_t c : draws.draw(std::min(count, csr.cols), csr.cols, rng)) {
        csr.colIdx.push_back(c);
        csr.values.push_back(
            static_cast<float>(rng.nextDouble() * 2.0 - 1.0));
    }
    csr.rowPtr.push_back(static_cast<uint32_t>(csr.colIdx.size()));
}

} // namespace

HostDense
genDenseRandom(uint32_t rows, uint32_t cols, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    HostDense dense(rows, cols);
    for (float &value : dense.data)
        value = static_cast<float>(rng.nextDouble() * 2.0 - 1.0);
    return dense;
}

HostCsr
genCsrUniform(uint32_t rows, uint32_t cols, uint32_t nnz_per_row,
              uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    HostCsr csr;
    csr.rows = rows;
    csr.cols = cols;
    csr.rowPtr.push_back(0);
    DistinctDraws draws(cols);
    for (uint32_t r = 0; r < rows; ++r)
        appendRow(csr, nnz_per_row, draws, rng);
    return csr;
}

HostCsr
genCsrPowerLaw(uint32_t rows, uint32_t cols, uint32_t avg_nnz, double alpha,
               uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<double> weight(rows);
    double total = 0;
    for (uint32_t r = 0; r < rows; ++r) {
        weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), alpha);
        total += weight[r];
    }
    // Spread heavy rows across the index space.
    std::vector<uint32_t> label(rows);
    for (uint32_t r = 0; r < rows; ++r)
        label[r] = r;
    for (uint32_t r = rows; r > 1; --r)
        std::swap(label[r - 1],
                  label[static_cast<uint32_t>(rng.nextBounded(r))]);
    std::vector<uint32_t> row_nnz(rows, 0);
    const double target = static_cast<double>(rows) * avg_nnz;
    for (uint32_t r = 0; r < rows; ++r) {
        double exact = weight[r] / total * target;
        auto nnz = static_cast<uint32_t>(exact);
        if (rng.nextDouble() < exact - nnz)
            ++nnz;
        row_nnz[label[r]] = nnz;
    }
    HostCsr csr;
    csr.rows = rows;
    csr.cols = cols;
    csr.rowPtr.push_back(0);
    DistinctDraws draws(cols);
    for (uint32_t r = 0; r < rows; ++r)
        appendRow(csr, row_nnz[r], draws, rng);
    return csr;
}

HostCsr
genCsrBanded(uint32_t n, uint32_t bandwidth, uint32_t nnz_per_row,
             uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    HostCsr csr;
    csr.rows = n;
    csr.cols = n;
    csr.rowPtr.push_back(0);
    DistinctDraws draws(n);
    for (uint32_t r = 0; r < n; ++r) {
        uint32_t lo = r > bandwidth ? r - bandwidth : 0;
        uint32_t hi = std::min(n - 1, r + bandwidth);
        uint32_t span = hi - lo + 1;
        for (uint32_t c : draws.draw(std::min(nnz_per_row, span), span,
                                     rng)) {
            csr.colIdx.push_back(lo + c);
            csr.values.push_back(
                static_cast<float>(rng.nextDouble() * 2.0 - 1.0));
        }
        csr.rowPtr.push_back(static_cast<uint32_t>(csr.colIdx.size()));
    }
    return csr;
}

HostCsr
genCsrBundle(uint32_t rows, uint32_t cols, uint32_t dense_rows,
             uint32_t dense_nnz, uint32_t sparse_nnz, uint64_t seed)
{
    SPMRT_ASSERT(dense_rows <= rows, "more dense rows than rows");
    Xoshiro256StarStar rng(seed);
    uint32_t stride = dense_rows > 0 ? rows / dense_rows : 1;
    if (stride == 0)
        stride = 1;
    HostCsr csr;
    csr.rows = rows;
    csr.cols = cols;
    csr.rowPtr.push_back(0);
    DistinctDraws draws(cols);
    for (uint32_t r = 0; r < rows; ++r) {
        bool dense =
            dense_rows > 0 && r % stride == 0 && r / stride < dense_rows;
        appendRow(csr, dense ? dense_nnz : sparse_nnz, draws, rng);
    }
    return csr;
}

} // namespace spmrt
