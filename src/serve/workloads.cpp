#include "serve/workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>

#include "common/log.hpp"
#include "graph/generators.hpp"
#include "matrix/generators.hpp"
#include "serve/assets.hpp"
#include "sim/machine.hpp"
#include "workloads/bfs.hpp"
#include "workloads/cilksort.hpp"
#include "workloads/fib.hpp"
#include "workloads/mat_transpose.hpp"
#include "workloads/matmul.hpp"
#include "workloads/nqueens.hpp"
#include "workloads/pagerank.hpp"
#include "workloads/spm_transpose.hpp"
#include "workloads/spmv.hpp"
#include "workloads/uts.hpp"

namespace spmrt {
namespace serve {

using namespace spmrt::workloads;

namespace {

/** Seed of the spmv input vector x (a fixed part of every instance). */
constexpr uint64_t kSpmvVectorSeed = 7;

[[noreturn]] void
rejectSpec(const FleetWorkload &w, const std::string &why)
{
    throw std::runtime_error("workload spec '" + w.kind + "': " + why);
}

/**
 * Reject @p w unless its input is one of @p inputs ("" = none) and it
 * leaves each of dataSeed, branch and degree that its kind does not
 * read (@p seed, @p branch, @p degree false) at the default.
 */
void
checkSpec(const FleetWorkload &w, std::initializer_list<const char *> inputs,
          bool seed, bool branch, bool degree)
{
    bool known = false;
    for (const char *input : inputs)
        known = known || w.input == input;
    if (!known)
        rejectSpec(w, "unknown input '" + w.input + "'");
    if ((!seed && w.dataSeed != 0) || (!branch && w.branch != 0.0) ||
        (!degree && w.degree != 0))
        rejectSpec(w, "sets a field this kind does not read");
}

UtsParams
utsParamsOf(const FleetWorkload &w)
{
    if (w.input == "binomial")
        return UtsParams::binomial(w.n, w.degree, w.branch, w.dataSeed);
    return UtsParams::geometric(w.n, w.branch, w.dataSeed);
}

std::string
keysAssetKey(const FleetWorkload &w)
{
    return log::format("cilksort-keys/%u/%llu", w.n,
                       static_cast<unsigned long long>(w.dataSeed));
}

/** The generated graph of a pagerank/bfs spec, shared per batch. */
std::shared_ptr<const HostGraph>
graphAsset(AssetCache &assets, const FleetWorkload &w)
{
    return assets.get<HostGraph>(
        log::format("graph/%s/%u/%u/%llu", w.input.c_str(), w.n, w.degree,
                    static_cast<unsigned long long>(w.dataSeed)),
        [&w] {
            if (w.input == "uniform")
                return genUniformRandom(w.n, w.degree, w.dataSeed);
            if (w.input == "email")
                return genPowerLaw(w.n, w.degree, 0.7, w.dataSeed);
            // c-58: band width scaled with |V| so the BFS diameter
            // (≈ V/band) stays in the low hundreds of levels, as for the
            // real c-58.
            return genBanded(w.n, w.n / 170, w.degree, w.dataSeed);
        });
}

/** The generated sparse matrix of a spmv/spmt spec, shared per batch. */
std::shared_ptr<const HostCsr>
matrixAsset(AssetCache &assets, const FleetWorkload &w)
{
    return assets.get<HostCsr>(
        log::format("csr/%s/%u/%u/%llu", w.input.c_str(), w.n, w.degree,
                    static_cast<unsigned long long>(w.dataSeed)),
        [&w] {
            if (w.input == "bundle1")
                return genCsrBundle(w.n, w.n, w.n / 256, w.degree * 64,
                                    w.degree / 2, w.dataSeed);
            if (w.input == "email")
                return genCsrPowerLaw(w.n, w.n, w.degree, 0.7, w.dataSeed);
            return genCsrBanded(w.n, 24, w.degree, w.dataSeed); // c-58
        });
}

/** A generated n x n dense matrix, shared per batch. */
std::shared_ptr<const HostDense>
denseAsset(AssetCache &assets, uint32_t n, uint64_t seed)
{
    return assets.get<HostDense>(
        log::format("dense/%u/%llu", n,
                    static_cast<unsigned long long>(seed)),
        [n, seed] { return genDenseRandom(n, n, seed); });
}

/** A prepared job whose digest is @p verify's verdict: 1 = passed. */
template <typename Data, typename Kernel, typename Verify>
PreparedJob
verifiedJob(const Data &data, Kernel kernel, Verify verify)
{
    PreparedJob prep;
    prep.root = [data, kernel](TaskContext &tc) { kernel(tc, data); };
    prep.digest = [data, verify](Machine &m) {
        return verify(m, data) ? uint64_t{1} : uint64_t{0};
    };
    return prep;
}

} // namespace

std::string
workloadKey(const FleetWorkload &w)
{
    const unsigned long long seed = w.dataSeed;
    if (w.kind == "fib" || w.kind == "nqueens") {
        checkSpec(w, {""}, false, false, false);
        if (w.kind == "nqueens" && (w.n < kNQueensMinN || w.n > kNQueensMaxN))
            rejectSpec(w, log::format("n = %u is outside the reference "
                                      "table's [%u, %u]",
                                      w.n, kNQueensMinN, kNQueensMaxN));
        return log::format("%s/%u", w.kind.c_str(), w.n);
    }
    if (w.kind == "cilksort") {
        checkSpec(w, {""}, true, false, false);
        return log::format("cilksort/%u/%llu", w.n, seed);
    }
    if (w.kind == "uts") {
        const bool binomial = w.input == "binomial";
        checkSpec(w, {"", "binomial"}, true, true, binomial);
        // The key prints branch to three decimals, so a finer value
        // would share its key (and cached result) with a rounded one.
        if (std::strtod(log::format("%.3f", w.branch).c_str(), nullptr) !=
            w.branch)
            rejectSpec(w, "branch has more than three decimals");
        // utsChildCount takes the log of branch / (1 + branch): NaN for
        // a negative branch, and NaN has no child count.
        if (!binomial && w.branch < 0)
            rejectSpec(w, "a geometric tree's branch is negative");
        if (binomial)
            return log::format("uts/binomial/%u/%u/%.3f/%llu", w.n,
                               w.degree, w.branch, seed);
        return log::format("uts/%u/%.3f/%llu", w.n, w.branch, seed);
    }
    if (w.kind == "matmul" || w.kind == "mattrans") {
        checkSpec(w, {""}, true, false, false);
        if (w.kind == "matmul" && w.n % kMatMulTile != 0)
            rejectSpec(w, "n is not a multiple of the matmul tile");
        return log::format("%s/%u/%llu", w.kind.c_str(), w.n, seed);
    }
    if (w.kind == "pagerank" || w.kind == "bfs") {
        checkSpec(w, {"uniform", "email", "c-58"}, true, false, true);
        if (w.kind == "bfs" && w.n == 0)
            rejectSpec(w, "the graph has no source vertex 0");
    } else if (w.kind == "spmv" || w.kind == "spmt") {
        checkSpec(w, {"bundle1", "email", "c-58"}, true, false, true);
    } else {
        rejectSpec(w, "unknown kind");
    }
    return log::format("%s/%s/%u/%u/%llu", w.kind.c_str(), w.input.c_str(),
                       w.n, w.degree, seed);
}

uint64_t
workloadReference(const FleetWorkload &w)
{
    workloadKey(w); // rejects a malformed spec
    if (w.kind == "fib")
        return static_cast<uint64_t>(fibReference(static_cast<int>(w.n)));
    if (w.kind == "cilksort") {
        std::vector<uint32_t> keys = cilksortKeys(w.n, w.dataSeed);
        std::sort(keys.begin(), keys.end());
        return fnvDigest(keys);
    }
    if (w.kind == "uts")
        return utsReference(utsParamsOf(w));
    if (w.kind == "nqueens")
        return nqueensReference(w.n);
    return 1; // the verified kernels: 1 = their *Verify check passed
}

JobRequest
makeWorkloadRequest(const FleetWorkload &w)
{
    JobRequest req;
    req.name = workloadKey(w);
    req.cacheKey = req.name;
    req.expectedDigest = workloadReference(w);
    req.hasExpectedDigest = true;

    const FleetWorkload spec = w;
    if (w.kind == "fib") {
        const int n = static_cast<int>(w.n);
        req.prepare = [n](Machine &machine, AssetCache &) {
            Addr out = machine.dramAlloc(8, 8);
            PreparedJob prep;
            prep.root = [n, out](TaskContext &tc) {
                fibKernel(tc, n, out);
            };
            prep.digest = [out](Machine &m) {
                return static_cast<uint64_t>(m.mem().peekAs<int64_t>(out));
            };
            return prep;
        };
    } else if (w.kind == "cilksort") {
        req.prepare = [spec](Machine &machine, AssetCache &assets) {
            // The key array is a pure function of (n, seed): build it
            // once per batch and upload the shared copy per job.
            auto keys = assets.get<std::vector<uint32_t>>(
                keysAssetKey(spec),
                [&spec] { return cilksortKeys(spec.n, spec.dataSeed); });
            CilkSortData data = cilksortSetupFrom(machine, *keys);
            PreparedJob prep;
            prep.root = [data](TaskContext &tc) {
                cilksortKernel(tc, data);
            };
            prep.digest = [data](Machine &m) {
                return fnvDigest(
                    downloadArray<uint32_t>(m, data.data, data.n));
            };
            return prep;
        };
    } else if (w.kind == "uts") {
        const UtsParams params = utsParamsOf(w);
        req.prepare = [params](Machine &machine, AssetCache &) {
            UtsData data = utsSetup(machine, params);
            PreparedJob prep;
            prep.root = [data](TaskContext &tc) { utsKernel(tc, data); };
            prep.digest = [data](Machine &m) { return utsResult(m, data); };
            return prep;
        };
    } else if (w.kind == "nqueens") {
        const uint32_t n = w.n;
        req.prepare = [n](Machine &machine, AssetCache &) {
            NQueensData data = nqueensSetup(machine, n);
            PreparedJob prep;
            prep.root = [data](TaskContext &tc) {
                nqueensKernel(tc, data);
            };
            prep.digest = [data](Machine &m) {
                return nqueensResult(m, data);
            };
            return prep;
        };
    } else if (w.kind == "matmul") {
        req.runtime.userSpmReserve = kMatMulSpmReserve;
        req.prepare = [spec](Machine &machine, AssetCache &assets) {
            auto a = denseAsset(assets, spec.n, spec.dataSeed);
            auto b = denseAsset(assets, spec.n, spec.dataSeed + 1);
            return verifiedJob(
                matmulSetupFrom(machine, *a, *b), matmulKernel,
                [a, b](Machine &m, const MatMulData &data) {
                    return matmulVerify(m, data, *a, *b);
                });
        };
    } else if (w.kind == "mattrans") {
        req.prepare = [spec](Machine &machine, AssetCache &assets) {
            auto in = denseAsset(assets, spec.n, spec.dataSeed);
            return verifiedJob(
                matTransposeSetupFrom(machine, *in), matTransposeKernel,
                [in](Machine &m, const MatTransposeData &data) {
                    return matTransposeVerify(m, data, *in);
                });
        };
    } else if (w.kind == "pagerank") {
        req.prepare = [spec](Machine &machine, AssetCache &assets) {
            auto graph = graphAsset(assets, spec);
            return verifiedJob(
                pagerankSetup(machine, *graph),
                [](TaskContext &tc, const PageRankData &data) {
                    pagerankKernel(tc, data, 1);
                },
                [graph](Machine &m, const PageRankData &data) {
                    return pagerankVerify(m, data, *graph, 1);
                });
        };
    } else if (w.kind == "bfs") {
        req.prepare = [spec](Machine &machine, AssetCache &assets) {
            auto graph = graphAsset(assets, spec);
            return verifiedJob(bfsSetup(machine, *graph, 0), bfsKernel,
                               [graph](Machine &m, const BfsData &data) {
                                   return bfsVerify(m, data, *graph);
                               });
        };
    } else if (w.kind == "spmv") {
        req.prepare = [spec](Machine &machine, AssetCache &assets) {
            auto matrix = matrixAsset(assets, spec);
            SpmvData data = spmvSetup(machine, *matrix, kSpmvVectorSeed);
            std::vector<float> x = spmvInputVector(machine, data);
            return verifiedJob(
                data, spmvKernel,
                [matrix, x](Machine &m, const SpmvData &d) {
                    return spmvVerify(m, d, *matrix, x);
                });
        };
    } else if (w.kind == "spmt") {
        req.prepare = [spec](Machine &machine, AssetCache &assets) {
            auto matrix = matrixAsset(assets, spec);
            return verifiedJob(
                spmTransposeSetup(machine, *matrix), spmTransposeKernel,
                [matrix](Machine &m, const SpmTransposeData &data) {
                    return spmTransposeVerify(m, data, *matrix);
                });
        };
    }
    return req;
}

} // namespace serve
} // namespace spmrt
