/**
 * @file
 * The workload registry: the one home of every workload instance.
 *
 * A FleetWorkload is a compact declarative spec — kernel name plus its
 * parameters — of one instance of the paper's ten kernels: Fib and
 * Table 1's nine. makeWorkloadRequest() maps it to a JobRequest whose
 * prepare() builds the instance on any fresh Machine, sharing generated
 * host inputs through the batch AssetCache. This module alone decides
 * an instance's input generators and fixed seeds, the order of its
 * simulated allocations, and its digest convention. Fleet jobs, the
 * figure and ablation benches, host_perf and the tests all build their
 * workloads here (DESIGN.md Sec. 13).
 *
 * Digests: fib is the result value, cilksort FNV-1a over the sorted
 * array, uts and nqueens the count, so those runs are byte-comparable
 * with a host reference. The six kernels with no exact host reference
 * (matmul, pagerank, bfs, spmv, spmt, mattrans) digest to 1 when their
 * *Verify check passes and to 0 otherwise.
 *
 * Allocation order: every caller runs a request through serve::runJob,
 * which calls prepare() before constructing the runtime, so the inputs'
 * simulated addresses, and with them the cycles, are the same wherever a
 * spec runs.
 *
 * The Table-1 inputs (bench/rows.hpp) are scaled-down structural
 * stand-ins for the paper's datasets (DESIGN.md Sec. 2):
 *
 *   paper input        stand-in here
 *   MatMul 256/512     128 / 256 (same tiled kernel, 3 KB SPM reserve)
 *   g14k16             "uniform": uniform random, 2^14 vertices, degree 16
 *   email-*            "email": power-law (Zipf 0.7 endpoints, clustered
 *                      hubs)
 *   c-58               "c-58": banded structural graph / matrix
 *   bundle1            "bundle1": dense-row-minority matrix
 *   CilkSort 16K/128K  16K / 64K keys
 *   NQueens 8/9/10     6 / 7 / 8 (same backtracking kernel)
 *   UTS small-t1/t3    geometric / binomial splittable-RNG trees
 */

#ifndef SPMRT_SERVE_WORKLOADS_HPP
#define SPMRT_SERVE_WORKLOADS_HPP

#include <string>
#include <vector>

#include "serve/job.hpp"

namespace spmrt {
namespace serve {

/** FNV-1a over a value vector (array outputs digest to one word). */
template <typename T>
uint64_t
fnvDigest(const std::vector<T> &values)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const T &v : values) {
        h ^= static_cast<uint64_t>(v);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Declarative spec of one registered workload instance. A field the
 * kind does not read must keep its default: the registry rejects a
 * spec that sets one, so every instance has exactly one spec and one
 * key.
 */
struct FleetWorkload
{
    /**
     * "fib", "cilksort", "uts", "nqueens", "matmul", "pagerank", "bfs",
     * "spmv", "spmt" (sparse-matrix transpose) or "mattrans" (dense
     * transpose).
     */
    std::string kind;
    /**
     * fib n / cilksort element count / uts max depth (geometric) or
     * root children (binomial) / nqueens n / matmul and mattrans matrix
     * order (matmul: a multiple of the 16-element tile) / pagerank and
     * bfs vertex count / spmv and spmt row count.
     */
    uint32_t n = 0;
    /** Input seed: cilksort keys, uts root, generated graph or matrix. */
    uint64_t dataSeed = 0;
    /**
     * uts branching: the expected branching factor (geometric) or the
     * success probability q (binomial), at most three decimals.
     */
    double branch = 0.0;
    /**
     * Input family: "uniform", "email" or "c-58" graphs (pagerank,
     * bfs); "bundle1", "email" or "c-58" matrices (spmv, spmt); "" for
     * a geometric or "binomial" for a binomial uts tree.
     */
    std::string input = "";
    /**
     * Graph average degree / sparse-matrix nonzeros per row / binomial
     * uts children per success.
     */
    uint32_t degree = 0;
};

/**
 * Canonical identity string, also the cacheKey ("cilksort/400/900").
 * Throws std::runtime_error for an unknown kind or input, or a spec
 * that sets a field its kind does not read.
 */
std::string workloadKey(const FleetWorkload &w);

/** Host-side reference digest of @p w (what a correct run must produce). */
uint64_t workloadReference(const FleetWorkload &w);

/**
 * A JobRequest running @p w: name/cacheKey filled from the spec,
 * expectedDigest set to the host reference, prepare() wired to the
 * workload's setup/kernel/result helpers, and matmul's SPM reserve set
 * in runtime.userSpmReserve. Machine/runtime/seed fields otherwise keep
 * their defaults — tune them on the returned request. Throws
 * std::runtime_error for a spec workloadKey() rejects.
 */
JobRequest makeWorkloadRequest(const FleetWorkload &w);

} // namespace serve
} // namespace spmrt

#endif // SPMRT_SERVE_WORKLOADS_HPP
