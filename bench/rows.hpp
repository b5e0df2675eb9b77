/**
 * @file
 * The workload/input rows of the paper's Table 1, as registry specs
 * (serve/workloads.hpp, which also maps each stand-in input to the
 * paper's dataset). Quick mode shrinks the inputs.
 */

#ifndef SPMRT_BENCH_ROWS_HPP
#define SPMRT_BENCH_ROWS_HPP

#include "bench/support.hpp"
#include "serve/workloads.hpp"

namespace spmrt {
namespace bench {

/** One (workload, input) row of Table 1. */
struct WorkloadRow
{
    std::string workload;
    std::string input;
    bool hasStatic = true; ///< spawn-sync rows have no static baseline
    serve::FleetWorkload spec;
};

/** Build the full row list (quick mode shrinks the inputs). */
inline std::vector<WorkloadRow>
table1Rows()
{
    std::vector<WorkloadRow> rows;
    auto add = [&rows](const char *workload, const std::string &input,
                       bool has_static, const serve::FleetWorkload &spec) {
        // Quick mode collapses some sizes onto one input: keep one row.
        if (rows.empty() || rows.back().workload != workload ||
            rows.back().input != input)
            rows.push_back({workload, input, has_static, spec});
    };

    // Full size matches the paper's g14k16: 2^14 vertices, degree 16.
    const uint32_t graph_v = scaled<uint32_t>(16384, 1024);
    const uint32_t graph_d = scaled<uint32_t>(16, 8);
    const uint32_t mat_n = scaled<uint32_t>(16384, 1024);
    const uint32_t mat_nnz = scaled<uint32_t>(8, 6);
    const std::pair<const char *, uint64_t> graphs[] = {
        {"uniform", 1001}, {"email", 1002}, {"c-58", 1003}};
    const std::pair<const char *, uint64_t> matrices[] = {
        {"bundle1", 2001}, {"email", 2002}, {"c-58", 2003}};

    // In the paper's Table 1 order.
    for (uint32_t n : {scaled<uint32_t>(128, 64), scaled<uint32_t>(256, 64)})
        add("MatMul", std::to_string(n), true, {"matmul", n, 100});
    for (const auto &[label, kind] :
         {std::pair{"PageRank", "pagerank"}, std::pair{"BFS", "bfs"}})
        for (const auto &[input, seed] : graphs)
            add(label, input, true,
                {kind, graph_v, seed, 0.0, input, graph_d});
    for (const auto &[label, kind] :
         {std::pair{"SpMV", "spmv"}, std::pair{"SpMT", "spmt"}})
        for (const auto &[input, seed] : matrices)
            add(label, input, true, {kind, mat_n, seed, 0.0, input, mat_nnz});
    for (uint32_t n : {scaled<uint32_t>(128, 64), scaled<uint32_t>(256, 64)})
        add("MatTrans", std::to_string(n), false, {"mattrans", n, 600});
    for (uint32_t n :
         {scaled<uint32_t>(16384, 4096), scaled<uint32_t>(65536, 4096)})
        add("CilkSort", std::to_string(n), false, {"cilksort", n, 700});
    for (uint32_t n : {6u, 7u, scaled<uint32_t>(8, 7)})
        add("NQueens", std::to_string(n), true, {"nqueens", n});
    add("UTS", "t1-geo", true,
        {"uts", scaled<uint32_t>(9, 7), 42, scaled<double>(2.7, 2.2)});
    add("UTS", "t3-bin", true,
        {"uts", scaled<uint32_t>(256, 64), 77, scaled<double>(0.246, 0.2),
         "binomial", 4});
    return rows;
}

} // namespace bench
} // namespace spmrt

#endif // SPMRT_BENCH_ROWS_HPP
