#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.hpp"

namespace spmrt {

CdfGuide::CdfGuide(std::vector<double> cumulative)
    : cumulative_(std::move(cumulative)), guide_(cumulative_.size())
{
    const size_t n = cumulative_.size();
    if (n == 0 || !(cumulative_.back() > 0))
        return; // no buckets: find() takes the full search
    scale_ = static_cast<double>(n) / cumulative_.back();
    // guide_[b] = lower_bound of bucket b's lower edge, by one sweep.
    uint32_t k = 0;
    for (size_t b = 0; b < n; ++b) {
        const double edge = static_cast<double>(b) / scale_;
        while (k < n && cumulative_[k] < edge)
            ++k;
        guide_[b] = k;
    }
}

uint32_t
CdfGuide::find(double u) const
{
    const auto n = static_cast<uint32_t>(cumulative_.size());
    if (scale_ > 0 && u >= 0) {
        const double bucket = u * scale_;
        uint32_t k =
            guide_[bucket < n ? static_cast<uint32_t>(bucket) : n - 1];
        while (k < n && cumulative_[k] < u)
            ++k;
        // Accept only lower_bound's own answer; a bucket index that
        // rounding put past it fails here and takes the full search.
        if (k < n && (k == 0 || cumulative_[k - 1] < u))
            return k;
    }
    return static_cast<uint32_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
}

HostGraph
genUniformRandom(uint32_t num_vertices, uint32_t avg_degree, uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    edges.reserve(static_cast<size_t>(num_vertices) * avg_degree);
    for (uint32_t v = 0; v < num_vertices; ++v)
        for (uint32_t e = 0; e < avg_degree; ++e)
            edges.emplace_back(
                v, static_cast<uint32_t>(rng.nextBounded(num_vertices)));
    return HostGraph::fromEdges(num_vertices, std::move(edges));
}

HostGraph
genPowerLaw(uint32_t num_vertices, uint32_t avg_degree, double alpha,
            uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    // Zipf weights, scaled so the total edge count ~= V * avg_degree.
    // Both endpoints follow the distribution: real communication graphs
    // (the paper's email-* inputs) are heavy-tailed in in-degree as well
    // as out-degree, and the pull-direction kernels (PageRank K2, BFS
    // bottom-up) are only imbalanced if the *in*-degrees are skewed.
    const double edges_target =
        static_cast<double>(num_vertices) * avg_degree;
    const double weight_cap = static_cast<double>(avg_degree) * 64;
    std::vector<double> weight(num_vertices);
    double raw_total = 0;
    for (uint32_t v = 0; v < num_vertices; ++v) {
        weight[v] = 1.0 / std::pow(static_cast<double>(v + 1), alpha);
        raw_total += weight[v];
    }
    std::vector<double> cumulative(num_vertices);
    double total_weight = 0;
    for (uint32_t v = 0; v < num_vertices; ++v) {
        double expected = weight[v] / raw_total * edges_target;
        total_weight += expected < weight_cap ? expected : weight_cap;
        cumulative[v] = total_weight;
    }
    const CdfGuide zipf(std::move(cumulative));
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    edges.reserve(static_cast<size_t>(edges_target));
    // Inverse-CDF Zipf sampler for edge targets. Vertex ids are the
    // ranks, so heavy vertices keep adjacent (low) ids, as in
    // crawl-ordered real graphs.
    auto zipf_target = [&]() {
        uint32_t rank = zipf.find(rng.nextDouble() * total_weight);
        return rank < num_vertices ? rank : num_vertices - 1;
    };
    // Cap any single vertex's degree: real communication graphs are
    // heavy-tailed, but no single vertex owns 10% of all edges — and a
    // task-parallel runtime cannot subdivide one vertex's edge list, so
    // an uncapped Zipf head would be an artificial serial bottleneck
    // rather than the stealable imbalance the paper's inputs exhibit.
    const uint32_t degree_cap = avg_degree * 64;
    for (uint32_t v = 0; v < num_vertices; ++v) {
        double exact = weight[v] / raw_total * edges_target;
        auto degree = static_cast<uint32_t>(exact);
        if (rng.nextDouble() < exact - degree)
            ++degree;
        degree = std::min(degree, degree_cap);
        for (uint32_t e = 0; e < degree; ++e)
            edges.emplace_back(v, zipf_target());
    }
    return HostGraph::fromEdges(num_vertices, std::move(edges));
}

HostGraph
genBanded(uint32_t num_vertices, uint32_t bandwidth, uint32_t avg_degree,
          uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    edges.reserve(static_cast<size_t>(num_vertices) * avg_degree);
    for (uint32_t v = 0; v < num_vertices; ++v) {
        for (uint32_t e = 0; e < avg_degree; ++e) {
            int64_t offset = static_cast<int64_t>(
                                 rng.nextBounded(2 * bandwidth + 1)) -
                             bandwidth;
            int64_t target = static_cast<int64_t>(v) + offset;
            if (target < 0)
                target += num_vertices;
            if (target >= num_vertices)
                target -= num_vertices;
            edges.emplace_back(v, static_cast<uint32_t>(target));
        }
    }
    return HostGraph::fromEdges(num_vertices, std::move(edges));
}

} // namespace spmrt
