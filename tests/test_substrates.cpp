/**
 * @file
 * Tests for the graph and matrix substrates: CSR construction,
 * generators' structural properties, host references, sim upload/download
 * round trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "matrix/generators.hpp"

namespace spmrt {
namespace {

// ---- CSR graph construction -----------------------------------------------

TEST(HostGraph, FromEdgesBuildsCsr)
{
    HostGraph graph = HostGraph::fromEdges(
        4, {{0, 1}, {0, 2}, {1, 3}, {3, 0}, {3, 1}});
    EXPECT_EQ(graph.numVertices, 4u);
    EXPECT_EQ(graph.numEdges(), 5u);
    EXPECT_EQ(graph.degree(0), 2u);
    EXPECT_EQ(graph.degree(1), 1u);
    EXPECT_EQ(graph.degree(2), 0u);
    EXPECT_EQ(graph.degree(3), 2u);
    EXPECT_EQ(graph.targets[graph.offsets[1]], 3u);
}

TEST(HostGraph, TransposeInvertsEdges)
{
    HostGraph graph =
        HostGraph::fromEdges(3, {{0, 1}, {1, 2}, {2, 0}, {0, 2}});
    HostGraph reverse = graph.transpose();
    EXPECT_EQ(reverse.numEdges(), graph.numEdges());
    EXPECT_EQ(reverse.degree(1), 1u); // only 0->1
    EXPECT_EQ(reverse.degree(2), 2u); // 1->2 and 0->2
    // Double transpose is the identity.
    HostGraph twice = reverse.transpose();
    EXPECT_EQ(twice.offsets, graph.offsets);
    EXPECT_EQ(twice.targets, graph.targets);
}

// ---- counting builds vs the comparison sort they replaced ------------------

using EdgeList = std::vector<std::pair<uint32_t, uint32_t>>;

/** CSR of the lexicographically sorted pair list (the old fromEdges). */
HostGraph
sortedCsr(uint32_t num_vertices, EdgeList edges)
{
    std::sort(edges.begin(), edges.end());
    HostGraph graph;
    graph.numVertices = num_vertices;
    graph.offsets.assign(num_vertices + 1, 0);
    for (const auto &[src, dst] : edges)
        ++graph.offsets[src + 1];
    std::partial_sum(graph.offsets.begin(), graph.offsets.end(),
                     graph.offsets.begin());
    for (const auto &[src, dst] : edges)
        graph.targets.push_back(dst);
    return graph;
}

/** The old transpose: sort the reversed pairs. */
HostGraph
sortedTranspose(const HostGraph &graph)
{
    EdgeList reversed;
    for (uint32_t v = 0; v < graph.numVertices; ++v)
        for (uint32_t e = graph.offsets[v]; e < graph.offsets[v + 1]; ++e)
            reversed.emplace_back(graph.targets[e], v);
    return sortedCsr(graph.numVertices, std::move(reversed));
}

void
expectSameGraph(const HostGraph &actual, const HostGraph &expected)
{
    EXPECT_EQ(actual.numVertices, expected.numVertices);
    EXPECT_EQ(actual.offsets, expected.offsets);
    EXPECT_EQ(actual.targets, expected.targets);
}

TEST(HostGraph, CountingBuildsMatchSortedPairsOnRandomEdgeLists)
{
    Xoshiro256StarStar rng(2024);
    for (int trial = 0; trial < 300; ++trial) {
        // Few vertices and many edges make duplicates common; many
        // vertices and few edges leave most rows empty.
        const auto n = static_cast<uint32_t>(rng.nextBounded(40));
        const uint32_t m =
            n == 0 ? 0 : static_cast<uint32_t>(rng.nextBounded(200));
        EdgeList edges;
        for (uint32_t e = 0; e < m; ++e) {
            auto src = static_cast<uint32_t>(rng.nextBounded(n));
            auto dst = rng.nextBounded(4) == 0
                           ? src // self-loop
                           : static_cast<uint32_t>(rng.nextBounded(n));
            edges.emplace_back(src, dst);
            if (rng.nextBounded(8) == 0)
                edges.emplace_back(src, dst); // duplicate edge
        }
        HostGraph graph = HostGraph::fromEdges(n, edges);
        SCOPED_TRACE("trial " + std::to_string(trial));
        expectSameGraph(graph, sortedCsr(n, edges));
        expectSameGraph(graph.transpose(), sortedTranspose(graph));
    }
}

TEST(HostGraph, CountingBuildsHandleEmptyGraphs)
{
    expectSameGraph(HostGraph::fromEdges(0, {}), sortedCsr(0, {}));
    HostGraph edgeless = HostGraph::fromEdges(5, {});
    expectSameGraph(edgeless, sortedCsr(5, {}));
    expectSameGraph(edgeless.transpose(), edgeless);
}

TEST(HostGraph, TransposeSortsRowsWhateverTheSourceOrder)
{
    // A hand-built graph whose rows are not ascending transposes to the
    // same graph as the sorted reference.
    HostGraph graph = genUniformRandom(64, 6, 5);
    Xoshiro256StarStar rng(9);
    for (uint32_t v = 0; v < graph.numVertices; ++v)
        for (uint32_t e = graph.offsets[v] + 1; e < graph.offsets[v + 1];
             ++e)
            std::swap(graph.targets[e],
                      graph.targets[graph.offsets[v] +
                                    rng.nextBounded(e - graph.offsets[v])]);
    expectSameGraph(graph.transpose(), sortedTranspose(graph));
}

// ---- guide-table search vs std::lower_bound --------------------------------

uint32_t
lowerBound(const std::vector<double> &cumulative, double u)
{
    return static_cast<uint32_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
}

/** Every query class against std::lower_bound on one table. */
void
expectGuideMatchesLowerBound(const std::vector<double> &cumulative,
                             Xoshiro256StarStar &rng)
{
    const CdfGuide guide(cumulative);
    const double total = cumulative.empty() ? 0 : cumulative.back();
    std::vector<double> queries = {0.0, -1.0, total,
                                   std::nextafter(total, 0.0),
                                   std::nextafter(total, 2 * total + 1),
                                   2 * total + 1};
    for (double c : cumulative) { // entries exactly, and either side
        queries.push_back(c);
        queries.push_back(std::nextafter(c, 0.0));
        queries.push_back(std::nextafter(c, 2 * total + 1));
    }
    for (int i = 0; i < 2000; ++i)
        queries.push_back(rng.nextDouble() * total);
    for (double u : queries)
        ASSERT_EQ(guide.find(u), lowerBound(cumulative, u))
            << "u = " << u << " of total " << total << " over "
            << cumulative.size() << " entries";
}

TEST(CdfGuide, MatchesLowerBoundOnZipfTables)
{
    Xoshiro256StarStar rng(11);
    for (uint32_t n : {1u, 2u, 3u, 17u, 1000u}) {
        for (double alpha : {0.0, 0.7, 1.5}) {
            // Zipf weights with a capped, flat head, as genPowerLaw
            // builds them.
            std::vector<double> cumulative(n);
            double total = 0;
            for (uint32_t v = 0; v < n; ++v) {
                double w = 1.0 / std::pow(static_cast<double>(v + 1), alpha);
                total += std::min(w, 0.3);
                cumulative[v] = total;
            }
            expectGuideMatchesLowerBound(cumulative, rng);
        }
    }
}

TEST(CdfGuide, MatchesLowerBoundWithRepeatsAndZeroWeights)
{
    Xoshiro256StarStar rng(13);
    for (int trial = 0; trial < 50; ++trial) {
        const auto n = 1 + static_cast<uint32_t>(rng.nextBounded(300));
        std::vector<double> cumulative(n);
        double total = 0;
        for (uint32_t v = 0; v < n; ++v) {
            // Zero weights repeat an entry; integer weights make
            // entries land exactly on bucket edges.
            uint64_t kind = rng.nextBounded(3);
            total += kind == 0   ? 0.0
                     : kind == 1 ? static_cast<double>(rng.nextBounded(5))
                                 : rng.nextDouble() * 1e-3;
            cumulative[v] = total;
        }
        expectGuideMatchesLowerBound(cumulative, rng);
    }
    // Degenerate tables: empty, and all-zero (no buckets at all).
    expectGuideMatchesLowerBound({}, rng);
    expectGuideMatchesLowerBound({0.0, 0.0, 0.0}, rng);
}

TEST(CdfGuide, MatchesLowerBoundOneUlpBelowEachBucketEdge)
{
    // Entries one ulp below each bucket's lower edge (the guide's own
    // n / total scale): rounding can put such an entry's bucket index one
    // too high, past its own rank, which only the definition check and
    // the full search get right.
    Xoshiro256StarStar rng(19);
    for (uint32_t n : {7u, 100u, 4096u}) {
        for (double total : {1.0, 3.0, 777.77, 262144.0 / 3, 1e-3}) {
            const double scale = n / total;
            std::vector<double> cumulative;
            for (uint32_t b = 1; b < n; ++b)
                cumulative.push_back(std::nextafter(b / scale, 0.0));
            cumulative.push_back(total);
            expectGuideMatchesLowerBound(cumulative, rng);
        }
    }
}

TEST(CdfGuide, ZipfSamplesMatchLowerBoundAtGraphMemSize)
{
    // genPowerLaw's table at the benchmark's graph size (Zipf 0.7
    // weights scaled to ~262K edges, capped at 64 x degree 16), sampled
    // the way the generator samples it.
    const uint32_t n = 16384;
    std::vector<double> cumulative(n);
    double total = 0;
    for (uint32_t v = 0; v < n; ++v) {
        total += std::min(1.0 / std::pow(v + 1.0, 0.7) * 4520.0, 1024.0);
        cumulative[v] = total;
    }
    const CdfGuide guide(cumulative);
    Xoshiro256StarStar rng(1);
    for (int i = 0; i < 300000; ++i) {
        const double u = rng.nextDouble() * total;
        ASSERT_EQ(guide.find(u), lowerBound(cumulative, u)) << "u = " << u;
    }
}

// ---- set-free row draws vs std::set ----------------------------------------

/** The old row draw: insert into a std::set until it holds count. */
std::vector<uint32_t>
setDraw(uint32_t count, uint32_t span, Xoshiro256StarStar &rng)
{
    std::set<uint32_t> picked;
    while (picked.size() < count)
        picked.insert(static_cast<uint32_t>(rng.nextBounded(span)));
    return {picked.begin(), picked.end()};
}

TEST(DistinctDraws, MatchSetInsertionRowByRow)
{
    Xoshiro256StarStar rng(17);
    for (uint32_t span : {1u, 2u, 7u, 64u, 2048u}) {
        DistinctDraws draws(span);
        Xoshiro256StarStar ours(span), theirs(span);
        for (int row = 0; row < 40; ++row) {
            // Every count class: none, one, sparse, dense, and the whole
            // span (a row that asks for every column).
            const uint32_t pick = static_cast<uint32_t>(rng.nextBounded(5));
            const uint32_t count =
                pick == 0   ? 0
                : pick == 1 ? std::min(1u, span)
                : pick == 2 ? static_cast<uint32_t>(rng.nextBounded(span + 1))
                : pick == 3 ? span - span / 8
                            : span;
            // The reused bitmap must also serve a narrower span.
            const uint32_t width =
                row % 3 == 0 ? span
                             : std::max(count, static_cast<uint32_t>(
                                                   rng.nextBounded(span + 1)));
            EXPECT_EQ(draws.draw(count, width, ours),
                      setDraw(count, width, theirs))
                << count << " of " << width;
            EXPECT_EQ(ours.next(), theirs.next()) << "draws consumed";
        }
    }
}

// ---- pinned generator outputs ----------------------------------------------

uint64_t
fnvBytes(uint64_t h, const void *data, size_t bytes)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename T>
uint64_t
fnvBytes(uint64_t h, const std::vector<T> &values)
{
    return fnvBytes(h, values.data(), values.size() * sizeof(T));
}

uint64_t
digestOf(const HostGraph &graph)
{
    uint64_t h = fnvBytes(0xcbf29ce484222325ULL, &graph.numVertices, 4);
    return fnvBytes(fnvBytes(h, graph.offsets), graph.targets);
}

uint64_t
digestOf(const HostCsr &csr)
{
    uint64_t h = fnvBytes(0xcbf29ce484222325ULL, &csr.rows, 4);
    h = fnvBytes(h, &csr.cols, 4);
    return fnvBytes(fnvBytes(fnvBytes(h, csr.rowPtr), csr.colIdx),
                    csr.values);
}

/** A generator at fixed sizes, with its output digest at seeds 1 and 2. */
template <typename Output>
struct Pinned
{
    const char *name;
    Output (*generate)(uint64_t seed);
    uint64_t digests[2];
};

// Recorded from the comparison-sort, binary-search and std::set
// generators: every byte of every generated input must stay the same.
const Pinned<HostGraph> kPinnedGraphs[] = {
    {"genUniformRandom(2048, 8)",
     [](uint64_t s) { return genUniformRandom(2048, 8, s); },
     {0x501b8eadc32dc75dull, 0xbc8d75e91ee04660ull}},
    {"genPowerLaw(4096, 16, 0.7)",
     [](uint64_t s) { return genPowerLaw(4096, 16, 0.7, s); },
     {0x9941bf974e07db0aull, 0xb262a2a8868c9632ull}},
    {"genBanded(2048, 12, 8)",
     [](uint64_t s) { return genBanded(2048, 12, 8, s); },
     {0x17529d1081179582ull, 0x41b3bd2d589e519bull}},
};

const Pinned<HostCsr> kPinnedMatrices[] = {
    {"genCsrUniform(1024, 1024, 12)",
     [](uint64_t s) { return genCsrUniform(1024, 1024, 12, s); },
     {0xef5548d2a7eee0eeull, 0x4cb1e99231a09b70ull}},
    {"genCsrPowerLaw(4096, 4096, 8, 0.7)",
     [](uint64_t s) { return genCsrPowerLaw(4096, 4096, 8, 0.7, s); },
     {0xf2ea593917e9c156ull, 0x5f9895f330912d71ull}},
    {"genCsrBanded(2048, 24, 8)",
     [](uint64_t s) { return genCsrBanded(2048, 24, 8, s); },
     {0xabfaa4dae3f8de01ull, 0xf7e0e87c5c0ead24ull}},
    {"genCsrBundle(2048, 2048, 8, 512, 4)",
     [](uint64_t s) { return genCsrBundle(2048, 2048, 8, 512, 4, s); },
     {0xe2ea898414bb3311ull, 0x75a892e64f1df62eull}},
};

TEST(GeneratorDigests, GraphsMatchPinnedOutput)
{
    for (const auto &pin : kPinnedGraphs)
        for (uint64_t seed : {1, 2})
            EXPECT_EQ(digestOf(pin.generate(seed)), pin.digests[seed - 1])
                << pin.name << " seed " << seed;
}

TEST(GeneratorDigests, MatricesMatchPinnedOutput)
{
    for (const auto &pin : kPinnedMatrices)
        for (uint64_t seed : {1, 2})
            EXPECT_EQ(digestOf(pin.generate(seed)), pin.digests[seed - 1])
                << pin.name << " seed " << seed;
}

// ---- graph generators ------------------------------------------------------

TEST(Generators, UniformRandomHasExactDegrees)
{
    HostGraph graph = genUniformRandom(256, 8, 1);
    EXPECT_EQ(graph.numVertices, 256u);
    EXPECT_EQ(graph.numEdges(), 256u * 8u);
    for (uint32_t v = 0; v < graph.numVertices; ++v)
        EXPECT_EQ(graph.degree(v), 8u);
}

TEST(Generators, UniformRandomDeterministicBySeed)
{
    HostGraph a = genUniformRandom(128, 4, 7);
    HostGraph b = genUniformRandom(128, 4, 7);
    HostGraph c = genUniformRandom(128, 4, 8);
    EXPECT_EQ(a.targets, b.targets);
    EXPECT_NE(a.targets, c.targets);
}

TEST(Generators, PowerLawIsSkewed)
{
    HostGraph graph = genPowerLaw(1024, 8, 1.0, 3);
    // Average degree near the request; max degree far above it.
    double average = static_cast<double>(graph.numEdges()) /
                     graph.numVertices;
    EXPECT_GT(average, 4.0);
    EXPECT_LT(average, 16.0);
    EXPECT_GT(graph.maxDegree(), 8u * 10u)
        << "power-law tail should dwarf the mean";
}

TEST(Generators, BandedStaysInBand)
{
    constexpr uint32_t kN = 512, kBand = 10;
    HostGraph graph = genBanded(kN, kBand, 6, 11);
    for (uint32_t v = 0; v < kN; ++v) {
        for (uint32_t e = graph.offsets[v]; e < graph.offsets[v + 1];
             ++e) {
            uint32_t w = graph.targets[e];
            uint32_t distance = v > w ? v - w : w - v;
            uint32_t wrapped = kN - distance;
            EXPECT_LE(std::min(distance, wrapped), kBand)
                << "edge (" << v << "," << w << ") leaves the band";
        }
    }
}

// ---- sim upload / download -------------------------------------------------

TEST(SimGraph, UploadPreservesStructure)
{
    MachineConfig cfg = MachineConfig::tiny();
    Machine machine(cfg);
    HostGraph graph = genUniformRandom(64, 4, 2);
    SimGraph sim = SimGraph::upload(machine, graph);
    EXPECT_EQ(sim.numVertices, graph.numVertices);
    EXPECT_EQ(sim.numEdges, graph.numEdges());
    auto offsets = downloadArray<uint32_t>(machine, sim.outOffsets,
                                           graph.numVertices + 1);
    EXPECT_EQ(offsets, graph.offsets);
    auto targets = downloadArray<uint32_t>(machine, sim.outTargets,
                                           graph.numEdges());
    EXPECT_EQ(targets, graph.targets);
}

/** Bytes [base - 64, base + bytes + 64) of @p machine's DRAM. */
std::vector<uint8_t>
dramBytesAround(Machine &machine, Addr base, uint64_t bytes)
{
    std::vector<uint8_t> out;
    for (Addr a = base - 64; a < base + bytes + 64; ++a)
        out.push_back(machine.mem().peekAs<uint8_t>(a));
    return out;
}

TEST(ArrayTransfers, BulkMatchesPerElementByteForByte)
{
    // Two machines take the same allocations; one moves whole arrays,
    // the other pokes and peeks element by element. The bytes around
    // each array, a dirty block before the first one included, must
    // come through untouched.
    Machine bulk(MachineConfig::tiny()), each(MachineConfig::tiny());
    Xoshiro256StarStar rng(3);
    std::vector<float> floats(1001);
    for (float &f : floats)
        f = static_cast<float>(rng.nextDouble() * 2.0 - 1.0);
    std::vector<uint8_t> bytes(37);
    for (uint8_t &b : bytes)
        b = static_cast<uint8_t>(rng.next());
    const std::vector<uint64_t> words = {1, ~0ull, 0x0123456789abcdefull};
    for (Machine *m : {&bulk, &each}) {
        Addr before = m->dramAlloc(64, 64);
        for (Addr a = before; a < before + 64; ++a)
            m->mem().pokeAs<uint8_t>(a, 0xa5);
    }

    auto upload = [&](const auto &values) {
        using T = typename std::decay_t<decltype(values)>::value_type;
        Addr base = uploadArray(bulk, values);
        Addr twin = each.dramAlloc(values.size() * sizeof(T), 64);
        ASSERT_EQ(base, twin);
        for (size_t i = 0; i < values.size(); ++i)
            each.mem().pokeAs<T>(twin + static_cast<Addr>(i * sizeof(T)),
                                 values[i]);
        const uint64_t size = values.size() * sizeof(T);
        EXPECT_EQ(dramBytesAround(bulk, base, size),
                  dramBytesAround(each, twin, size));
        std::vector<T> per_element(values.size());
        for (size_t i = 0; i < values.size(); ++i)
            per_element[i] = each.mem().peekAs<T>(
                twin + static_cast<Addr>(i * sizeof(T)));
        EXPECT_EQ(downloadArray<T>(bulk, base, values.size()), per_element);
        EXPECT_EQ(per_element, values);
    };
    upload(floats);
    upload(bytes);
    upload(words);
    upload(std::vector<uint32_t>{}); // empty: an allocation, no bytes

    // Zeroing reuses a freed, dirty block: it must be a real write.
    for (Machine *m : {&bulk, &each}) {
        Addr dirty = m->dramAlloc(4096, 64);
        for (Addr a = dirty; a < dirty + 4096; ++a)
            m->mem().pokeAs<uint8_t>(a, 0x5a);
        m->dramFree(dirty);
    }
    Addr zeros = allocZeroArray<uint32_t>(bulk, 700);
    Addr twin = each.dramAlloc(700 * sizeof(uint32_t), 64);
    ASSERT_EQ(zeros, twin);
    for (uint32_t i = 0; i < 700; ++i)
        each.mem().pokeAs<uint32_t>(twin + i * 4, 0);
    EXPECT_EQ(dramBytesAround(bulk, zeros, 2800),
              dramBytesAround(each, twin, 2800));
    EXPECT_EQ(downloadArray<uint32_t>(bulk, zeros, 700),
              std::vector<uint32_t>(700, 0));
}

// ---- matrices ---------------------------------------------------------------

TEST(HostDense, MultiplyReference)
{
    HostDense a(2, 3), b(3, 2);
    // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
    float av[] = {1, 2, 3, 4, 5, 6}, bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(std::begin(av), std::end(av), a.data.begin());
    std::copy(std::begin(bv), std::end(bv), b.data.begin());
    HostDense c = a.multiply(b);
    EXPECT_FLOAT_EQ(c.at(0, 0), 58.f);
    EXPECT_FLOAT_EQ(c.at(0, 1), 64.f);
    EXPECT_FLOAT_EQ(c.at(1, 0), 139.f);
    EXPECT_FLOAT_EQ(c.at(1, 1), 154.f);
}

TEST(HostDense, TransposeReference)
{
    HostDense a = genDenseRandom(5, 9, 3);
    HostDense t = a.transposed();
    EXPECT_EQ(t.rows, 9u);
    EXPECT_EQ(t.cols, 5u);
    for (uint32_t r = 0; r < a.rows; ++r)
        for (uint32_t c = 0; c < a.cols; ++c)
            EXPECT_EQ(a.at(r, c), t.at(c, r));
}

TEST(HostCsr, MultiplyMatchesDense)
{
    HostCsr sparse = genCsrUniform(32, 24, 5, 9);
    std::vector<float> x(24);
    Xoshiro256StarStar rng(4);
    for (float &value : x)
        value = static_cast<float>(rng.nextDouble());
    std::vector<float> y = sparse.multiply(x);

    // Cross-check against an explicit dense expansion.
    for (uint32_t r = 0; r < sparse.rows; ++r) {
        float expected = 0;
        for (uint32_t e = sparse.rowPtr[r]; e < sparse.rowPtr[r + 1]; ++e)
            expected += sparse.values[e] * x[sparse.colIdx[e]];
        EXPECT_FLOAT_EQ(y[r], expected);
    }
}

TEST(HostCsr, TransposeRoundTrip)
{
    HostCsr a = genCsrUniform(40, 30, 6, 17);
    HostCsr tt = a.transposed().transposed();
    EXPECT_EQ(tt.rowPtr, a.rowPtr);
    EXPECT_EQ(tt.colIdx, a.colIdx);
    EXPECT_EQ(tt.values, a.values);
}

TEST(CsrGenerators, UniformRowCounts)
{
    HostCsr csr = genCsrUniform(100, 80, 7, 21);
    for (uint32_t r = 0; r < csr.rows; ++r)
        EXPECT_EQ(csr.rowNnz(r), 7u);
    // Columns must be sorted and unique within a row.
    for (uint32_t r = 0; r < csr.rows; ++r)
        for (uint32_t e = csr.rowPtr[r] + 1; e < csr.rowPtr[r + 1]; ++e)
            EXPECT_LT(csr.colIdx[e - 1], csr.colIdx[e]);
}

TEST(CsrGenerators, PowerLawRowsAreSkewed)
{
    HostCsr csr = genCsrPowerLaw(1024, 1024, 8, 1.0, 23);
    uint32_t max_nnz = 0;
    for (uint32_t r = 0; r < csr.rows; ++r)
        max_nnz = std::max(max_nnz, csr.rowNnz(r));
    EXPECT_GT(max_nnz, 60u);
}

TEST(CsrGenerators, BandedStaysInBand)
{
    HostCsr csr = genCsrBanded(256, 8, 5, 31);
    for (uint32_t r = 0; r < csr.rows; ++r)
        for (uint32_t e = csr.rowPtr[r]; e < csr.rowPtr[r + 1]; ++e) {
            uint32_t c = csr.colIdx[e];
            uint32_t distance = r > c ? r - c : c - r;
            EXPECT_LE(distance, 8u);
        }
}

TEST(CsrGenerators, BundleHasDenseRows)
{
    HostCsr csr = genCsrBundle(512, 512, 8, 128, 4, 37);
    uint32_t dense_count = 0;
    for (uint32_t r = 0; r < csr.rows; ++r)
        if (csr.rowNnz(r) >= 64)
            ++dense_count;
    EXPECT_EQ(dense_count, 8u);
}

TEST(SimDense, UploadDownloadRoundTrip)
{
    Machine machine(MachineConfig::tiny());
    HostDense host = genDenseRandom(12, 17, 5);
    SimDense sim = SimDense::upload(machine, host);
    HostDense back = sim.download(machine);
    EXPECT_EQ(back.data, host.data);
}

TEST(SimCsr, UploadDownloadRoundTrip)
{
    Machine machine(MachineConfig::tiny());
    HostCsr host = genCsrUniform(20, 20, 4, 6);
    SimCsr sim = SimCsr::upload(machine, host);
    HostCsr back = sim.download(machine);
    EXPECT_EQ(back.rowPtr, host.rowPtr);
    EXPECT_EQ(back.colIdx, host.colIdx);
    EXPECT_EQ(back.values, host.values);
}

} // namespace
} // namespace spmrt
