/**
 * @file
 * Unit tests for the memory subsystem: address map, allocator, NoC
 * contention, LLC behaviour, DRAM bandwidth server.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mem/address_map.hpp"
#include "mem/alloc.hpp"
#include "mem/dram.hpp"
#include "mem/llc.hpp"
#include "mem/memory_system.hpp"
#include "mem/noc.hpp"
#include "sim/machine.hpp"

namespace spmrt {
namespace {

TEST(AddressMap, DecodesSpmOwnership)
{
    MachineConfig cfg = MachineConfig::tiny();
    AddressMap map(cfg);
    for (CoreId id = 0; id < cfg.numCores(); ++id) {
        DecodedAddr d = map.decode(map.spmBase(id) + 16, 4);
        EXPECT_EQ(d.region, MemRegion::Spm);
        EXPECT_EQ(d.owner, id);
        EXPECT_EQ(d.offset, 16u);
    }
}

TEST(AddressMap, DecodesDram)
{
    MachineConfig cfg = MachineConfig::tiny();
    AddressMap map(cfg);
    DecodedAddr d = map.decode(AddressMap::kDramBase + 4096, 8);
    EXPECT_EQ(d.region, MemRegion::Dram);
    EXPECT_EQ(d.offset, 4096u);
}

TEST(AddressMap, SpmWindowsDisjoint)
{
    MachineConfig cfg = MachineConfig::tiny();
    AddressMap map(cfg);
    EXPECT_GE(map.spmBase(1), map.spmBase(0) + cfg.spmBytes);
}

TEST(RangeAllocator, AllocatesAligned)
{
    RangeAllocator heap(0x1000, 4096);
    Addr a = heap.alloc(100, 64);
    EXPECT_NE(a, kNullAddr);
    EXPECT_EQ(a % 64, 0u);
    Addr b = heap.alloc(100, 64);
    EXPECT_NE(b, kNullAddr);
    EXPECT_NE(a, b);
}

TEST(RangeAllocator, ExhaustsAndRecovers)
{
    RangeAllocator heap(0x1000, 1024);
    Addr a = heap.alloc(1024, 8);
    EXPECT_NE(a, kNullAddr);
    EXPECT_EQ(heap.alloc(8, 8), kNullAddr);
    heap.release(a);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    EXPECT_NE(heap.alloc(1024, 8), kNullAddr);
}

TEST(RangeAllocator, CoalescesFreedNeighbours)
{
    RangeAllocator heap(0x1000, 3 * 64);
    Addr a = heap.alloc(64, 8);
    Addr b = heap.alloc(64, 8);
    Addr c = heap.alloc(64, 8);
    ASSERT_NE(c, kNullAddr);
    heap.release(a);
    heap.release(c);
    heap.release(b); // middle block must merge with both neighbours
    EXPECT_NE(heap.alloc(3 * 64, 8), kNullAddr);
}

TEST(RangeAllocator, TracksUsage)
{
    RangeAllocator heap(0x100, 4096);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    Addr a = heap.alloc(128, 8);
    EXPECT_EQ(heap.bytesInUse(), 128u);
    EXPECT_EQ(heap.liveBlockCount(), 1u);
    heap.release(a);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    EXPECT_EQ(heap.liveBlockCount(), 0u);
}

TEST(Noc, LatencyGrowsWithDistance)
{
    MachineConfig cfg; // full 16x8 machine
    MeshNoc noc(cfg);
    NocEndpoint origin = noc.coreEndpoint(0);
    Cycles near = noc.traverse(origin, noc.coreEndpoint(1), 0, 4);
    noc.reset();
    Cycles far = noc.traverse(
        origin, noc.coreEndpoint(cfg.numCores() - 1), 0, 4);
    EXPECT_GT(far, near);
}

TEST(Noc, ZeroDistanceCostsSerializationOnly)
{
    MachineConfig cfg = MachineConfig::tiny();
    MeshNoc noc(cfg);
    NocEndpoint self = noc.coreEndpoint(0);
    Cycles t = noc.traverse(self, self, 100, 4);
    // No hops: just tail serialization of the payload flit.
    EXPECT_LE(t, 102u);
}

TEST(Noc, ContentionDelaysLaterPackets)
{
    MachineConfig cfg = MachineConfig::tiny();
    MeshNoc noc(cfg);
    NocEndpoint src = noc.coreEndpoint(0);
    NocEndpoint dst = noc.coreEndpoint(3);
    Cycles first = noc.traverse(src, dst, 0, 4);
    Cycles second = noc.traverse(src, dst, 0, 4);
    EXPECT_GT(second, first) << "same-cycle packets must queue on links";
}

TEST(Noc, RucheShortensLongStraights)
{
    MachineConfig with_ruche;
    with_ruche.rucheX = 3;
    MachineConfig no_ruche = with_ruche;
    no_ruche.rucheX = 0;

    MeshNoc fast(with_ruche), slow(no_ruche);
    NocEndpoint a = fast.coreEndpoint(0);
    NocEndpoint b = fast.coreEndpoint(15); // 15 columns east
    EXPECT_LT(fast.traverse(a, b, 0, 4), slow.traverse(a, b, 0, 4));
}

TEST(Noc, BankEndpointsOnEdgeRows)
{
    MachineConfig cfg;
    MeshNoc noc(cfg);
    NocEndpoint top = noc.bankEndpoint(0);
    NocEndpoint bottom = noc.bankEndpoint(cfg.llcBanks - 1);
    EXPECT_EQ(top.y, -1);
    EXPECT_EQ(bottom.y, static_cast<int32_t>(cfg.meshRows));
}

TEST(Llc, HitsAfterFill)
{
    MachineConfig cfg = MachineConfig::tiny();
    DramModel dram(cfg);
    LlcModel llc(cfg, dram);
    Cycles miss = llc.access(0, 0, 4, false);
    Cycles hit = llc.access(0, 0, 4, false);
    EXPECT_EQ(llc.misses(), 1u);
    EXPECT_EQ(llc.hits(), 1u);
    EXPECT_LT(hit, miss);
}

TEST(Llc, DistinctLinesMissSeparately)
{
    MachineConfig cfg = MachineConfig::tiny();
    DramModel dram(cfg);
    LlcModel llc(cfg, dram);
    llc.access(0, 0, 4, false);
    llc.access(0,
               MachineConfig::kLlcLineBytes * cfg.llcBanks *
                   cfg.llcSetsPerBank,
               4, false); // same set, different tag
    EXPECT_EQ(llc.misses(), 2u);
}

TEST(Llc, EvictsLruAndWritesBackDirty)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.llcWays = 2;
    cfg.llcSetsPerBank = 1;
    cfg.llcBanks = 2;
    DramModel dram(cfg);
    LlcModel llc(cfg, dram);
    uint64_t set_stride =
        static_cast<uint64_t>(MachineConfig::kLlcLineBytes) * cfg.llcBanks;

    llc.access(0, 0 * set_stride, 4, true);  // dirty A
    llc.access(0, 1 * set_stride, 4, false); // B
    llc.access(0, 2 * set_stride, 4, false); // evicts dirty A
    EXPECT_EQ(llc.writebacks(), 1u);

    llc.access(0, 0 * set_stride, 4, false); // A misses again
    EXPECT_EQ(llc.misses(), 4u);
}

TEST(Llc, OddBankCountOnOneEdgeStripes)
{
    // A single-edge placement admits bank counts the historical
    // top/bottom split could not (validate() only demands divisibility
    // across the chosen edge rows); the model stripes lines over any
    // nonzero count.
    MachineConfig cfg = MachineConfig::small();
    cfg.llcPlacement = LlcPlacement::Top;
    cfg.llcBanks = 5;
    cfg.validate();
    DramModel dram(cfg);
    LlcModel llc(cfg, dram);
    EXPECT_EQ(llc.numBanks(), 5u);
    for (uint32_t line = 0; line < 10; ++line) {
        uint64_t offset =
            static_cast<uint64_t>(line) * MachineConfig::kLlcLineBytes;
        EXPECT_EQ(llc.bankOf(offset), line % 5) << "line " << line;
        llc.access(0, offset, 4, false);
    }
    EXPECT_EQ(llc.misses(), 10u);
}

/**
 * The LLC timing model in its division-based form with a full-width way
 * record (separate tag, line, valid and dirty fields): the oracle for
 * LlcModel's shift/mask indexing and its 16-byte ways. Fault hooks and
 * per-bank counters are left out; the returned times and the hit, miss
 * and write-back totals are what must agree.
 */
class DivisionLlc
{
  public:
    DivisionLlc(const MachineConfig &cfg, DramModel &dram)
        : dram_(dram), numBanks_(cfg.llcBanks),
          lineBytes_(MachineConfig::kLlcLineBytes),
          sets_(cfg.llcSetsPerBank), ways_(cfg.llcWays),
          latency_(MachineConfig::kLlcLatency),
          occupancy_(MachineConfig::kLlcBankOccupancy),
          banks_(cfg.llcBanks, FluidServer(1)),
          tags_(static_cast<size_t>(cfg.llcBanks) * sets_ * ways_)
    {
    }

    uint32_t
    bankOf(uint64_t dram_offset) const
    {
        return static_cast<uint32_t>((dram_offset / lineBytes_) % numBanks_);
    }

    Cycles
    access(Cycles arrive, uint64_t dram_offset, bool is_store)
    {
        const uint64_t line = dram_offset / lineBytes_;
        const uint32_t bank = bankOf(dram_offset);
        const uint64_t in_bank = line / numBanks_;
        const uint64_t folded =
            in_bank ^ (in_bank / sets_) ^ (in_bank / sets_ / sets_);
        const auto index = static_cast<uint32_t>(folded % sets_);
        const uint64_t tag = in_bank / sets_;
        Cycles wait = banks_[bank].charge(arrive, occupancy_);
        Cycles done = arrive + wait + latency_;
        Way *ways = &tags_[(static_cast<size_t>(bank) * sets_ + index) *
                           ways_];
        ++useClock_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (ways[w].valid && ways[w].tag == tag) {
                ways[w].lastUse = useClock_;
                ways[w].dirty = ways[w].dirty || is_store;
                ++hits;
                return done;
            }
        }
        ++misses;
        uint32_t victim = 0;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (!ways[w].valid) {
                victim = w;
                break;
            }
            if (ways[w].lastUse < ways[victim].lastUse)
                victim = w;
        }
        if (ways[victim].valid && ways[victim].dirty) {
            dram_.access(done, ways[victim].line * lineBytes_, lineBytes_);
            ++writebacks;
        }
        Cycles filled = dram_.access(done, line * lineBytes_, lineBytes_);
        ways[victim] = Way{tag, line, useClock_, true, is_store};
        return filled;
    }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

  private:
    struct Way
    {
        uint64_t tag = ~0ull;
        uint64_t line = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    DramModel &dram_;
    uint32_t numBanks_, lineBytes_, sets_, ways_;
    Cycles latency_, occupancy_;
    std::vector<FluidServer> banks_;
    std::vector<Way> tags_;
    uint64_t useClock_ = 0;
};

TEST(Llc, MatchesDivisionModelOnEveryGeometry)
{
    struct Shape
    {
        uint32_t banks, sets, ways;
    };
    const Shape shapes[] = {
        {24, 48, 8}, // neither count a power of two
        {5, 32, 8},  // the one-edge 5-bank machine above
        {8, 24, 4},  // power-of-two banks, odd sets
        {32, 64, 8}, // the paper machine: the shift/mask path
        {4, 1, 2},   // one set per bank
    };
    for (const Shape &s : shapes) {
        MachineConfig cfg = MachineConfig::small();
        cfg.llcBanks = s.banks;
        cfg.llcSetsPerBank = s.sets;
        cfg.llcWays = s.ways;
        SCOPED_TRACE(cfg.geometry() + " sets " + std::to_string(s.sets));
        DramModel dram(cfg);
        DramModel oracle_dram(cfg);
        LlcModel llc(cfg, dram);
        DivisionLlc oracle(cfg, oracle_dram);

        // Random words over four times the cache's capacity (misses,
        // evictions and dirty write-backs), plus a 256 KiB stride like
        // the per-core overflow stacks (the XOR fold's reason to exist).
        const uint64_t lines =
            4ull * s.banks * s.sets * s.ways;
        Xoshiro256StarStar rng(s.banks * 131 + s.sets);
        Cycles t = 0;
        for (int i = 0; i < 20000; ++i) {
            uint64_t line = i % 4 == 3 ? (i / 4 % 64) * (256 * 1024 / 64)
                                       : rng.nextBounded(lines);
            uint64_t offset =
                line * MachineConfig::kLlcLineBytes +
                4 * rng.nextBounded(MachineConfig::kLlcLineBytes / 4);
            bool store = rng.nextBounded(3) == 0;
            t += rng.nextBounded(4);
            ASSERT_EQ(llc.bankOf(offset), oracle.bankOf(offset));
            ASSERT_EQ(llc.access(t, offset, 4, store),
                      oracle.access(t, offset, store))
                << "access " << i << " at offset " << offset;
        }
        EXPECT_EQ(llc.hits(), oracle.hits);
        EXPECT_EQ(llc.misses(), oracle.misses);
        EXPECT_EQ(llc.writebacks(), oracle.writebacks);
        EXPECT_GT(llc.hits(), 0u);
        EXPECT_GT(llc.writebacks(), 0u);
    }
}

TEST(Dram, BandwidthServerQueues)
{
    MachineConfig cfg;
    DramModel dram(cfg);
    Cycles first = dram.access(0, 0, 64);
    Cycles second = dram.access(0, 64, 64);
    EXPECT_GT(second, first) << "simultaneous transfers must serialize";
    EXPECT_EQ(dram.bytesMoved(), 128u);
}

TEST(Dram, LatencyDominatesSmallTransfers)
{
    MachineConfig cfg;
    DramModel dram(cfg);
    Cycles done = dram.access(0, 0, 4);
    EXPECT_GE(done, MachineConfig::kDramLatency);
}

TEST(Dram, LineInterleavesAcrossChannels)
{
    MachineConfig cfg;
    cfg.dramChannels = 4;
    DramModel dram(cfg);
    ASSERT_EQ(dram.numChannels(), 4u);
    // Consecutive LLC lines round-robin the channels; offsets within a
    // line stay on that line's channel.
    for (uint64_t line = 0; line < 16; ++line) {
        uint64_t offset = line * MachineConfig::kLlcLineBytes;
        EXPECT_EQ(dram.channelOf(offset), line % 4)
            << "line " << line;
        EXPECT_EQ(dram.channelOf(offset + MachineConfig::kLlcLineBytes - 1),
                  dram.channelOf(offset))
            << "line " << line;
    }
}

TEST(Dram, IndependentChannelsDoNotQueueEachOther)
{
    MachineConfig cfg;
    cfg.dramChannels = 2;
    DramModel dual(cfg);
    // Two same-cycle transfers to adjacent lines land on different
    // channels: neither waits, so both complete at the single-transfer
    // time. On a single channel the second must queue behind the first.
    Cycles a = dual.access(0, 0, 64);
    Cycles b = dual.access(0, 64, 64);
    EXPECT_EQ(a, b) << "adjacent lines should use disjoint channels";
    EXPECT_EQ(dual.channelBytes(0), 64u);
    EXPECT_EQ(dual.channelBytes(1), 64u);

    MachineConfig mono;
    DramModel single(mono);
    Cycles c = single.access(0, 0, 64);
    Cycles d = single.access(0, 64, 64);
    EXPECT_GT(d, c) << "one channel must serialize the pair";
}

TEST(Dram, SameChannelTrafficStillQueues)
{
    MachineConfig cfg;
    cfg.dramChannels = 2;
    DramModel dram(cfg);
    // Lines 0 and 2 both map to channel 0; the bus serializes them even
    // though channel 1 is idle.
    ASSERT_EQ(dram.channelOf(0),
              dram.channelOf(2 * MachineConfig::kLlcLineBytes));
    Cycles a = dram.access(0, 0, 64);
    Cycles b = dram.access(0, 2 * MachineConfig::kLlcLineBytes, 64);
    EXPECT_GT(b, a);
    EXPECT_EQ(dram.channelBytes(0), 128u);
    EXPECT_EQ(dram.channelBytes(1), 0u);
}

TEST(Dram, ResetClearsPerChannelCounters)
{
    MachineConfig cfg;
    cfg.dramChannels = 2;
    DramModel dram(cfg);
    dram.access(0, 0, 64);
    dram.access(0, 64, 64);
    dram.reset();
    EXPECT_EQ(dram.bytesMoved(), 0u);
    EXPECT_EQ(dram.channelBytes(0), 0u);
    EXPECT_EQ(dram.channelBytes(1), 0u);
    EXPECT_EQ(dram.channelBacklog(0), 0u);
}

// ---- derived address-map geometry --------------------------------------

TEST(AddressMap, WideSpmWindowStrideDecodes)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.spmBytes = 8192;
    cfg.spmWindowBytes = 16384;
    cfg.validate();
    AddressMap map(cfg);
    EXPECT_EQ(map.spmStride(), 16384u);
    for (CoreId id = 0; id < cfg.numCores(); ++id) {
        EXPECT_EQ(map.spmBase(id),
                  AddressMap::kSpmBase + static_cast<Addr>(id) * 16384u);
        DecodedAddr d = map.decode(map.spmBase(id) + 8000, 4);
        EXPECT_EQ(d.region, MemRegion::Spm);
        EXPECT_EQ(d.owner, id);
        EXPECT_EQ(d.offset, 8000u);
    }
}

TEST(AddressMap, DramMovesUpWhenSpmRegionOutgrowsTheDefaultBase)
{
    // 1024 cores at a 1 MiB window stride put the SPM region end at
    // 0x1000'0000 + 0x4000'0000, past the historical DRAM base; the map
    // must relocate DRAM above the SPM region instead of aliasing it.
    MachineConfig cfg = MachineConfig::big1024();
    cfg.spmWindowBytes = 1u << 20;
    cfg.dramBytes = 64ull * 1024 * 1024;
    cfg.validate();
    AddressMap map(cfg);
    EXPECT_GE(map.dramBase(), cfg.spmRegionEnd());
    EXPECT_GT(map.dramBase(), AddressMap::kDramBase);
    DecodedAddr d = map.decode(map.dramBase() + 64, 4);
    EXPECT_EQ(d.region, MemRegion::Dram);
    EXPECT_EQ(d.offset, 64u);
    // The last core's window still decodes to its owner.
    DecodedAddr s = map.decode(map.spmBase(cfg.numCores() - 1), 4);
    EXPECT_EQ(s.owner, cfg.numCores() - 1);
}

TEST(AddressMap, PaperGeometryKeepsHistoricalConstants)
{
    // The free-parameter map must be bit-identical on the paper machine:
    // the derived bases resolve to the historical constants every
    // existing setup path still references.
    AddressMap map((MachineConfig()));
    EXPECT_EQ(map.spmStride(), AddressMap::kSpmStride);
    EXPECT_EQ(map.dramBase(), AddressMap::kDramBase);
}

TEST(MemorySystem, PokePeekRoundTrip)
{
    Machine machine(MachineConfig::tiny());
    auto &mem = machine.mem();
    Addr dram = machine.dramAlloc(16);
    mem.pokeAs<uint64_t>(dram, 0x0123456789abcdefull);
    EXPECT_EQ(mem.peekAs<uint64_t>(dram), 0x0123456789abcdefull);

    Addr spm = mem.map().spmBase(3) + 8;
    mem.pokeAs<uint32_t>(spm, 0xa5a5a5a5u);
    EXPECT_EQ(mem.peekAs<uint32_t>(spm), 0xa5a5a5a5u);
}

TEST(MemorySystem, CountsAccessKinds)
{
    Machine machine(MachineConfig::tiny());
    Addr dram = machine.dramAlloc(8);
    Addr remote = machine.mem().map().spmBase(1);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        (void)core.load<uint32_t>(core.spmBase());
        core.store<uint32_t>(core.spmBase(), 1);
        (void)core.load<uint32_t>(remote);
        core.store<uint32_t>(remote, 2);
        (void)core.load<uint32_t>(dram);
        core.store<uint32_t>(dram, 3);
    });
    const MemStats &stats = machine.mem().stats();
    EXPECT_EQ(stats.localSpmLoads, 1u);
    EXPECT_EQ(stats.localSpmStores, 1u);
    EXPECT_EQ(stats.remoteSpmLoads, 1u);
    EXPECT_EQ(stats.remoteSpmStores, 1u);
    EXPECT_EQ(stats.dramLoads, 1u);
    EXPECT_EQ(stats.dramStores, 1u);
}

// ---- Decode fast path and burst accounting -------------------------------

/**
 * Regression for the retired one-entry decode cache: consecutive
 * accesses that alternate owners and regions at the *same* window
 * offset — the pattern a stale cache entry would mis-serve, and exactly
 * what scheduler interleaving produces — must decode correctly, and none
 * of them may fall off the computed fast decode.
 */
TEST(MemorySystem, DecodeHandlesInterleavedOwnersAndRegions)
{
    MachineConfig cfg = MachineConfig::tiny();
    MemorySystem mem(cfg);
    const AddressMap &map = mem.map();
    Addr dram = AddressMap::kDramBase + 64;

    for (CoreId id = 0; id < cfg.numCores(); ++id)
        mem.pokeAs<uint32_t>(map.spmBase(id) + 16, 0x1000u + id);
    mem.pokeAs<uint32_t>(dram, 0xdddd0000u);

    ASSERT_EQ(mem.decodeMisses(), 0u) << "pokes decode via the full map";
    Cycles t = 0;
    for (int round = 0; round < 3; ++round) {
        for (CoreId id = 0; id < cfg.numCores(); ++id) {
            uint32_t value = 0;
            t = mem.load(0, t, map.spmBase(id) + 16, &value, 4);
            EXPECT_EQ(value, 0x1000u + id);
            uint32_t dram_value = 0;
            t = mem.load(0, t, dram, &dram_value, 4);
            EXPECT_EQ(dram_value, 0xdddd0000u);
        }
    }
    EXPECT_EQ(mem.decodeMisses(), 0u)
        << "in-range accesses must never take the slow decode";
}

/** Old-style per-chunk burst, retained as the oracle for loadBurst(). */
BurstResult
chunkedLoad(MemorySystem &mem, CoreId core, Cycles issue, Addr addr,
            void *out, uint32_t bytes)
{
    constexpr uint32_t kChunk = MemorySystem::kMaxChunk;
    auto *dst = static_cast<uint8_t *>(out);
    BurstResult r;
    r.lastDone = issue;
    uint32_t offset = 0;
    while (offset < bytes) {
        uint32_t chunk =
            std::min(bytes - offset, kChunk - ((addr + offset) % kChunk));
        Cycles done =
            mem.load(core, issue, addr + offset, dst + offset, chunk);
        r.lastDone = std::max(r.lastDone, done);
        issue += 1;
        offset += chunk;
        ++r.chunks;
    }
    r.lastIssue = issue;
    return r;
}

/** Old-style per-chunk posted store, the oracle for storeBurst(). */
BurstResult
chunkedStore(MemorySystem &mem, CoreId core, Cycles issue, Addr addr,
             const void *in, uint32_t bytes)
{
    constexpr uint32_t kChunk = MemorySystem::kMaxChunk;
    const auto *src = static_cast<const uint8_t *>(in);
    BurstResult r;
    r.lastDone = issue;
    uint32_t offset = 0;
    while (offset < bytes) {
        uint32_t chunk =
            std::min(bytes - offset, kChunk - ((addr + offset) % kChunk));
        Cycles done =
            mem.store(core, issue, addr + offset, src + offset, chunk);
        r.lastDone = std::max(r.lastDone, done);
        issue += 1;
        offset += chunk;
        ++r.chunks;
    }
    r.lastIssue = issue;
    return r;
}

/** Compare loadBurst/storeBurst against per-chunk twins on @p addr. */
void
expectBurstMatchesChunked(Addr addr, uint32_t bytes, Cycles issue)
{
    MachineConfig cfg = MachineConfig::tiny();
    MemorySystem burst_mem(cfg);
    MemorySystem chunk_mem(cfg);
    std::vector<uint8_t> data(bytes);
    for (uint32_t i = 0; i < bytes; ++i)
        data[i] = static_cast<uint8_t>(i * 7 + 3);

    // Loads: poke the pattern, pull it back both ways. Byte-at-a-time:
    // untimed poke/peek decode their whole range at once, and a range
    // crossing a window boundary is only legal chunk-wise.
    for (uint32_t i = 0; i < bytes; ++i) {
        burst_mem.poke(addr + i, &data[i], 1);
        chunk_mem.poke(addr + i, &data[i], 1);
    }
    std::vector<uint8_t> got_burst(bytes, 0), got_chunk(bytes, 0);
    BurstResult a =
        burst_mem.loadBurst(0, issue, addr, got_burst.data(), bytes);
    BurstResult b =
        chunkedLoad(chunk_mem, 0, issue, addr, got_chunk.data(), bytes);
    EXPECT_EQ(got_burst, data);
    EXPECT_EQ(got_chunk, data);
    EXPECT_EQ(a.chunks, b.chunks);
    EXPECT_EQ(a.lastDone, b.lastDone);
    EXPECT_EQ(a.lastIssue, b.lastIssue);

    // Stores: push a second pattern both ways from the post-load state.
    for (uint32_t i = 0; i < bytes; ++i)
        data[i] = static_cast<uint8_t>(i * 13 + 1);
    Cycles issue2 = a.lastDone + 5;
    a = burst_mem.storeBurst(0, issue2, addr, data.data(), bytes);
    b = chunkedStore(chunk_mem, 0, issue2, addr, data.data(), bytes);
    EXPECT_EQ(a.chunks, b.chunks);
    EXPECT_EQ(a.lastDone, b.lastDone);
    EXPECT_EQ(a.lastIssue, b.lastIssue);
    EXPECT_EQ(burst_mem.storeDrainTime(0), chunk_mem.storeDrainTime(0));
    std::vector<uint8_t> readback(bytes);
    for (uint32_t i = 0; i < bytes; ++i)
        burst_mem.peek(addr + i, &readback[i], 1);
    EXPECT_EQ(readback, data);

    // Every counter the two systems kept must agree.
    EXPECT_EQ(burst_mem.stats().localSpmLoads,
              chunk_mem.stats().localSpmLoads);
    EXPECT_EQ(burst_mem.stats().localSpmStores,
              chunk_mem.stats().localSpmStores);
    EXPECT_EQ(burst_mem.stats().remoteSpmLoads,
              chunk_mem.stats().remoteSpmLoads);
    EXPECT_EQ(burst_mem.stats().remoteSpmStores,
              chunk_mem.stats().remoteSpmStores);
    EXPECT_EQ(burst_mem.stats().dramLoads, chunk_mem.stats().dramLoads);
    EXPECT_EQ(burst_mem.stats().dramStores, chunk_mem.stats().dramStores);
}

TEST(MemorySystem, LocalBurstMatchesPerChunkAccounting)
{
    MachineConfig cfg = MachineConfig::tiny();
    Addr base = AddressMap::kSpmBase; // core 0's window
    expectBurstMatchesChunked(base, 256, 10);       // aligned, multi-chunk
    expectBurstMatchesChunked(base + 24, 200, 0);   // unaligned start
    expectBurstMatchesChunked(base + 60, 8, 3);     // straddles one line
    expectBurstMatchesChunked(base + 100, 1, 7);    // single byte
    expectBurstMatchesChunked(base, cfg.spmBytes, 1); // whole window
}

TEST(MemorySystem, CrossWindowBurstMatchesPerChunkAccounting)
{
    // The SPM stride equals the window size, so a burst starting near
    // the end of core 0's window legally continues into core 1's. The
    // whole-burst fast path must bail out to the per-chunk path, which
    // splits the traffic local/remote exactly as chunked accesses would.
    Addr near_end = AddressMap::kSpmBase + 4096 - 96;
    expectBurstMatchesChunked(near_end, 192, 4);
    expectBurstMatchesChunked(near_end + 32, 96, 0);
}

TEST(MemorySystem, DramBurstMatchesPerChunkAccounting)
{
    expectBurstMatchesChunked(AddressMap::kDramBase + 128, 512, 2);
    expectBurstMatchesChunked(AddressMap::kDramBase + 40, 100, 9);
}

TEST(MemorySystem, ZeroByteBurstIsFree)
{
    MemorySystem mem(MachineConfig::tiny());
    BurstResult r = mem.loadBurst(0, 5, 0xdeadbeef, nullptr, 0);
    EXPECT_EQ(r.chunks, 0u);
    EXPECT_EQ(r.lastDone, 5u);
    r = mem.storeBurst(0, 6, 0xdeadbeef, nullptr, 0);
    EXPECT_EQ(r.chunks, 0u);
    EXPECT_EQ(r.lastIssue, 6u);
    EXPECT_EQ(mem.decodeMisses(), 0u)
        << "zero-byte bursts must not decode their (possibly bogus) address";
}

TEST(MemorySystem, RemoteLatencyGradientMatchesFig5)
{
    // Every core loads from core 0's SPM; farther cores must observe
    // latency no better than much closer cores on the same column path.
    MachineConfig cfg = MachineConfig::small(); // 8x4
    Machine machine(cfg);
    Addr hot = machine.mem().map().spmBase(0);
    std::vector<Cycles> latency(cfg.numCores(), 0);
    machine.run([&](Core &core) {
        // Everyone fires at t=0 to create the hot spot.
        Cycles t0 = core.now();
        (void)core.load<uint32_t>(hot);
        latency[core.id()] = core.now() - t0;
    });
    // Core 0 itself is fastest; the far corner is slower than a neighbour.
    CoreId corner = cfg.numCores() - 1;
    EXPECT_LT(latency[0], latency[1]);
    EXPECT_GT(latency[corner], latency[1]);
}

// ---- DRAM image backing -----------------------------------------------------

/** Mapped (@p resident false) or resident bytes of this process, from
 *  /proc/self/statm, or 0 if unknown. */
size_t
processBytes(bool resident)
{
    std::ifstream statm("/proc/self/statm");
    size_t mapped_pages = 0;
    size_t resident_pages = 0;
    if (!(statm >> mapped_pages >> resident_pages))
        return 0;
    return (resident ? resident_pages : mapped_pages) *
           static_cast<size_t>(::sysconf(_SC_PAGESIZE));
}

/** Host mappings of this process (/proc/self/maps lines), or 0. */
size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

TEST(MemorySystem, DramImageStartsZeroAndIsPrivate)
{
    MachineConfig cfg = MachineConfig::tiny();
    MemorySystem a(cfg);
    MemorySystem b(cfg);
    const Addr first = a.map().dramBase();
    const Addr last = first + static_cast<Addr>(cfg.dramBytes - 1);
    EXPECT_EQ(a.peekAs<uint8_t>(first), 0u);
    EXPECT_EQ(a.peekAs<uint8_t>(last), 0u);

    a.pokeAs<uint8_t>(last, 0xa5);
    EXPECT_EQ(a.peekAs<uint8_t>(last), 0xa5u);
    a.pokeAs<uint8_t>(first, 0x5a);
    EXPECT_EQ(b.peekAs<uint8_t>(first), 0u) << "images must not alias";
    EXPECT_EQ(b.peekAs<uint8_t>(last), 0u);
    b.pokeAs<uint8_t>(last, 0x3c);
    EXPECT_EQ(a.peekAs<uint8_t>(last), 0xa5u);
    EXPECT_EQ(b.peekAs<uint8_t>(last), 0x3cu);
}

/**
 * A machine costs the DRAM pages it touches, not its DRAM size: building
 * the 512 MiB big1024 image must not make it resident. A size assertion,
 * not a timing one.
 */
TEST(MemorySystem, LargeDramImageIsNotResidentUntilTouched)
{
    const size_t before = processBytes(true);
    if (before == 0)
        GTEST_SKIP() << "/proc/self/statm unavailable";
    MachineConfig cfg = MachineConfig::big1024();
    ASSERT_EQ(cfg.dramBytes, 512ull * 1024 * 1024);
    MemorySystem mem(cfg);
    const size_t after = processBytes(true);
    const size_t grown = after - std::min(before, after);
    EXPECT_LT(grown, 32u * 1024 * 1024)
        << "building the DRAM image made " << (grown >> 20)
        << " MiB resident";
    const Addr last = mem.map().dramBase() +
                      static_cast<Addr>(cfg.dramBytes - sizeof(uint32_t));
    mem.pokeAs<uint32_t>(last, 0xfeedf00du);
    EXPECT_EQ(mem.peekAs<uint32_t>(last), 0xfeedf00du);
}

/**
 * Building, running and tearing down machines (DRAM images and coroutine
 * stacks) returns every host mapping it made. Leaked neighbours with equal
 * permissions can merge into one /proc/self/maps line, so the mapped size
 * is bounded too: a leak would add a 64 MiB image per cycle.
 */
TEST(Machine, BuildRunTeardownLeaksNoMappings)
{
#if defined(SPMRT_ASAN)
    GTEST_SKIP() << "ASan's allocator maps quarantine memory as it grows";
#endif
    const MachineConfig cfg = MachineConfig::tiny();
    auto cycle = [&cfg] {
        Machine machine(cfg);
        machine.run([](Core &core) { core.tick(1); });
    };
    cycle(); // warm up allocator arenas and lazily built statics
    const size_t lines = mappingCount();
    const size_t mapped = processBytes(false);
    if (lines == 0 || mapped == 0)
        GTEST_SKIP() << "/proc/self/maps or statm unavailable";
    for (int i = 0; i < 64; ++i)
        cycle();
    EXPECT_EQ(mappingCount(), lines);
    EXPECT_LT(processBytes(false), mapped + cfg.dramBytes);
}

} // namespace
} // namespace spmrt
