/**
 * @file
 * Negative-path tests: guard rails that must panic (death tests) and
 * less-travelled API semantics (all AMO operations, bulk-access edge
 * cases, address-map bounds).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <regex>
#include <stdexcept>
#include <string>

#include "mem/alloc.hpp"
#include "sim/machine.hpp"
#include "spm/layout.hpp"
#include "spm/stack.hpp"

namespace spmrt {
namespace {

using DeathTest = ::testing::Test;

/**
 * Run @p setup, which must throw the std::runtime_error a setup check
 * raises, with a message matching @p pattern. Setup checks throw so a
 * fleet job can report them as setup_failure; uncaught, they end a
 * standalone run with their message.
 */
template <typename F>
void
expectSetupError(F setup, const char *pattern)
{
    try {
        setup();
    } catch (const std::runtime_error &error) {
        EXPECT_TRUE(std::regex_search(error.what(), std::regex(pattern)))
            << "'" << error.what() << "' does not match '" << pattern
            << "'";
        return;
    }
    ADD_FAILURE() << "no setup error matching '" << pattern << "'";
}

TEST(ErrorsDeathTest, UnmappedAddressPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine machine(MachineConfig::tiny());
    EXPECT_DEATH(machine.mem().peekAs<uint32_t>(0x0000'1234),
                 "unmapped address");
}

TEST(ErrorsDeathTest, SpmOutOfBoundsPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MachineConfig cfg = MachineConfig::tiny();
    Machine machine(cfg);
    Addr past_end = machine.mem().map().spmBase(0) + cfg.spmBytes - 2;
    EXPECT_DEATH(machine.mem().peekAs<uint32_t>(past_end),
                 "past implemented");
}

TEST(ErrorsDeathTest, DoubleFreePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RangeAllocator heap(0x1000, 4096);
    Addr block = heap.alloc(64, 8);
    heap.release(block);
    EXPECT_DEATH(heap.release(block), "unallocated");
}

TEST(ErrorsDeathTest, FreeOfUnknownAddressPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    RangeAllocator heap(0x1000, 4096);
    EXPECT_DEATH(heap.release(0x1008), "unallocated");
}

TEST(ErrorsDeathTest, StackPopOfEmptyPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine machine(MachineConfig::tiny());
    Addr buf = machine.dramAlloc(4096);
    StackConfig cfg;
    cfg.spmLow = machine.mem().map().spmBase(0);
    cfg.spmTop = cfg.spmLow + 256;
    cfg.dramBase = buf;
    cfg.dramBytes = 4096;
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        StackModel stack(core, cfg);
        EXPECT_DEATH(stack.pop(), "pop of empty");
    });
}

TEST(ErrorsDeathTest, OversizedSpmLayoutIsFatal)
{
    MachineConfig cfg = MachineConfig::tiny();
    expectSetupError([&] { SpmLayout(cfg, 4096, 512); }, "overflows");
}

TEST(ErrorsDeathTest, UnalignedAmoPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Machine machine(MachineConfig::tiny());
    Addr dram = machine.dramAlloc(16);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        EXPECT_DEATH(core.amoAdd(dram + 2, 1), "unaligned AMO");
    });
}

// ---- AMO semantics -----------------------------------------------------------

TEST(AmoSemantics, AllOperationsComputeCorrectly)
{
    Machine machine(MachineConfig::tiny());
    Addr cell = machine.dramAlloc(4);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        auto reset = [&](uint32_t value) {
            core.store<uint32_t>(cell, value);
        };

        reset(10);
        EXPECT_EQ(core.amo(cell, AmoOp::Add, 5), 10u);
        EXPECT_EQ(core.load<uint32_t>(cell), 15u);

        reset(0xf0);
        EXPECT_EQ(core.amo(cell, AmoOp::Or, 0x0f), 0xf0u);
        EXPECT_EQ(core.load<uint32_t>(cell), 0xffu);

        reset(0xff);
        EXPECT_EQ(core.amo(cell, AmoOp::And, 0x0f), 0xffu);
        EXPECT_EQ(core.load<uint32_t>(cell), 0x0fu);

        reset(7);
        EXPECT_EQ(core.amo(cell, AmoOp::Max, 3), 7u);
        EXPECT_EQ(core.load<uint32_t>(cell), 7u);
        EXPECT_EQ(core.amo(cell, AmoOp::Max, 11), 7u);
        EXPECT_EQ(core.load<uint32_t>(cell), 11u);

        reset(7);
        EXPECT_EQ(core.amo(cell, AmoOp::Min, 3), 7u);
        EXPECT_EQ(core.load<uint32_t>(cell), 3u);

        // Min/Max are signed (RV32 amomin/amomax).
        reset(static_cast<uint32_t>(-5));
        EXPECT_EQ(core.amo(cell, AmoOp::Max, 2),
                  static_cast<uint32_t>(-5));
        EXPECT_EQ(core.load<uint32_t>(cell), 2u);

        reset(3);
        EXPECT_EQ(core.amo(cell, AmoOp::Swap, 99), 3u);
        EXPECT_EQ(core.load<uint32_t>(cell), 99u);
    });
}

TEST(AmoSemantics, AddWrapsModulo32Bits)
{
    Machine machine(MachineConfig::tiny());
    Addr cell = machine.dramAlloc(4);
    machine.mem().pokeAs<uint32_t>(cell, 0xffffffffu);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        EXPECT_EQ(core.amoAdd(cell, 2), 0xffffffffu);
        EXPECT_EQ(core.load<uint32_t>(cell), 1u);
        // Negative delta == subtraction (the runtime's rc decrement).
        EXPECT_EQ(core.amoAdd(cell, -1), 1u);
        EXPECT_EQ(core.load<uint32_t>(cell), 0u);
    });
}

// ---- bulk access edge cases -----------------------------------------------------

TEST(BulkAccess, UnalignedSpansAcrossLineBoundaries)
{
    Machine machine(MachineConfig::tiny());
    Addr dram = machine.dramAlloc(512, 64);
    std::vector<uint8_t> pattern(200);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i ^ 0x5a);
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        // Start 13 bytes into a line so chunks straddle boundaries.
        core.write(dram + 13, pattern.data(), pattern.size());
        std::vector<uint8_t> readback(pattern.size());
        core.read(dram + 13, readback.data(), readback.size());
        EXPECT_EQ(readback, pattern);
    });
}

// ---- machine-geometry validation -----------------------------------------
//
// MachineConfig::validate() is the single choke point for inconsistent
// geometries: Machine's constructor calls it before any layer sizes
// itself from the config, so every broken free parameter must fail setup
// with a diagnostic naming the parameter — never a mis-sized array later.

TEST(ErrorsDeathTest, ZeroMeshDimensionPanics)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.meshRows = 0;
    expectSetupError([&] { Machine machine(cfg); },
                     "mesh has a zero dimension");
}

TEST(ErrorsDeathTest, RucheXWiderThanMeshPanics)
{
    MachineConfig cfg = MachineConfig::tiny(); // 4x2 mesh
    cfg.rucheX = 4;
    expectSetupError([&] { Machine machine(cfg); },
                     "ruche factor X=4 >= mesh width");
}

TEST(ErrorsDeathTest, RucheYTallerThanMeshPanics)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.rucheY = 2;
    expectSetupError([&] { Machine machine(cfg); },
                     "ruche factor Y=2 >= mesh height");
}

TEST(ErrorsDeathTest, NonPowerOfTwoSpmWindowPanics)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.spmWindowBytes = 0x1800;
    expectSetupError([&] { Machine machine(cfg); },
                     "not a power of two");
}

TEST(ErrorsDeathTest, SpmLargerThanWindowPanics)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.spmBytes = 8192; // > the 4 KiB window stride
    expectSetupError([&] { Machine machine(cfg); },
                     "exceed the 4096-byte window");
}

TEST(ErrorsDeathTest, IndivisibleLlcBankSplitPanics)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.llcBanks = 3; // TopBottom placement needs an even count
    expectSetupError([&] { Machine machine(cfg); },
                     "3 LLC banks not divisible across 2 edge rows");
}

TEST(ErrorsDeathTest, ZeroDramChannelsPanics)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.dramChannels = 0;
    expectSetupError([&] { Machine machine(cfg); },
                     "zero DRAM channels");
}

TEST(ErrorsDeathTest, ZeroDramBandwidthPanics)
{
    MachineConfig cfg = MachineConfig::tiny();
    cfg.dramBytesPerCycle = 0;
    expectSetupError([&] { Machine machine(cfg); },
                     "zero DRAM bandwidth");
}

TEST(ErrorsDeathTest, UncaughtSetupErrorEndsTheRunWithItsMessage)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    MachineConfig cfg = MachineConfig::tiny();
    cfg.llcBanks = 3;
    // A standalone tool catches nothing: the noexcept frame stands in for
    // its main(), and the process must end with the diagnostic.
    EXPECT_DEATH([&]() noexcept { Machine machine(cfg); }(),
                 "3 LLC banks not divisible across 2 edge rows");
}

TEST(ErrorsDeathTest, MalformedMachineEnvSpecIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ::setenv("SPMRT_MACHINE", "16x", 1);
            MachineConfig cfg = MachineConfig::fromEnv(MachineConfig{});
            (void)cfg;
        },
        "SPMRT_MACHINE");
}

TEST(MachineSpec, PresetsAndOverridesParse)
{
    MachineConfig cfg;
    std::string error;
    ASSERT_TRUE(MachineConfig::fromSpec("big256", cfg, error)) << error;
    EXPECT_EQ(cfg.numCores(), 256u);
    EXPECT_EQ(cfg.dramChannels, 2u);
    EXPECT_EQ(cfg.rucheY, 3u);

    ASSERT_TRUE(
        MachineConfig::fromSpec("16x16, rx=3, ry=2, llc=16, place=t, "
                                "ch=4, bw=20, spm=4096, win=8192",
                                cfg, error))
        << error;
    EXPECT_EQ(cfg.meshCols, 16u);
    EXPECT_EQ(cfg.meshRows, 16u);
    EXPECT_EQ(cfg.rucheY, 2u);
    EXPECT_EQ(cfg.llcBanks, 16u);
    EXPECT_EQ(cfg.llcPlacement, LlcPlacement::Top);
    EXPECT_EQ(cfg.dramChannels, 4u);
    EXPECT_EQ(cfg.dramBytesPerCycle, 20u);
    EXPECT_EQ(cfg.spmWindowBytes, 8192u);

    EXPECT_FALSE(MachineConfig::fromSpec("paper, bogus=1", cfg, error));
    EXPECT_FALSE(MachineConfig::fromSpec("notapreset", cfg, error));
    EXPECT_FALSE(MachineConfig::fromSpec("", cfg, error));
}

TEST(MachineSpec, EveryPresetValidatesAndRoundTripsGeometry)
{
    for (const MachineConfig &cfg :
         {MachineConfig::paper(), MachineConfig::tiny(),
          MachineConfig::small(), MachineConfig::big256(),
          MachineConfig::big1024()}) {
        cfg.validate();
        EXPECT_FALSE(cfg.geometry().empty());
    }
    // The paper default's canonical geometry string is part of the
    // BENCH_host_perf.json row identity; pin it.
    EXPECT_EQ(MachineConfig{}.geometry(),
              "16x8-rx3-ry0-llc32tb-d1x10-spm4096w4096");
}

TEST(BulkAccess, SpmToSpmCopyStaysLocal)
{
    Machine machine(MachineConfig::tiny());
    machine.run([&](Core &core) {
        if (core.id() != 0)
            return;
        uint64_t before = machine.mem().stats().dramLoads;
        uint8_t buffer[64] = {1, 2, 3};
        core.write(core.spmBase(), buffer, sizeof(buffer));
        core.read(core.spmBase(), buffer, sizeof(buffer));
        EXPECT_EQ(machine.mem().stats().dramLoads, before);
    });
}

} // namespace
} // namespace spmrt
