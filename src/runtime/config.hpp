/**
 * @file
 * Runtime configuration: the data-placement variants evaluated in the
 * paper plus tunable overhead knobs, and the runtime's fixed bookkeeping
 * constants.
 *
 * The six runtime configurations of Table 1 map to:
 *  - Static runtime, stack in DRAM:  StaticRuntime + stackInSpm=false
 *  - Static runtime, stack in SPM:   StaticRuntime + stackInSpm=true
 *  - WS, both in DRAM (naive):       RuntimeConfig::naive()
 *  - WS, DRAM stack + SPM queue:     RuntimeConfig::queueOnly()
 *  - WS, SPM stack + DRAM queue:     RuntimeConfig::stackOnly()
 *  - WS, both in SPM:                RuntimeConfig::full()
 */

#ifndef SPMRT_RUNTIME_CONFIG_HPP
#define SPMRT_RUNTIME_CONFIG_HPP

#include <cstdint>
#include <string>

#include "common/log.hpp"

namespace spmrt {

/**
 * @name Exponential-backoff bounds (cycles)
 *
 * Shared by the queue lock's spin loop and the worker's steal-retry
 * loop: wait kBackoffMinCycles after the first failure, double on each
 * subsequent failure, saturate at kBackoffMaxCycles. The bounds are
 * aggressive — idle cores poll hard, which is what the paper's inflated
 * dynamic-instruction counts on work-stealing runs reflect (Sec. 6:
 * "these instructions are executed by idle cores ... not part of the
 * critical path").
 * @{
 */
inline constexpr uint32_t kBackoffMinCycles = 4;
inline constexpr uint32_t kBackoffMaxCycles = 64;
/** @} */

/** Bytes of SPM (or DRAM, for a DRAM queue) per task queue (paper: 512). */
inline constexpr uint32_t kQueueBytes = 512;

/**
 * Callee-saved words spilled per runtime stack frame (RV32 calling
 * convention: ra plus a few s-registers for task bodies).
 */
inline constexpr uint32_t kRegSaveWords = 4;

/** Seed of the per-core victim-selection RNGs (core i: seed * 7919 + i). */
inline constexpr uint64_t kVictimSeed = 0x5eed;

/**
 * Victim-selection policy for stealing. The paper uses Random
 * (choose_victim in Fig. 4); the alternatives are extensions evaluated
 * by the victim-policy ablation: Nearest probes mesh-adjacent cores
 * first (cheap steals, but work diffuses slowly across the chip),
 * RoundRobin sweeps victims cyclically.
 */
enum class VictimPolicy : uint8_t
{
    Random,
    Nearest,
    RoundRobin
};

/**
 * Placement and overhead knobs for either runtime.
 */
struct RuntimeConfig
{
    /** Call stacks live in SPM (with DRAM overflow) rather than DRAM. */
    bool stackInSpm = true;
    /** Task queues live at a fixed SPM offset rather than in DRAM. */
    bool queueInSpm = true;
    /**
     * Duplicate read-only captured data to the executing core instead of
     * repeatedly loading it from the home core's SPM (Sec. 4.3). The
     * paper enables this for all work-stealing configurations.
     */
    bool roDuplication = true;
    /** Charge the 2-instruction software overflow check (Fib-S). */
    bool swOverflowCheck = false;
    /**
     * Model the naive DRAM-resident table of queue pointers (tq[] in
     * Fig. 4a): thieves pay one DRAM load to locate a victim's queue.
     * Automatically true when queueInSpm is false; can be forced on for
     * the queue-addressing ablation.
     */
    bool queuePointerTable = false;

    /** Bytes of SPM reserved by the application via spm_reserve(). */
    uint32_t userSpmReserve = 0;
    /** Per-core DRAM overflow stack size (paper default: 256 KB). */
    uint32_t dramStackBytes = 256 * 1024;

    /**
     * Hang watchdog bound: a work-stealing run aborts with a structured
     * dump when no task retires for this many simulated cycles (0
     * disables the watchdog). The default is far beyond any legitimate
     * stall — DRAM round trips are hundreds of cycles — so only a
     * genuine quiescence failure trips it.
     */
    uint64_t watchdogCycles = 200'000'000;

    /**
     * Number of cores that participate in execution (0 = all). Used by
     * the scaling study (Fig. 11): the machine keeps its full mesh and
     * memory system, but only the first N cores run workers.
     */
    uint32_t activeCores = 0;

    /** How thieves pick victims (paper: Random). */
    VictimPolicy victimPolicy = VictimPolicy::Random;

    /**
     * Work *dealing* instead of work stealing: spawns are pushed to
     * peers' queues round-robin at creation time and idle cores never
     * steal — the approach of Zakkak et al. [JTRES'16] that the paper's
     * related work contrasts with. Balances only at spawn time, so
     * late-developing imbalance goes uncorrected (see the dealing
     * ablation).
     */
    bool workDealing = false;

    /** Work-stealing variant with both stack and queue in DRAM. */
    static RuntimeConfig
    naive()
    {
        RuntimeConfig cfg;
        cfg.stackInSpm = false;
        cfg.queueInSpm = false;
        cfg.queuePointerTable = true;
        return cfg;
    }

    /** Stack in DRAM, queue in SPM. */
    static RuntimeConfig
    queueOnly()
    {
        RuntimeConfig cfg;
        cfg.stackInSpm = false;
        cfg.queueInSpm = true;
        return cfg;
    }

    /** Stack in SPM, queue in DRAM. */
    static RuntimeConfig
    stackOnly()
    {
        RuntimeConfig cfg;
        cfg.stackInSpm = true;
        cfg.queueInSpm = false;
        cfg.queuePointerTable = true;
        return cfg;
    }

    /** Both stack and queue in SPM (the paper's best variant). */
    static RuntimeConfig
    full()
    {
        return RuntimeConfig{};
    }

    /** Short label used by benches and tables. */
    std::string
    name() const
    {
        std::string label;
        label += stackInSpm ? "spm-stack" : "dram-stack";
        label += "/";
        label += queueInSpm ? "spm-queue" : "dram-queue";
        if (swOverflowCheck)
            label += "/sw-ovf";
        if (!roDuplication)
            label += "/no-rodup";
        return label;
    }

    /**
     * Every field, in declaration order: the runtime's part of a fleet
     * job's spec key (FleetServer::specKeyFor). Two configs that differ
     * in any field must not share a key, so a new field belongs here
     * too.
     */
    std::string
    key() const
    {
        return log::format(
            "ss%d/qs%d/rd%d/ov%d/pt%d/ur%u/ds%u/wd%llu/a%u/vp%u/dl%d",
            stackInSpm, queueInSpm, roDuplication, swOverflowCheck,
            queuePointerTable, userSpmReserve, dramStackBytes,
            static_cast<unsigned long long>(watchdogCycles), activeCores,
            static_cast<unsigned>(victimPolicy), workDealing);
    }
};

} // namespace spmrt

#endif // SPMRT_RUNTIME_CONFIG_HPP
