/**
 * @file
 * ConcurrencyChecker: a shadow-memory correctness oracle for the runtime's
 * work-stealing protocol.
 *
 * The lock-protected SPM task queue (Sec. 4.1–4.3) is only correct under
 * subtle invariants: every queue-metadata mutation happens inside a lock
 * critical section, the lock-free emptiness probe is a single atomic
 * 8-byte load, read-only duplicated capture environments are never written
 * after the one-time copy, and no guest write lands in another frame's
 * callee-save/canary area. End-to-end workload results exercise these only
 * indirectly; the checker turns each of them into a directly observable
 * violation with a structured report.
 *
 * Mechanism — a happens-before race detector in the FastTrack style,
 * feasible here because the simulator is deterministic and single-threaded
 * on the host:
 *
 *  - every core carries a Lamport-style vector clock; the clock's own
 *    component is bumped at each release edge;
 *  - AMOs are acquire+release synchronization operations on their word:
 *    the core joins the word's sync clock, publishes its own, and is never
 *    itself race-checked (AMOs execute atomically at the home endpoint by
 *    construction);
 *  - Core::storeRelease() publishes (release-only), Core::loadSync()
 *    joins (acquire-only); both are exempt from race checks — they are
 *    the annotations for the protocol's sanctioned racy accesses (the
 *    head/tail probe, the termination-flag poll and broadcast);
 *  - every other timed access is checked per 4-byte word against a shadow
 *    cell recording the last writer (core, epoch, lock held, task, cycle)
 *    and the last read epoch per core. A conflicting pair that is not
 *    ordered by the happens-before relation is a race.
 *
 * Untimed poke/peek host accesses (setup, verification, the stack-canary
 * bookkeeping) are invisible to the checker, mirroring the fault-injection
 * philosophy: only architecturally real traffic counts.
 *
 * On top of the race detector sit two region checks:
 *  - RO_DUP: a range registered as read-only-duplicated flags any
 *    subsequent timed write (the duplication copy itself happens before
 *    registration);
 *  - STACK canary: each pushed frame's callee-save area is protected for
 *    the frame's lifetime; a timed write into it is frame corruption.
 *
 * Reports are deduplicated: one race per unordered core pair, one
 * violation per (core, protected range) — a single protocol bug produces a
 * single structured report instead of a cascade.
 *
 * Hot-path hooks are inline so spmrt_mem can call them without linking
 * against spmrt_sim (the same arrangement as FaultPlan). An unarmed
 * checker costs each hook site one null test; armed, the checker still
 * charges no cycles: enabling it never changes timing.
 */

#ifndef SPMRT_SIM_CHECKER_HPP
#define SPMRT_SIM_CHECKER_HPP

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

/** Always 1: the checker is part of every build. Kept only because
 *  benchmark provenance records it. */
#define SPMRT_CHECKER_ENABLED 1

namespace spmrt {

/** What a registered address range holds (for reports and write rules). */
enum class RegionKind : uint8_t
{
    Heap,  ///< DRAM heap allocation (data arrays, overflow stacks)
    Queue, ///< task-queue metadata: head/tail/lock/slots
    Stack, ///< a core's call-stack region (SPM or DRAM overflow)
    RoDup, ///< read-only duplicated capture environment (Sec. 4.3)
    Ctrl   ///< per-core runtime control word (termination flag)
};

/** Human-readable region kind. */
const char *regionKindName(RegionKind kind);

/**
 * The checker. One instance observes a whole machine; arm it through
 * Machine::armChecker() before constructing a runtime so region
 * registration is seen.
 */
class ConcurrencyChecker
{
  public:
    /** Violation categories, most severe first. */
    enum class ViolationKind : uint8_t
    {
        Race,            ///< unordered conflicting access pair
        RoDupWrite,      ///< write into a read-only duplicated range
        FrameCorruption, ///< write into a live frame's canary area
    };

    /** One structured violation report. */
    struct Violation
    {
        ViolationKind kind;
        Addr addr = kNullAddr;   ///< first offending word
        Cycles cycle = 0;        ///< offender's clock at the access
        CoreId core = kInvalidCore;  ///< offending core
        CoreId other = kInvalidCore; ///< prior accessor / region owner
        bool coreWrites = false;     ///< offender access was a write
        bool otherWrote = false;     ///< prior conflicting access was a write
        Addr coreLock = kNullAddr;   ///< lock the offender held (if any)
        Addr otherLock = kNullAddr;  ///< lock the prior accessor held
        RegionKind region = RegionKind::Heap;
        bool regionKnown = false;
        std::vector<uint32_t> taskTrace; ///< offender's task-id stack
        uint32_t otherTask = 0;          ///< prior accessor's task id

        /** Multi-line human-readable rendering. */
        std::string describe() const;
    };

    explicit ConcurrencyChecker(uint32_t num_cores);

    ConcurrencyChecker(const ConcurrencyChecker &) = delete;
    ConcurrencyChecker &operator=(const ConcurrencyChecker &) = delete;

    /** @name Region registry
     *  Static ranges (queues, stacks, heap allocations) registered once,
     *  and dynamic protections (frame canary areas, RO_DUP copies) that
     *  come and go with frame lifetimes.
     *  @{
     */

    /** Register a long-lived range; later registrations at the same base
     *  replace earlier ones (a queue carved from a heap allocation wins). */
    void registerRegion(RegionKind kind, Addr base, uint32_t bytes,
                        CoreId owner, Addr lock = kNullAddr);

    /** Protect [base, base+bytes): RoDup forbids writes by anyone,
     *  Stack marks a live frame's canary words. */
    void protectRange(RegionKind kind, Addr base, uint32_t bytes,
                      CoreId owner);

    /** Drop every protection whose base falls inside [base, base+bytes)
     *  (called when the enclosing frame pops). */
    void unprotectWithin(Addr base, uint32_t bytes);

    /** @} */

    /** @name Runtime annotations (reporting metadata + frame lifetime)
     *  @{
     */

    /** A core won @p lock (critical section opens). */
    void
    onLockAcquired(CoreId core, Addr lock)
    {
        locksHeld_[core].push_back(lock);
    }

    /** A core is about to release @p lock (critical section closes). */
    void
    onLockReleased(CoreId core, Addr lock)
    {
        auto &held = locksHeld_[core];
        if (!held.empty() && held.back() == lock)
            held.pop_back();
    }

    /** A frame was pushed; protect its canary area of @p protect_bytes. */
    void
    onFramePush(CoreId core, Addr base, uint32_t protect_bytes)
    {
        if (protect_bytes > 0)
            protectRange(RegionKind::Stack, base, protect_bytes, core);
    }

    /** A frame of @p bytes at @p base popped; drop its protections. */
    void
    onFramePop(CoreId core, Addr base, uint32_t bytes)
    {
        (void)core;
        unprotectWithin(base, bytes);
    }

    /** A core started executing a task (queue id, 0 for root/inline). */
    void
    onTaskBegin(CoreId core, uint32_t task_id)
    {
        taskStacks_[core].push_back(task_id);
    }

    /** The innermost task on @p core finished. */
    void
    onTaskEnd(CoreId core)
    {
        auto &trace = taskStacks_[core];
        if (!trace.empty())
            trace.pop_back();
    }

    /** @} */

    /** @name Hot-path access hooks (called by Core on timed accesses)
     *  @{
     */

    /** Plain timed load: race-checked; joins the word's sync clock. */
    void
    onLoad(CoreId core, Addr addr, uint32_t size, Cycles cycle)
    {
        for (Addr w = wordOf(addr); w < addr + size; w += 4)
            checkRead(core, w, cycle);
    }

    /** Plain timed store: protection- and race-checked. */
    void
    onStore(CoreId core, Addr addr, uint32_t size, Cycles cycle)
    {
        for (Addr w = wordOf(addr); w < addr + size; w += 4)
            checkWrite(core, w, cycle);
    }

    /** AMO: acquire+release on the word; exempt from race checks. */
    void
    onAmo(CoreId core, Addr addr, Cycles cycle)
    {
        (void)cycle;
        Addr w = wordOf(addr);
        auto &sync = sync_[w];
        Clock &vc = vc_[core];
        join(vc, sync);
        sync = vc;
        ++vc[core]; // release edge: later accesses are a new epoch
    }

    /** Synchronizing load (probe/poll): acquire-only, exempt. */
    void
    onLoadSync(CoreId core, Addr addr, uint32_t size)
    {
        for (Addr w = wordOf(addr); w < addr + size; w += 4) {
            auto it = sync_.find(w);
            if (it != sync_.end())
                join(vc_[core], it->second);
        }
    }

    /** Releasing store (flag broadcast): release-only, exempt. */
    void
    onStoreRelease(CoreId core, Addr addr)
    {
        Addr w = wordOf(addr);
        Clock &vc = vc_[core];
        join(sync_[w], vc);
        ++vc[core];
    }

    /** @} */

    /**
     * Host-level phase barrier: Machine::run()/syncClocks() aligns every
     * core's clock between timed episodes, which is a real global
     * synchronization of the methodology — order everything before the
     * barrier against everything after it so cross-episode data flow is
     * not misreported as racing.
     */
    void onPhaseBarrier();

    /** Violations recorded so far (deduplicated, in discovery order). */
    const std::vector<Violation> &violations() const { return violations_; }

    /** Number of violations of @p kind. */
    size_t countKind(ViolationKind kind) const;

    /** Multi-line report of every violation (empty string when clean). */
    std::string report() const;

    /** Timed words currently shadowed (diagnostics). */
    size_t shadowWords() const { return shadow_.size(); }

    /**
     * Forget shadow state, clocks, violations and dynamic protections but
     * keep registered regions — for reusing one machine across phases.
     */
    void resetDynamicState();

  private:
    using Clock = std::vector<uint64_t>;

    struct WordShadow
    {
        CoreId writer = kInvalidCore;
        uint64_t writeEpoch = 0;
        Addr writeLock = kNullAddr;
        uint32_t writeTask = 0;
        Cycles writeCycle = 0;
        /** (core, epoch) of the last read per core since the last write. */
        std::vector<std::pair<CoreId, uint64_t>> readers;
    };

    struct Region
    {
        RegionKind kind;
        Addr base;
        uint32_t bytes;
        CoreId owner;
        Addr lock;
    };

    static Addr wordOf(Addr addr) { return addr & ~Addr(3); }

    static void
    join(Clock &into, const Clock &from)
    {
        if (into.size() < from.size())
            into.resize(from.size(), 0);
        for (size_t i = 0; i < from.size(); ++i)
            if (from[i] > into[i])
                into[i] = from[i];
    }

    /** Region containing @p addr, or nullptr. */
    const Region *regionAt(const std::map<Addr, Region> &regions,
                           Addr addr) const;

    void checkRead(CoreId core, Addr word, Cycles cycle);
    void checkWrite(CoreId core, Addr word, Cycles cycle);

    /** Record a race between @p core and @p prior (one per core pair). */
    void reportRace(CoreId core, CoreId prior, Addr word, Cycles cycle,
                    bool core_writes, bool prior_wrote, Addr prior_lock,
                    uint32_t prior_task);

    /** Record a protected-range write (one per core x range). */
    void reportProtected(const Region &range, CoreId core, Addr word,
                         Cycles cycle);

    Addr lockHeld(CoreId core) const
    {
        const auto &held = locksHeld_[core];
        return held.empty() ? kNullAddr : held.back();
    }

    uint32_t currentTask(CoreId core) const
    {
        const auto &trace = taskStacks_[core];
        return trace.empty() ? 0 : trace.back();
    }

    uint32_t numCores_;
    std::vector<Clock> vc_;                  ///< per-core vector clocks
    std::unordered_map<Addr, Clock> sync_;   ///< sync-var clocks
    std::unordered_map<Addr, WordShadow> shadow_;
    std::map<Addr, Region> regions_;         ///< long-lived, by base
    std::map<Addr, Region> protected_;       ///< dynamic, by base
    std::vector<std::vector<Addr>> locksHeld_;
    std::vector<std::vector<uint32_t>> taskStacks_;
    std::vector<Violation> violations_;
    std::set<std::pair<CoreId, CoreId>> racePairs_;
    std::set<std::pair<CoreId, Addr>> protectedHits_;
};

} // namespace spmrt

#endif // SPMRT_SIM_CHECKER_HPP
