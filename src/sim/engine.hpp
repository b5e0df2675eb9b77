/**
 * @file
 * Deterministic discrete-event execution engine.
 *
 * Every simulated core runs guest code on its own coroutine and keeps a
 * local clock. The engine's scheduling invariant is: only the runnable core
 * with the globally minimal local timestamp executes globally visible
 * operations. Guest code reaches a @e sync @e point before every such
 * operation (loads, AMOs, remote stores); if the core is not the minimum it
 * yields and is resumed once it is. Local compute merely advances the local
 * clock with no context switch.
 *
 * Because the host scheduler is a deterministic argmin (ties broken by core
 * id), the entire simulation — including lock acquisition order and steal
 * interleavings — is reproducible run-to-run.
 *
 * The argmin is maintained in a winner tree with one leaf per core keyed
 * by (time, id), so the tie-break is structural: picking the next core is
 * an O(1) root read and every clock mutation is an O(log N) path replay
 * instead of the historical O(N) scan per context switch. Two fast paths
 * ride on it:
 *
 *  - syncPoint keeps the minimum clock among *other* runnable cores cached
 *    (exact, maintained incrementally), so the common case — the running
 *    core still holds the global minimum — is a single compare with no
 *    scan and no context switch;
 *  - a yielding core switches guest-to-guest directly to the next argmin
 *    core instead of bouncing through the scheduler context, halving host
 *    context switches (watchdog and perturbation hooks run inline on the
 *    yielding side).
 *
 * The original linear-scan scheduler is retained, runtime-selectable, as
 * the equivalence oracle (see setReferenceScheduler); both produce
 * bit-identical results, cycle counts, and switch counts by construction,
 * and tests/test_engine_equiv.cpp enforces it.
 *
 * Schedule exploration (perturbSchedule) deliberately loosens the argmin:
 * among candidates whose clocks lie within a window of the global minimum,
 * the scheduler picks one with a seeded RNG, and syncPoint admits any core
 * within that window. Each seed is one alternative — still perfectly
 * reproducible — interleaving of the same program: lock races resolve
 * differently, steals hit different victims. Sweeping seeds with the
 * ConcurrencyChecker armed turns the simulator into a protocol fuzzer.
 *
 * Globally visible memory operations that do not target the issuing
 * core's own scratchpad commit a uniform delta after their issue gate,
 * in (commit time, core id) order, through a per-core capture FIFO and
 * the engine's commit queue (see Core::executeHeadOp and DESIGN.md
 * Sec. 10).
 */

#ifndef SPMRT_SIM_ENGINE_HPP
#define SPMRT_SIM_ENGINE_HPP

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "sim/abort.hpp"
#include "sim/context.hpp"
#include "sim/winner_tree.hpp"

namespace spmrt {

class Core;

/**
 * Coroutine scheduler with per-core virtual clocks.
 */
class Engine
{
  public:
    /** Sentinel commit time: the op FIFO is empty. */
    static constexpr Cycles kNoPendingOp =
        std::numeric_limits<Cycles>::max();

    /**
     * Why a core is parked. Guest wakes (unblock) only release Barrier
     * parks; Commit parks wait for the core's own captured op to commit
     * and Drain parks wait for its posted stores to land — both are
     * released by the commit path (commitWake), never by guests. The
     * distinction matters because a guest wake can race a target that is
     * still waiting on its own commit: the wake must then be held
     * pending, not applied to the wrong park.
     */
    enum class ParkKind : uint8_t { Barrier = 0, Drain = 1, Commit = 2 };

    /**
     * @param num_cores number of simulated cores.
     * @param host_stack_bytes host stack size for each core's coroutine.
     */
    Engine(uint32_t num_cores, size_t host_stack_bytes);

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Install the guest body executed by core @p id during run(). */
    void setBody(CoreId id, std::function<void()> body);

    /** Execute all installed bodies to completion. */
    void run();

    /** Local clock of core @p id. */
    Cycles time(CoreId id) const { return slots_[id].time; }

    /** Advance core @p id's clock by @p dt cycles (local compute). */
    void
    advance(CoreId id, Cycles dt)
    {
        Slot &slot = slots_[id];
        slot.time += dt;
        // Only the running core advances itself on the hot path; any
        // other clock change (phase barriers, tests) must be reflected
        // in the ready tree and the high-water mark immediately.
        if (id != running_)
            foreignClockChange(slot);
    }

    /** Move core @p id's clock forward to @p t if @p t is later. */
    void
    advanceTo(CoreId id, Cycles t)
    {
        Slot &slot = slots_[id];
        if (t > slot.time) {
            slot.time = t;
            if (id != running_)
                foreignClockChange(slot);
        }
    }

    /**
     * Block until core @p id holds the minimal clock among unfinished
     * cores. Guest code must call this immediately before any globally
     * visible operation.
     */
    void syncPoint(CoreId id);

    /** Unconditionally return control to the scheduler. */
    void yield(CoreId id);

    /**
     * Park core @p id: it is removed from scheduling until a wake
     * arrives. Used by barriers to model cores sleeping rather than
     * burning spin cycles, and by the capture path for cores waiting on
     * their own remote-op commit (ParkKind::Commit) or posted-store
     * drain (ParkKind::Drain). A Barrier park with a pending guest wake
     * consumes the wake and returns immediately without parking.
     */
    void block(CoreId id, ParkKind kind = ParkKind::Barrier);

    /**
     * Guest wake: release core @p id from a Barrier park at time @p t
     * (or its own clock if later). If the target is not Barrier-parked —
     * it is runnable but has not reached its park yet, or it is still
     * waiting on its own commit/drain — the wake is recorded as pending
     * and consumed by the target's next Barrier block(). Each target
     * must consume a pending wake before the waker can post another
     * (true for barrier episodes, the only guest-wake user).
     */
    void unblock(CoreId id, Cycles t);

    /**
     * Commit-path wake: @p t > 0 releases a Commit park (blocking
     * capture done at @p t); @p t == 0 releases a Drain park (the
     * core's last posted store landed). Panics if the target is parked
     * for any other reason.
     */
    void commitWake(CoreId id, Cycles t);

    /** True when core @p id's body has returned. */
    bool finished(CoreId id) const { return slots_[id].finished; }

    /** Core currently executing guest code (or kInvalidCore). */
    CoreId running() const { return running_; }

    /** Number of context switches performed (diagnostics). */
    uint64_t switchCount() const { return switches_; }

    /** Number of syncPoint() calls observed (diagnostics). */
    uint64_t syncPointCount() const { return syncPoints_; }

    /** Attach (or detach, with nullptr) the timeline tracer. */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** The attached tracer, or nullptr. */
    obs::Tracer *tracer() const { return tracer_; }

    /**
     * Largest clock reached by any core so far. O(1): the engine folds
     * every suspended core's clock into a high-water mark at each switch
     * point, so only the running core (if any) can be ahead of it.
     */
    Cycles
    maxTime() const
    {
        Cycles t = highWater_;
        if (running_ != kInvalidCore && slots_[running_].time > t)
            t = slots_[running_].time;
        return t;
    }

    /**
     * @name Scheduler selection
     *
     * The winner-tree scheduler is the default. The original O(N)
     * linear-scan scheduler is kept, selectable at runtime, as the
     * equivalence oracle: same argmin, same tie-break, same RNG
     * consumption under perturbation, so results, cycle counts, and
     * switch counts are bit-identical between the two. Each new Engine
     * starts on the reference when the SPMRT_ENGINE_REFERENCE environment
     * variable is 1.
     * @{
     */
    void
    setReferenceScheduler(bool reference)
    {
        SPMRT_ASSERT(running_ == kInvalidCore,
                     "cannot switch scheduler while guest code runs");
        referenceMode_ = reference;
    }

    /** True while the linear-scan oracle scheduler is selected. */
    bool referenceScheduler() const { return referenceMode_; }
    /** @} */

    /**
     * @name Remote-operation commit queue
     *
     * Cores capture globally visible memory operations (anything not
     * targeting their own scratchpad) into per-core FIFOs and schedule
     * the head's commit key here; the engine executes each op exactly
     * when its (commit time, issuer id) key is globally next, so both
     * schedulers commit in the same order. An op whose commit key is
     * already globally next may instead run inline at the issue site
     * (remoteInlineOk), which keeps the fast path free of context
     * switches.
     * @{
     */

    /** Register @p core as the committer of the ops core @p id issues. */
    void
    setCore(CoreId id, Core *core)
    {
        if (cores_.size() < numCores_)
            cores_.resize(numCores_, nullptr);
        cores_[id] = core;
    }

    /**
     * Announce that core @p issuer's op FIFO just became non-empty with
     * a head committing at @p commit. At most one pending entry per
     * issuer exists at any time (the FIFO head).
     */
    void scheduleRemoteOp(CoreId issuer, Cycles commit);

    /**
     * True when an op issued now by core @p id committing at @p commit
     * is already globally next — no other runnable gate strictly before
     * @p commit and no pending op with a smaller commit key — so the
     * issue site may execute it inline with no capture and no switch.
     */
    bool
    remoteInlineOk(CoreId id, Cycles commit)
    {
        // An empty queue's root is kAbsent, which no real key exceeds.
        if (commits_.min() < packKey(id, commit))
            return false;
        Cycles other =
            referenceMode_ ? minOtherTime(id) : cachedOtherMin_;
        return other >= commit;
    }
    /** @} */

    /**
     * @name Hang watchdog
     *
     * Once armed, every dispatch checks whether any progress (a
     * noteProgress() call, normally one per completed task) happened
     * within the last @p max_cycles simulated cycles. If none did, run()
     * throws a SimAbort on the host stack carrying its own per-core
     * state table plus @p dump — turning a silent infinite hang into a
     * diagnosable failure. An aborted engine is dead (interrupted guest
     * stacks stay suspended): catch the SimAbort, read the report, and
     * destroy the Machine. Arming with 0 disables the watchdog.
     * @{
     */
    void
    armWatchdog(Cycles max_cycles, std::function<std::string()> dump)
    {
        wdCycles_ = max_cycles;
        wdDump_ = std::move(dump);
        noteProgressAt(maxTime());
    }

    /** Disarm the watchdog. */
    void
    disarmWatchdog()
    {
        wdCycles_ = 0;
        hangAt_ = kNoHang;
        wdDump_ = nullptr;
    }

    /** Record forward progress (called by the runtime per task retired). */
    void
    noteProgress()
    {
        noteProgressAt(running_ == kInvalidCore ? maxTime()
                                                : slots_[running_].time);
    }
    /** @} */

    /**
     * @name Schedule exploration
     *
     * Enable seeded perturbation of the ready-core order: the scheduler
     * picks uniformly among runnable cores whose clocks are within
     * @p window cycles of the global minimum (window 0 still perturbs
     * exact ties), and syncPoint admits cores within the same window.
     * Timing results under perturbation are *different* valid
     * interleavings, not noise — each seed is fully reproducible. The RNG
     * discipline matches FaultPlan: one generator, seeded once, consumed
     * only by scheduling decisions.
     * @{
     */
    void
    perturbSchedule(uint64_t seed, Cycles window = 0)
    {
        schedPerturb_ = true;
        schedWindow_ = window;
        schedRng_ = Xoshiro256StarStar(hash64(seed ^ 0x5c4ed01eULL));
    }

    /** @} */

  private:
    struct Slot
    {
        // Hot scheduling fields first: syncPoint/advance touch time and
        // the flags on every simulated operation, the rest only on
        // switches and (re)initialization.
        Cycles time = 0;
        CoreId id = kInvalidCore;
        bool finished = false;
        bool blocked = false;
        bool hasBody = false;
        ParkKind park = ParkKind::Barrier;
        // A guest wake that arrived while the core was not Barrier-parked
        // (still runnable, or waiting on its own commit/drain): the next
        // Barrier block() consumes it instead of parking.
        bool wakePending = false;
        Cycles wakeTime = 0;
        GuestContext ctx;
        std::function<void()> body;
        // No back-pointer to the engine: the coroutine entry point
        // receives the Engine* as its argument and identifies its slot
        // via running_ on first activation (see entryThunk).
    };

    /**
     * Winner-tree key: (time, id) packed into one word as
     * (time << idShift_) | id, so the lexicographic (time, id) compare —
     * lowest wins, ties favor lower id — is a single branch-free integer
     * compare. The packing is exact while time < 2^(64 - idShift_) - 1;
     * with id widths of ≤16 bits that is ~2.8e14 simulated cycles, far
     * beyond any run, and packKey asserts it. The bound also keeps every
     * real key below WinnerTree::kAbsent, whose keyTime() is therefore
     * later than any real time.
     */
    using PackedKey = WinnerTree::Key;

    static constexpr Cycles kNoOtherCore =
        std::numeric_limits<Cycles>::max();
    /** hangAt_ of a disarmed watchdog: no dispatch time exceeds it. */
    static constexpr Cycles kNoHang = std::numeric_limits<Cycles>::max();

    static void entryThunk(void *opaque);

    void
    noteProgressAt(Cycles t)
    {
        progressTime_ = t;
        hangAt_ = wdCycles_ == 0 ? kNoHang : t + wdCycles_;
    }

    /**
     * Out-of-line watchdog expiry for a dispatch at @p next_time: record
     * a pending SimAbort; the caller unwinds to run(), which throws it.
     */
    void raiseHang(Cycles next_time);

    /** Per-core engine state table + the armed runtime dump, if any. */
    std::string stateDump() const;

    /** Throw the recorded pending abort (clears it first). */
    [[noreturn]] void throwPendingAbort();

    /** Minimal clock among unfinished cores other than @p self (O(N);
     *  reference scheduler only). */
    Cycles minOtherTime(CoreId self) const;

    /** @name Remote-op commit queue internals
     *
     * commits_ is a winner tree holding each issuer's FIFO head as a
     * packed (commit time, issuer id) key at the issuer's leaf (at most
     * one pending entry per issuer). cachedEventMin_ mirrors the root's
     * time (kNoOtherCore when empty) for the syncPoint fast-path compare.
     * @{
     */

    /** Commit time of the earliest pending op (kNoOtherCore when none). */
    Cycles eventMinTime() const { return cachedEventMin_; }

    /** Pop and execute the earliest pending op; reschedules the issuer's
     *  next head, if any. */
    void executeOneEvent();

    /** Execute every pending op with commit time <= @p limit. */
    void
    drainDueEvents(Cycles limit)
    {
        while (cachedEventMin_ <= limit)
            executeOneEvent();
    }

    /** Execute every pending op unconditionally (end of run). */
    void drainAllEvents();
    /** @} */

    /** Fold a suspended core's clock into the high-water mark. */
    void
    foldHighWater(Cycles t)
    {
        if (t > highWater_)
            highWater_ = t;
    }

    /** Slow path for clock changes on a non-running core. */
    void foreignClockChange(Slot &slot);

    /** The original O(N) linear-scan scheduling loop (oracle). */
    void runReference();

    /** Body-return bookkeeping for the current core. */
    void finishCurrent(Slot &slot);

    /**
     * Pick the next core to run (ready-tree root, or a seeded
     * within-window candidate under perturbation), run the watchdog
     * check, and switch from @p from into it. Called with all ready keys
     * fresh.
     */
    void dispatchFrom(GuestContext &from);

    /** Next core per the strict or perturbed policy (asserts progress). */
    Slot *pickNext();

    /** @name Packed (time, id) keys of both winner trees
     *  @{ */
    PackedKey
    packKey(CoreId id, Cycles t) const
    {
        SPMRT_ASSERT(t <= maxPackTime_,
                     "clock %llu overflows the packed (time, id) key",
                     static_cast<unsigned long long>(t));
        return (static_cast<PackedKey>(t) << idShift_) | id;
    }

    CoreId keyId(PackedKey key) const
    {
        return static_cast<CoreId>(key & idMask_);
    }

    Cycles keyTime(PackedKey key) const { return key >> idShift_; }

    /** Queue (or requeue) runnable core @p id at clock @p t. */
    void readySet(CoreId id, Cycles t) { ready_.set(id, packKey(id, t)); }

    /** Min time over runnable cores excluding @p self; kNoOtherCore when
     *  none. */
    Cycles
    readyMinTimeExcluding(CoreId self) const
    {
        const PackedKey key = ready_.minExcluding(self);
        return key == WinnerTree::kAbsent ? kNoOtherCore : keyTime(key);
    }

    /** Ids within @p window of the root's time, ascending (an id-ordered
     *  leaf scan; fills candidateIds_). */
    void collectWindowCandidates();
    /** @} */

    GuestContext schedCtx_;
    std::unique_ptr<Slot[]> slots_; ///< contiguous, one indirection
    uint32_t numCores_ = 0;
    CoreId running_ = kInvalidCore;
    uint32_t live_ = 0;
    uint64_t switches_ = 0;
    uint64_t syncPoints_ = 0;
    size_t stackBytes_;
    bool referenceMode_;

    // Remote-op commit queue (see the public @name block).
    WinnerTree commits_; ///< issuer id -> packed (commit time, id) head
    std::vector<Core *> cores_; ///< issuer id -> its Core (commits ops)
    Cycles cachedEventMin_ = kNoOtherCore;

    // Winner-tree scheduler state.
    WinnerTree ready_;       ///< core id -> packed (time, id) if runnable
    uint32_t idShift_ = 0;   ///< bits reserved for the id field
    PackedKey idMask_ = 0;   ///< low idShift_ bits
    Cycles maxPackTime_ = 0; ///< largest packable clock value
    /**
     * Exact minimum clock among runnable cores other than running_,
     * recomputed at every dispatch and min-folded on unblock. Exactness
     * holds because suspended cores' clocks are frozen: only the running
     * core can change the runnable-other set (by waking a core), and that
     * path updates the cache. syncPoint's no-scan fast path compares
     * against this value.
     */
    Cycles cachedOtherMin_ = kNoOtherCore;
    Cycles highWater_ = 0; ///< max clock ever folded (see maxTime())

    // Watchdog state. wdCycles_ of 0 = disarmed. A dispatch past hangAt_
    // (progressTime_ + wdCycles_, or kNoHang when disarmed) is a hang:
    // the per-dispatch check is that one compare.
    Cycles wdCycles_ = 0;
    Cycles hangAt_ = kNoHang;
    std::function<std::string()> wdDump_;
    Cycles progressTime_ = 0;

    // Pending watchdog abort, thrown once run() is back on the host stack.
    bool abortPending_ = false;
    std::string abortSummary_;
    std::string abortDump_;

    obs::Tracer *tracer_ = nullptr;

    // Schedule-exploration state.
    bool schedPerturb_ = false;
    Cycles schedWindow_ = 0;
    Xoshiro256StarStar schedRng_;
    std::vector<Slot *> schedCandidates_; ///< scratch (reference scan)
    std::vector<CoreId> candidateIds_;    ///< scratch (leaf scan)
};

} // namespace spmrt

#endif // SPMRT_SIM_ENGINE_HPP
