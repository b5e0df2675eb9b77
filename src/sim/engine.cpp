#include "sim/engine.hpp"

#include "common/env.hpp"
#include "sim/core.hpp"

namespace spmrt {

/**
 * Starts on the fast winner-tree scheduler unless SPMRT_ENGINE_REFERENCE=1
 * selects the linear-scan reference, so one binary can serve as its own
 * oracle.
 */
Engine::Engine(uint32_t num_cores, size_t host_stack_bytes)
    : stackBytes_(host_stack_bytes),
      referenceMode_(env::boolValue("SPMRT_ENGINE_REFERENCE"))
{
    numCores_ = num_cores;
    slots_ = std::make_unique<Slot[]>(num_cores);
    for (uint32_t i = 0; i < num_cores; ++i)
        slots_[i].id = i;
    // Reserve enough id bits in the packed key for every core id. The
    // largest time stops one short of the all-ones pattern, so no real
    // key can equal WinnerTree::kAbsent.
    idShift_ = 1;
    while ((1u << idShift_) < num_cores)
        ++idShift_;
    idMask_ = (PackedKey(1) << idShift_) - 1;
    maxPackTime_ = (~PackedKey(0) >> idShift_) - 1;
    ready_.reset(num_cores);
    commits_.reset(num_cores);
}

void
Engine::setBody(CoreId id, std::function<void()> body)
{
    SPMRT_ASSERT(id < numCores_, "core id %u out of range", id);
    slots_[id].body = std::move(body);
    slots_[id].hasBody = true;
}

void
Engine::entryThunk(void *opaque)
{
    auto *engine = static_cast<Engine *>(opaque);
    // The first activation happens through a dispatch, so running_ names
    // this coroutine's core — no per-slot back-pointer needed.
    Slot *slot = &engine->slots_[engine->running_];
    // Each run() installs a fresh body; the coroutine parks between runs
    // so multi-phase benchmarks can reuse the machine (clocks persist).
    while (true) {
        slot->body();
        engine->finishCurrent(*slot);
    }
}

void
Engine::finishCurrent(Slot &slot)
{
    slot.finished = true;
    --live_;
    foldHighWater(slot.time);
    if (referenceMode_) {
        GuestContext::switchTo(slot.ctx, schedCtx_);
        return; // resumed by a later run()
    }
    ready_.erase(slot.id);
    if (live_ == 0) {
        // Last core out ends the run: hand control back to run().
        GuestContext::switchTo(slot.ctx, schedCtx_);
        return; // resumed by a later run()
    }
    dispatchFrom(slot.ctx);
    // Resumed by a later run(): fall through into the entryThunk loop.
}

void
Engine::run()
{
    live_ = 0;
    for (uint32_t i = 0; i < numCores_; ++i) {
        Slot &slot = slots_[i];
        if (!slot.hasBody) {
            slot.finished = true;
            continue;
        }
        slot.finished = false;
        slot.wakePending = false;
        slot.wakeTime = 0;
        if (!slot.ctx.valid())
            slot.ctx.init(stackBytes_, &Engine::entryThunk, this);
        ++live_;
    }

    if (referenceMode_) {
        runReference();
        running_ = kInvalidCore;
        if (abortPending_)
            throwPendingAbort();
        return;
    }

    // Build the ready tree over runnable cores (the key embeds the id
    // tie-break, so the argmin does not depend on insertion order).
    ready_.clear();
    for (uint32_t i = 0; i < numCores_; ++i) {
        if (!slots_[i].finished && !slots_[i].blocked)
            readySet(i, slots_[i].time);
    }

    // Dispatch chains run guest-to-guest; control only returns here once
    // the last live core finishes or a hang unwinds a dispatch back to
    // the scheduler context (the loop guards against nothing else).
    while (live_ > 0) {
        dispatchFrom(schedCtx_);
        running_ = kInvalidCore;
        if (abortPending_)
            throwPendingAbort();
    }
    running_ = kInvalidCore;
    // Posted stores captured near the end of the run commit here, so the
    // memory image is final when run() returns.
    drainAllEvents();
}

void
Engine::runReference()
{
    // The original linear-scan scheduler, kept as the equivalence oracle
    // for the winner-tree fast path (now including the remote-op commit
    // queue: ops commit exactly when their key is globally next).
    while (live_ > 0) {
        // Deterministic argmin over unfinished, unblocked cores; ties
        // favor lower id.
        Slot *next = nullptr;
        for (uint32_t i = 0; i < numCores_; ++i) {
            Slot &slot = slots_[i];
            if (slot.finished || slot.blocked)
                continue;
            if (next == nullptr || slot.time < next->time)
                next = &slot;
        }
        // A pending remote op whose commit time is at or before the
        // earliest gate is globally next (ops precede gates at equal
        // times); executing it may wake a blocked core, so re-scan.
        if (next == nullptr || cachedEventMin_ <= next->time) {
            if (!commits_.empty()) {
                executeOneEvent();
                continue;
            }
        }
        SPMRT_ASSERT(next != nullptr,
                     "deadlock: all %u live cores are blocked", live_);
        if (schedPerturb_) {
            // Seeded pick among cores within the window of the minimum.
            // Any candidate satisfies the window-relaxed syncPoint bound
            // (candidate.time <= min + window <= minOther + window), so
            // the pick always makes progress.
            schedCandidates_.clear();
            for (uint32_t i = 0; i < numCores_; ++i) {
                Slot &slot = slots_[i];
                if (slot.finished || slot.blocked)
                    continue;
                if (slot.time - next->time <= schedWindow_)
                    schedCandidates_.push_back(&slot);
            }
            if (schedCandidates_.size() > 1)
                next = schedCandidates_[schedRng_.nextBounded(
                    schedCandidates_.size())];
        }
        if (next->time > hangAt_) {
            raiseHang(next->time);
            return; // pending abort: run() throws on this host stack
        }
        if (obs::Tracer *t = tracer())
            t->instant(obs::kTraceSwitch, next->id, next->time, "switch");
        running_ = next->id;
        ++switches_;
        GuestContext::switchTo(schedCtx_, next->ctx);
        foldHighWater(next->time);
        running_ = kInvalidCore;
    }
}

Engine::Slot *
Engine::pickNext()
{
    SPMRT_ASSERT(!ready_.empty(), "deadlock: all %u live cores are blocked",
                 live_);
    CoreId next_id = keyId(ready_.min());
    if (schedPerturb_) {
        collectWindowCandidates();
        if (candidateIds_.size() > 1)
            next_id = candidateIds_[schedRng_.nextBounded(
                candidateIds_.size())];
    }
    return &slots_[next_id];
}

void
Engine::dispatchFrom(GuestContext &from)
{
    // Commit every remote op whose key precedes the earliest gate (ops
    // precede gates at equal times). Executions can wake blocked cores,
    // which changes the ready root, so re-check it each round. When all
    // live cores are blocked the root is kAbsent, whose time is later
    // than any commit, so the queue is the only way forward.
    while (!commits_.empty() && cachedEventMin_ <= keyTime(ready_.min()))
        executeOneEvent();
    Slot *next = pickNext();
    if (next->time > hangAt_) {
        // Hang: leave the interrupted guest (if any) suspended and
        // unwind this thread, where run() throws the SimAbort on the
        // host stack. The machine is dead from here on; nothing below
        // may run.
        raiseHang(next->time);
        if (&from != &schedCtx_)
            GuestContext::switchTo(from, schedCtx_);
        return;
    }
    cachedOtherMin_ = readyMinTimeExcluding(next->id);
    // Mirrors the reference scheduler: one event per dispatch, so a trace
    // taken under either scheduler shows the same timeline.
    if (obs::Tracer *t = tracer())
        t->instant(obs::kTraceSwitch, next->id, next->time, "switch");
    ++switches_;
    if (next->id == running_)
        return; // re-picked the yielding core: no host switch needed
    running_ = next->id;
    GuestContext::switchTo(from, next->ctx);
}

void
Engine::syncPoint(CoreId id)
{
    ++syncPoints_;
    Slot &slot = slots_[id];

    if (!referenceMode_) {
        // Fast path: cachedOtherMin_ is the exact minimum clock among
        // the other runnable cores, so the common case — this core still
        // holds the global minimum — is a single compare. The loop body
        // runs only when the core must actually yield.
        while (true) {
            Cycles limit = cachedOtherMin_;
            if (schedPerturb_ && limit != kNoOtherCore)
                limit += schedWindow_;
            if (slot.time <= limit) {
                // Remote ops committing at or before this core's clock
                // precede its upcoming operation; commit them first
                // (inline — no switch), then re-check: a commit can wake
                // an earlier core this one must now yield to.
                if (cachedEventMin_ <= slot.time) {
                    drainDueEvents(slot.time);
                    continue;
                }
                return;
            }
            foldHighWater(slot.time);
            readySet(id, slot.time);
            dispatchFrom(slot.ctx);
        }
    }

    // The scheduler resumes only the global-minimum core, so a single
    // failed check needs exactly one yield; loop anyway for robustness.
    // Under schedule perturbation the bound is relaxed by the window so
    // the scheduler's off-minimum picks are admitted (guarding the
    // "alone" sentinel against overflow).
    while (true) {
        Cycles limit = minOtherTime(id);
        if (schedPerturb_ && limit != std::numeric_limits<Cycles>::max())
            limit += schedWindow_;
        if (slot.time <= limit) {
            if (cachedEventMin_ <= slot.time) {
                drainDueEvents(slot.time);
                continue;
            }
            return;
        }
        yield(id);
    }
}

void
Engine::yield(CoreId id)
{
    Slot &slot = slots_[id];
    if (referenceMode_) {
        GuestContext::switchTo(slot.ctx, schedCtx_);
        return;
    }
    foldHighWater(slot.time);
    readySet(id, slot.time);
    dispatchFrom(slot.ctx);
}

void
Engine::block(CoreId id, ParkKind kind)
{
    Slot &slot = slots_[id];
    SPMRT_ASSERT(running_ == id, "block() from a non-running core");
    if (kind == ParkKind::Barrier && slot.wakePending) {
        // The guest wake raced ahead of the park (the waker's release
        // committed before this core was dispatched to its park): the
        // wake is already here, so consume it and keep running.
        slot.wakePending = false;
        if (slot.wakeTime > slot.time)
            slot.time = slot.wakeTime;
        return;
    }
    slot.blocked = true;
    slot.park = kind;
    if (referenceMode_) {
        GuestContext::switchTo(slot.ctx, schedCtx_);
    } else {
        foldHighWater(slot.time);
        ready_.erase(id);
        dispatchFrom(slot.ctx);
    }
    SPMRT_ASSERT(!slot.blocked, "blocked core %u resumed while parked", id);
}

void
Engine::unblock(CoreId id, Cycles t)
{
    Slot &slot = slots_[id];
    if (!slot.blocked || slot.park != ParkKind::Barrier) {
        // The target has not reached its park yet (its own commit
        // completes after the waker's), or it is still waiting on its
        // own commit/drain and will only park at the barrier afterwards.
        // Hold the wake; the target's Barrier block() consumes it.
        slot.wakePending = true;
        if (t > slot.wakeTime)
            slot.wakeTime = t;
        return;
    }
    slot.blocked = false;
    if (t > slot.time)
        slot.time = t;
    foldHighWater(slot.time);
    if (!referenceMode_) {
        readySet(id, slot.time);
        // The woken core joins the running core's "others"; min-fold
        // keeps the syncPoint cache exact.
        if (running_ != kInvalidCore && slot.time < cachedOtherMin_)
            cachedOtherMin_ = slot.time;
    }
}

void
Engine::commitWake(CoreId id, Cycles t)
{
    Slot &slot = slots_[id];
    SPMRT_ASSERT(slot.blocked, "commitWake() of a core that is not parked");
    SPMRT_ASSERT(slot.park == (t > 0 ? ParkKind::Commit : ParkKind::Drain),
                 "commitWake() kind mismatch for core %u", id);
    slot.blocked = false;
    if (t > slot.time)
        slot.time = t;
    foldHighWater(slot.time);
    if (!referenceMode_) {
        readySet(id, slot.time);
        if (running_ != kInvalidCore && slot.time < cachedOtherMin_)
            cachedOtherMin_ = slot.time;
    }
}

void
Engine::foreignClockChange(Slot &slot)
{
    foldHighWater(slot.time);
    if (referenceMode_)
        return;
    if (ready_.leaf(slot.id) != WinnerTree::kAbsent)
        readySet(slot.id, slot.time);
    if (running_ != kInvalidCore)
        cachedOtherMin_ = readyMinTimeExcluding(running_);
}

// ---- Remote-op commit queue ----------------------------------------------

void
Engine::scheduleRemoteOp(CoreId issuer, Cycles commit)
{
    SPMRT_ASSERT(commits_.leaf(issuer) == WinnerTree::kAbsent,
                 "core %u already has a pending remote op", issuer);
    commits_.set(issuer, packKey(issuer, commit));
    cachedEventMin_ = keyTime(commits_.min());
}

void
Engine::executeOneEvent()
{
    SPMRT_ASSERT(!commits_.empty(), "no pending remote op to execute");
    const CoreId issuer = keyId(commits_.min());
    SPMRT_ASSERT(issuer < cores_.size() && cores_[issuer] != nullptr,
                 "remote op scheduled by core %u without a Core", issuer);
    // The issuer's Core performs the memory-system call (with the
    // captured issue time) and wakes it if the op was blocking; no context
    // switch happens here, so events drain inline on whichever path
    // noticed them. No guest code runs during the call, so the queue
    // is unchanged until the issuer's leaf is rewritten below.
    const Cycles next = cores_[issuer]->executeHeadOp();
    commits_.set(issuer, next == kNoPendingOp ? WinnerTree::kAbsent
                                              : packKey(issuer, next));
    cachedEventMin_ =
        commits_.empty() ? kNoOtherCore : keyTime(commits_.min());
}

void
Engine::drainAllEvents()
{
    while (!commits_.empty())
        executeOneEvent();
}

Cycles
Engine::minOtherTime(CoreId self) const
{
    Cycles min_time = std::numeric_limits<Cycles>::max();
    for (uint32_t i = 0; i < numCores_; ++i) {
        const Slot &slot = slots_[i];
        if (slot.finished || slot.blocked || slot.id == self)
            continue;
        if (slot.time < min_time)
            min_time = slot.time;
    }
    return min_time;
}

// ---- Perturbation candidates -------------------------------------------

void
Engine::collectWindowCandidates()
{
    // Every runnable core within the window of the root's time, in id
    // order: the same set and order as the reference scheduler's scan,
    // so the RNG consumes exactly the same index stream.
    candidateIds_.clear();
    const Cycles min_time = keyTime(ready_.min());
    for (CoreId i = 0; i < numCores_; ++i) {
        const PackedKey key = ready_.leaf(i);
        if (key != WinnerTree::kAbsent &&
            keyTime(key) - min_time <= schedWindow_)
            candidateIds_.push_back(i);
    }
}

// ---- Hang watchdog --------------------------------------------------------

std::string
Engine::stateDump() const
{
    std::string report = "engine state:\n";
    for (uint32_t i = 0; i < numCores_; ++i) {
        const Slot &slot = slots_[i];
        if (!slot.hasBody)
            continue;
        report += log::format(
            "  core %3u: t=%llu %s\n", slot.id,
            static_cast<unsigned long long>(slot.time),
            slot.finished ? "finished"
                           : (slot.blocked ? "BLOCKED" : "runnable"));
    }
    if (wdDump_)
        report += wdDump_();
    return report;
}

void
Engine::raiseHang(Cycles next_time)
{
    abortPending_ = true;
    abortSummary_ = log::format(
        "watchdog expired: no progress for %llu cycles (last progress at "
        "cycle %llu), global quiescence failure",
        static_cast<unsigned long long>(next_time - progressTime_),
        static_cast<unsigned long long>(progressTime_));
    abortDump_ = stateDump();
}

void
Engine::throwPendingAbort()
{
    abortPending_ = false;
    throw SimAbort(std::move(abortSummary_), std::move(abortDump_));
}

} // namespace spmrt
