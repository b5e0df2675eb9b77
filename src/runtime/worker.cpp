#include "runtime/worker.hpp"

#include <algorithm>
#include <cstdlib>

#include "runtime/static_runtime.hpp"
#include "runtime/ws_runtime.hpp"

namespace spmrt {

Worker::Worker(WorkStealingRuntime &rt, Core &core,
               const StackConfig &stack_cfg, uint64_t seed)
    : rt_(rt), core_(core), stack_(core, stack_cfg), qops_(core),
      ownQueue_(rt.queueAddrs(core.id())), rng_(seed)
{
}

void
Worker::backoffWait()
{
    core_.idle(backoff_);
    backoff_ = std::min(backoff_ * 2, kBackoffMaxCycles);
}

void
Worker::executeTask(Task &task, uint32_t trace_id)
{
    // The registry id is passed explicitly: registry().remove() zeroes
    // task.id before execution, but the checker's backtrace wants the id
    // the task had while it sat in a queue slot.
    ConcurrencyChecker *ck = core_.mem().checker();
    if (ck != nullptr)
        ck->onTaskBegin(core_.id(), trace_id);
    obs::Tracer *tr = core_.tracer();
    if (tr != nullptr)
        tr->begin(obs::kTraceTask, core_.id(), core_.now(), "task", "id",
                  trace_id);
    {
        StackFrame frame(stack_, task.frameBytes());
        TaskContext tc(*this, &task, frame, core_, stack_);
        task.execute(tc);
    }
    if (tr != nullptr)
        tr->end(obs::kTraceTask, core_.id(), core_.now(), "task");
    if (ck != nullptr)
        ck->onTaskEnd(core_.id());
    ++core_.stats().rt.tasksExecuted;
    core_.engine().noteProgress();
}

void
Worker::executeSpawned(Task *task, uint32_t trace_id)
{
    // Track owned tasks for the duration of their execution: a dequeued
    // task is already out of the registry, so if a supervised abort
    // unwinds the run mid-execution this stack is what lets the runtime
    // reclaim it (reapOwnedInFlight).
    if (task->runtimeOwned)
        ownedInFlight_.push_back(task);
    executeTask(*task, trace_id);
    if (task->parent != nullptr) {
        // Release semantics: the child's writes (e.g. its result into the
        // parent's frame) must land before the parent can observe rc==0.
        core_.amoAddRelease(task->parent->home,
                            static_cast<int32_t>(-1));
    }
    if (task->runtimeOwned) {
        SPMRT_ASSERT(!ownedInFlight_.empty() &&
                         ownedInFlight_.back() == task,
                     "in-flight task stack out of order");
        ownedInFlight_.pop_back();
        delete task;
    }
}

bool
Worker::tryExecuteLocal()
{
    uint32_t id = qops_.popTail(ownQueue_);
    if (id == 0)
        return false;
    Task *task = rt_.registry().get(id);
    rt_.registry().remove(id);
    executeSpawned(task, id);
    return true;
}

CoreId
Worker::chooseVictim(uint32_t peers)
{
    switch (rt_.config().victimPolicy) {
      case VictimPolicy::Random: {
        // Fig. 4's choose_victim: uniform over the other workers.
        CoreId victim = static_cast<CoreId>(rng_.nextBounded(peers - 1));
        if (victim >= core_.id())
            ++victim;
        return victim;
      }
      case VictimPolicy::RoundRobin: {
        CoreId victim = static_cast<CoreId>(probeCursor_ % (peers - 1));
        if (victim >= core_.id())
            ++victim;
        ++probeCursor_;
        return victim;
      }
      case VictimPolicy::Nearest:
      default: {
        if (nearestOrder_.size() != peers - 1) {
            // Lazily sort the peers by Manhattan mesh distance.
            const MachineConfig &mcfg = rt_.machine().config();
            nearestOrder_.clear();
            for (CoreId id = 0; id < peers; ++id)
                if (id != core_.id())
                    nearestOrder_.push_back(id);
            auto distance = [&mcfg, this](CoreId id) {
                auto dx = static_cast<int32_t>(mcfg.coreX(id)) -
                          static_cast<int32_t>(mcfg.coreX(core_.id()));
                auto dy = static_cast<int32_t>(mcfg.coreY(id)) -
                          static_cast<int32_t>(mcfg.coreY(core_.id()));
                return std::abs(dx) + std::abs(dy);
            };
            std::stable_sort(nearestOrder_.begin(), nearestOrder_.end(),
                             [&](CoreId a, CoreId b) {
                                 return distance(a) < distance(b);
                             });
            probeCursor_ = 0;
        }
        CoreId victim = nearestOrder_[probeCursor_ % nearestOrder_.size()];
        ++probeCursor_; // advance so repeated failures widen the search
        return victim;
      }
    }
}

bool
Worker::tryStealOnce()
{
    uint32_t peers = rt_.activeCores();
    if (peers < 2 || rt_.config().workDealing)
        return false; // dealing runtimes never steal
    ++core_.stats().rt.stealAttempts;
    CoreId victim = chooseVictim(peers);
    core_.tick(3, 3); // selection: RNG/cursor + compare + branch
    if (obs::Tracer *tr = core_.tracer())
        tr->instant(obs::kTraceSteal, core_.id(), core_.now(),
                    "steal_attempt", "victim", victim);

    QueueAddrs addrs = rt_.victimQueueAddrs(core_, victim);
    uint32_t id = qops_.stealHead(addrs);
    if (id == 0)
        return false;
    ++core_.stats().rt.stealHits;
    if (obs::Tracer *tr = core_.tracer())
        tr->instant(obs::kTraceSteal, core_.id(), core_.now(), "steal_hit",
                    "victim", victim);
    if (rt_.config().victimPolicy == VictimPolicy::Nearest)
        probeCursor_ = 0; // success: restart from the closest neighbor
    Task *task = rt_.registry().get(id);
    rt_.registry().remove(id);
    executeSpawned(task, id);
    return true;
}

void
Worker::workerLoop()
{
    // The termination flag lives in this core's own scratchpad; polling
    // it is a 2-cycle local load, not shared-memory traffic.
    Addr done = rt_.doneFlagAddr(core_.id());
    while (true) {
        if (tryExecuteLocal()) {
            resetBackoff();
            continue;
        }
        if (tryStealOnce()) {
            resetBackoff();
            continue;
        }
        // Synchronizing poll: acquires core 0's termination release edge.
        if (core_.loadSync<uint32_t>(done) != 0)
            break;
        backoffWait();
    }
}

void
Worker::runRoot(Task &root)
{
    executeTask(root);
    // All descendants have joined (the root's own wait() guarantees it);
    // broadcast termination into every worker's scratchpad flag. The
    // stores stay posted with one trailing fence (unchanged timing); each
    // flag write additionally publishes a release edge so the workers'
    // synchronizing polls acquire the whole computation.
    for (CoreId id = 0; id < rt_.activeCores(); ++id) {
        Addr flag = rt_.doneFlagAddr(id);
        core_.store<uint32_t>(flag, 1);
        if (ConcurrencyChecker *ck = core_.mem().checker())
            ck->onStoreRelease(core_.id(), flag);
    }
    core_.fence();
}

void
Worker::prepareChild(TaskContext &tc, Task *child)
{
    child->parent = tc.task();
    child->home = tc.frame().alloc(8, 4);
    // The cell is fresh stack memory; make it functionally zero without
    // charging time (set_ready_count stores the real value).
    rt_.machine().mem().pokeAs<uint32_t>(child->home, 0);
    core_.tick(2, 2); // constructor field writes
}

void
Worker::prepareInline(TaskContext &tc, Task *child)
{
    child->parent = nullptr;
    child->home = tc.frame().alloc(8, 4);
    rt_.machine().mem().pokeAs<uint32_t>(child->home, 0);
    core_.tick(2, 2);
}

void
Worker::setReadyCount(TaskContext &tc, uint32_t count)
{
    SPMRT_ASSERT(tc.task() != nullptr, "setReadyCount outside a task");
    core_.store<uint32_t>(tc.task()->home, count);
}

void
Worker::spawn(TaskContext &tc, Task *child)
{
    SPMRT_ASSERT(child->home != kNullAddr,
                 "spawned task was not prepared (no home cell)");
    ++core_.stats().rt.tasksSpawned;
    core_.tick(4, 4); // task setup: vtable, fields, enqueue call
    rt_.registry().add(child);
    if (obs::Tracer *tr = core_.tracer())
        tr->instant(obs::kTraceSpawn, core_.id(), core_.now(), "spawn",
                    "id", child->id);

    // Work dealing: push the child to a peer's queue round-robin at
    // spawn time (a remote-SPM enqueue) instead of keeping it local.
    QueueAddrs target = ownQueue_;
    if (rt_.config().workDealing) {
        uint32_t peers = rt_.activeCores();
        CoreId recipient =
            static_cast<CoreId>(probeCursor_++ % peers);
        if (recipient != core_.id())
            target = rt_.victimQueueAddrs(core_, recipient);
    }
    if (!qops_.enqueue(target, child->id)) {
        // Queue full: degrade gracefully by executing the child inline.
        // Its ready-count contribution was already published, so go
        // through the normal completion path.
        ++core_.stats().rt.spawnsInlined;
        uint32_t trace_id = child->id;
        rt_.registry().remove(child->id);
        executeSpawned(child, trace_id);
    }
    (void)tc;
}

void
Worker::wait(TaskContext &tc)
{
    Task *self = tc.task();
    SPMRT_ASSERT(self != nullptr, "wait outside a task");
    obs::Tracer *tr = core_.tracer();
    if (tr != nullptr)
        tr->begin(obs::kTraceSync, core_.id(), core_.now(), "wait");
    // Fig. 4(b): poll own ready count; pop local LIFO; else steal FIFO.
    while (core_.load<uint32_t>(self->home) > 0) {
        if (tryExecuteLocal()) {
            resetBackoff();
            continue;
        }
        if (tryStealOnce()) {
            resetBackoff();
            continue;
        }
        backoffWait();
    }
    if (tr != nullptr)
        tr->end(obs::kTraceSync, core_.id(), core_.now(), "wait");
}

void
Worker::executeInline(Task &task)
{
    executeTask(task);
}

// ---- TaskContext forwarding ------------------------------------------

const RuntimeConfig &
TaskContext::runtimeConfig() const
{
    if (worker_ != nullptr)
        return worker_->runtime().config();
    SPMRT_ASSERT(staticRt_ != nullptr, "context bound to no runtime");
    return staticRt_->config();
}

void
TaskContext::prepareChild(Task *child)
{
    worker().prepareChild(*this, child);
}

void
TaskContext::prepareInline(Task *child)
{
    worker().prepareInline(*this, child);
}

void
TaskContext::setReadyCount(uint32_t count)
{
    worker().setReadyCount(*this, count);
}

void
TaskContext::spawn(Task *child)
{
    worker().spawn(*this, child);
}

void
TaskContext::waitChildren()
{
    worker().wait(*this);
}

void
TaskContext::executeInline(Task &task)
{
    worker().executeInline(task);
}

} // namespace spmrt
