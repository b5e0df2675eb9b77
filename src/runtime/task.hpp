/**
 * @file
 * The Task abstraction of the dynamic task-parallel framework.
 *
 * Mirrors the paper's Fig. 3(b): a task is an object with a virtual
 * execute() and a ready_count that tracks unfinished children. The twist
 * of the SPM port is *where* the metadata lives: a task's ready-count cell
 * is simulated memory inside the stack frame of the code that created the
 * task (exactly like the stack-allocated FibTask objects in Fig. 3a), so a
 * stolen child signals completion with a remote-scratchpad atomic into its
 * parent's frame.
 *
 * Host-side C++ objects carry the behaviour (the lambda); the `home`
 * address carries the architectural footprint.
 */

#ifndef SPMRT_RUNTIME_TASK_HPP
#define SPMRT_RUNTIME_TASK_HPP

#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace spmrt {

class TaskContext;

/**
 * Base class for all tasks.
 */
class Task
{
  public:
    virtual ~Task() = default;

    /** The task body. Runs on whichever core pops or steals the task. */
    virtual void execute(TaskContext &tc) = 0;

    /**
     * Simulated stack-frame footprint of one activation of this task:
     * callee saves + locals + child task metadata.
     */
    virtual uint32_t frameBytes() const { return 64; }

    /**
     * Address of this task's metadata (its ready-count cell) in simulated
     * memory — resident in the creating activation's stack frame.
     */
    Addr home = kNullAddr;

    /** Parent task, decremented on completion when this task was spawned. */
    Task *parent = nullptr;

    /** Registry id while enqueued (0 = not registered). */
    uint32_t id = 0;

    /** The runtime deletes spawned tasks it executed when set. */
    bool runtimeOwned = false;
};

/**
 * Task wrapping a callable; the workhorse behind the templated patterns.
 */
template <typename F>
class ClosureTask : public Task
{
  public:
    explicit ClosureTask(F fn, uint32_t frame_bytes = 64)
        : fn_(std::move(fn)), frameBytes_(frame_bytes)
    {
    }

    void execute(TaskContext &tc) override { fn_(tc); }
    uint32_t frameBytes() const override { return frameBytes_; }

  private:
    F fn_;
    uint32_t frameBytes_;
};

/** Deduce-and-wrap helper; the caller owns the returned task. */
template <typename F>
ClosureTask<F> *
makeClosureTask(F fn, uint32_t frame_bytes = 64)
{
    return new ClosureTask<F>(std::move(fn), frame_bytes);
}

/**
 * Host-side registry translating the 32-bit "task pointers" stored in
 * simulated task-queue slots into host Task objects. Ids are recycled.
 *
 * The slot table is mutex-protected, so registration stays safe even if
 * guests ever spawn from more than one host thread. Ids only round-trip
 * through queue slots back to this table and never influence timing or
 * workload output.
 */
class TaskRegistry
{
  public:
    /** Register @p task; returns its nonzero id. */
    uint32_t
    add(Task *task)
    {
        SPMRT_ASSERT(task != nullptr, "registering null task");
        std::lock_guard<std::mutex> lock(mu_);
        uint32_t id;
        if (!freeIds_.empty()) {
            id = freeIds_.back();
            freeIds_.pop_back();
            slots_[id] = task;
        } else {
            slots_.push_back(task);
            id = static_cast<uint32_t>(slots_.size() - 1);
        }
        task->id = id;
        return id;
    }

    /** Resolve an id stored in a queue slot. */
    Task *
    get(uint32_t id) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        SPMRT_ASSERT(id != 0 && id < slots_.size() && slots_[id] != nullptr,
                     "bad task id %u", id);
        return slots_[id];
    }

    /** Drop an id once the task has been dequeued. */
    void
    remove(uint32_t id)
    {
        std::lock_guard<std::mutex> lock(mu_);
        SPMRT_ASSERT(id != 0 && id < slots_.size() && slots_[id] != nullptr,
                     "removing bad task id %u", id);
        slots_[id]->id = 0;
        slots_[id] = nullptr;
        freeIds_.push_back(id);
    }

    /** Number of live registered tasks. */
    size_t
    liveCount() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return slots_.size() - 1 - freeIds_.size();
    }

    /**
     * Abort-path cleanup: delete every still-registered runtime-owned
     * task and forget all ids. Only valid once the simulation that
     * enqueued them is dead (a SimAbort unwound the run) — the guest
     * stacks referencing these tasks never resume. Tasks the runtime
     * does not own are dropped from the registry but left alive for
     * their owners. Returns the number of tasks deleted.
     */
    size_t
    reapAbandoned()
    {
        std::lock_guard<std::mutex> lock(mu_);
        size_t deleted = 0;
        for (size_t id = 1; id < slots_.size(); ++id) {
            Task *task = slots_[id];
            if (task == nullptr)
                continue;
            if (task->runtimeOwned) {
                delete task;
                ++deleted;
            }
        }
        slots_.resize(1);
        freeIds_.clear();
        return deleted;
    }

    TaskRegistry() { slots_.push_back(nullptr); /* id 0 is null */ }

  private:
    mutable std::mutex mu_;
    std::vector<Task *> slots_;
    std::vector<uint32_t> freeIds_;
};

} // namespace spmrt

#endif // SPMRT_RUNTIME_TASK_HPP
