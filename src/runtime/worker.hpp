/**
 * @file
 * The per-core worker of the work-stealing runtime.
 *
 * Implements the paper's Fig. 4 spawn()/wait() pseudo-code: spawn enqueues
 * on the local deque; wait loops — pop own tail (LIFO), else steal a random
 * victim's head (FIFO) — executing tasks and decrementing parents' ready
 * counts with release-semantics atomics, until the waiting task's own
 * ready count reaches zero.
 */

#ifndef SPMRT_RUNTIME_WORKER_HPP
#define SPMRT_RUNTIME_WORKER_HPP

#include "common/rng.hpp"
#include "runtime/context.hpp"
#include "runtime/queue_ops.hpp"
#include "runtime/task.hpp"
#include "sim/core.hpp"
#include "spm/stack.hpp"

namespace spmrt {

class WorkStealingRuntime;

/**
 * One core's scheduling state and loops.
 */
class Worker
{
  public:
    Worker(WorkStealingRuntime &rt, Core &core,
           const StackConfig &stack_cfg, uint64_t seed);

    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    /** The core this worker runs on. */
    Core &core() { return core_; }
    /** This worker's stack model. */
    StackModel &stack() { return stack_; }
    /** The owning runtime. */
    WorkStealingRuntime &runtime() { return rt_; }

    /** Idle loop for non-root cores: steal until the done flag rises. */
    void workerLoop();

    /** Core 0: execute the root task, then raise the done flag. */
    void runRoot(Task &root);

    /** @name Operations invoked through TaskContext
     *  @{
     */
    void spawn(TaskContext &tc, Task *child);
    void wait(TaskContext &tc);
    void prepareChild(TaskContext &tc, Task *child);
    void prepareInline(TaskContext &tc, Task *child);
    void setReadyCount(TaskContext &tc, uint32_t count);
    void executeInline(Task &task);
    /** @} */

  private:
    /** Pick the next victim according to the configured policy. */
    CoreId chooseVictim(uint32_t peers);
    /** Pop own queue; execute on success. */
    bool tryExecuteLocal();
    /** One random-victim steal attempt; execute on success. */
    bool tryStealOnce();
    /** Push a frame and run the task body (@p trace_id labels the
     *  checker's task backtrace; 0 = root/inline). */
    void executeTask(Task &task, uint32_t trace_id = 0);
    /** Execute a dequeued task: run, signal parent, reclaim. */
    void executeSpawned(Task *task, uint32_t trace_id = 0);
    /** Reset the steal backoff after useful work. */
    void resetBackoff() { backoff_ = kBackoffMinCycles; }

  public:
    /**
     * Runtime-owned tasks currently executing on this worker, innermost
     * last (wait() nests executeSpawned). Dequeued tasks leave the
     * registry before they run, so on a SimAbort this stack is the only
     * record of them; WorkStealingRuntime::run's abort cleanup deletes
     * them from here.
     */
    const std::vector<Task *> &ownedInFlight() const
    {
        return ownedInFlight_;
    }

    /** Abort-path cleanup: delete and forget the in-flight owned tasks. */
    size_t
    reapOwnedInFlight()
    {
        size_t deleted = ownedInFlight_.size();
        for (auto it = ownedInFlight_.rbegin(); it != ownedInFlight_.rend();
             ++it)
            delete *it;
        ownedInFlight_.clear();
        return deleted;
    }

  private:
    /** Exponential-backoff idle wait. */
    void backoffWait();

    WorkStealingRuntime &rt_;
    Core &core_;
    StackModel stack_;
    QueueOps qops_;
    QueueAddrs ownQueue_;
    Xoshiro256StarStar rng_;
    uint32_t backoff_ = kBackoffMinCycles;
    std::vector<CoreId> nearestOrder_; ///< peers by mesh distance (lazy)
    uint32_t probeCursor_ = 0;         ///< Nearest / RoundRobin state
    std::vector<Task *> ownedInFlight_; ///< see ownedInFlight()
};

} // namespace spmrt

#endif // SPMRT_RUNTIME_WORKER_HPP
