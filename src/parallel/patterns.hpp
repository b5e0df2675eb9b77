/**
 * @file
 * Templated parallel patterns (paper Fig. 3c-e): parallel_invoke,
 * parallel_for and parallel_reduce.
 *
 * Every pattern runs on both runtimes:
 *  - under the work-stealing runtime it builds a recursive task tree
 *    (spawn the right half, execute the left half inline, wait), exactly
 *    the divide-and-conquer shape of TBB-style auto-partitioning;
 *  - under the static runtime a top-level parallel_for opens an SPMD
 *    region with one contiguous chunk per core, while nested patterns and
 *    spawn-sync patterns serialize on the calling core — the documented
 *    limitations of the paper's static baseline.
 */

#ifndef SPMRT_PARALLEL_PATTERNS_HPP
#define SPMRT_PARALLEL_PATTERNS_HPP

#include <functional>
#include <vector>

#include "parallel/env.hpp"
#include "runtime/context.hpp"
#include "runtime/static_runtime.hpp"
#include "runtime/task.hpp"
#include "runtime/worker.hpp"
#include "runtime/ws_runtime.hpp"

namespace spmrt {

/** Iteration body of a parallel loop. */
using ForBody = std::function<void(TaskContext &, int64_t)>;

/** Options shared by the loop patterns. */
struct ForOptions
{
    /** Iterations per leaf task; 0 selects an automatic grain. */
    int64_t grain = 0;
    /** Captured-environment footprint (see EnvSpec). */
    EnvSpec env;
};

/**
 * A context for the same logical task/region but a different (usually
 * freshly pushed) frame — the activation record of a pattern call.
 */
inline TaskContext
subContext(TaskContext &tc, StackFrame &frame)
{
    if (tc.isDynamic()) {
        return TaskContext(tc.worker(), tc.task(), frame, tc.core(),
                           tc.stack());
    }
    return TaskContext(tc.staticRuntime(), tc.core(), tc.stack(), frame,
                       tc.staticNesting());
}

/** Default grain: enough leaves for ~8 tasks per core. */
int64_t autoGrain(TaskContext &tc, int64_t total);

/**
 * Parallel loop over [lo, hi).
 */
void parallelFor(TaskContext &tc, int64_t lo, int64_t hi,
                 const ForBody &body, const ForOptions &opts = {});

/**
 * Run the given functions potentially in parallel; returns when all have
 * completed (fork-join).
 */
void parallelInvoke(TaskContext &tc,
                    const std::vector<std::function<void(TaskContext &)>> &fns,
                    uint32_t frame_bytes = 96);

/** Two-way convenience overload matching the paper's fib example. */
inline void
parallelInvoke(TaskContext &tc, std::function<void(TaskContext &)> f0,
               std::function<void(TaskContext &)> f1,
               uint32_t frame_bytes = 96)
{
    std::vector<std::function<void(TaskContext &)>> fns;
    fns.push_back(std::move(f0));
    fns.push_back(std::move(f1));
    parallelInvoke(tc, fns, frame_bytes);
}

namespace detail {

/**
 * Divide-and-conquer reduction task. Each interior node allocates two
 * result slots in its own frame, spawns the right half (whose result
 * lands in the second slot — a remote store into this frame when the
 * child is stolen), computes the left half inline, joins, and combines.
 */
template <typename T>
class ReduceTask : public Task
{
  public:
    using Body = std::function<T(TaskContext &, int64_t)>;
    using Combine = std::function<T(T, T)>;

    ReduceTask(int64_t lo, int64_t hi, int64_t grain, T identity,
               const Body *body, const Combine *combine,
               const LoopEnv *env, Addr out)
        : lo_(lo), hi_(hi), grain_(grain), identity_(identity),
          body_(body), combine_(combine), env_(env), out_(out)
    {
        static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                      "reduction type must be a small scalar");
    }

    uint32_t
    frameBytes() const override
    {
        return 64 + 2 * sizeof(T) + EnvReader::frameOverhead(*env_);
    }

    void
    execute(TaskContext &tc) override
    {
        Core &core = tc.core();
        if (hi_ - lo_ <= grain_) {
            EnvReader env(tc, *env_);
            T acc = identity_;
            for (int64_t i = lo_; i < hi_; ++i) {
                core.tick(1, 2);
                env.perIteration();
                acc = (*combine_)(acc, (*body_)(tc, i));
            }
            core.store<T>(out_, acc);
            return;
        }
        int64_t mid = lo_ + (hi_ - lo_) / 2;
        Addr slot_left = tc.frame().alloc(sizeof(T), alignof(T));
        Addr slot_right = tc.frame().alloc(sizeof(T), alignof(T));

        auto *right = new ReduceTask(mid, hi_, grain_, identity_, body_,
                                     combine_, env_, slot_right);
        right->runtimeOwned = true;
        tc.prepareChild(right);
        tc.setReadyCount(1);
        tc.spawn(right);

        ReduceTask left(lo_, mid, grain_, identity_, body_, combine_, env_,
                        slot_left);
        tc.prepareInline(&left);
        tc.executeInline(left);
        tc.waitChildren();

        T lhs = core.load<T>(slot_left);
        T rhs = core.load<T>(slot_right);
        core.tick(1, 1);
        core.store<T>(out_, (*combine_)(lhs, rhs));
    }

  private:
    int64_t lo_;
    int64_t hi_;
    int64_t grain_;
    T identity_;
    const Body *body_;
    const Combine *combine_;
    const LoopEnv *env_;
    Addr out_;
};

} // namespace detail

/**
 * Parallel reduction over [lo, hi): combine(body(i)...) with identity.
 */
template <typename T>
T
parallelReduce(TaskContext &tc, int64_t lo, int64_t hi, T identity,
               const std::function<T(TaskContext &, int64_t)> &body,
               const std::function<T(T, T)> &combine,
               const ForOptions &opts = {})
{
    if (hi <= lo)
        return identity;
    Core &core = tc.core();
    // The pattern call itself is a function activation: give it a frame
    // so repeated calls from one task do not exhaust the caller's frame.
    StackFrame pattern_frame(tc.stack(),
                             48 + sizeof(T) +
                                 alignUp<uint32_t>(opts.env.bytes, 4));
    TaskContext ptc = subContext(tc, pattern_frame);
    LoopEnv env = setupLoopEnv(ptc, opts.env);
    int64_t grain = opts.grain > 0 ? opts.grain : autoGrain(ptc, hi - lo);

    if (ptc.isDynamic()) {
        Addr out = ptc.frame().alloc(sizeof(T), alignof(T));
        detail::ReduceTask<T> root(lo, hi, grain, identity, &body, &combine,
                                   &env, out);
        ptc.prepareInline(&root);
        ptc.executeInline(root);
        return core.load<T>(out);
    }

    if (ptc.staticNesting() > 0) {
        // Nested static region: serialize on this core.
        EnvReader reader(ptc, env);
        T acc = identity;
        for (int64_t i = lo; i < hi; ++i) {
            core.tick(1, 2);
            reader.perIteration();
            acc = combine(acc, body(ptc, i));
        }
        return acc;
    }

    // Top-level static region: per-core partials in DRAM, serial combine.
    StaticRuntime &rt = ptc.staticRuntime();
    Machine &machine = rt.machine();
    uint32_t cores = machine.numCores();
    Addr partials = machine.dramAlloc(cores * sizeof(T), 64);
    StaticRuntime::ChunkFn chunk = [&](TaskContext &ctc, int64_t my_lo,
                                       int64_t my_hi) {
        EnvReader reader(ctc, env);
        T acc = identity;
        for (int64_t i = my_lo; i < my_hi; ++i) {
            ctc.core().tick(1, 2);
            reader.perIteration();
            acc = combine(acc, body(ctc, i));
        }
        ctc.core().store<T>(partials + ctc.core().id() * sizeof(T), acc);
    };
    rt.parallelRegion(ptc, lo, hi, chunk);
    T total = identity;
    for (uint32_t i = 0; i < cores; ++i) {
        total = combine(total, core.load<T>(partials + i * sizeof(T)));
        core.tick(1, 1);
    }
    machine.dramFree(partials);
    return total;
}

} // namespace spmrt

#endif // SPMRT_PARALLEL_PATTERNS_HPP
