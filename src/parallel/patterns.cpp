#include "parallel/patterns.hpp"

namespace spmrt {

int64_t
autoGrain(TaskContext &tc, int64_t total)
{
    // ~4 leaf tasks per core: enough slack for stealing to balance
    // skewed iteration costs without drowning fine-grained loops in
    // per-task overhead (cf. TBB's auto partitioner).
    int64_t workers =
        tc.isDynamic()
            ? static_cast<int64_t>(tc.worker().runtime().activeCores())
            : static_cast<int64_t>(tc.staticRuntime().machine().numCores());
    int64_t leaves = workers * 4;
    int64_t grain = total / leaves;
    return grain < 1 ? 1 : grain;
}

namespace {

/**
 * Divide-and-conquer loop task: spawn right, execute left inline, wait.
 */
class RangeTask : public Task
{
  public:
    RangeTask(int64_t lo, int64_t hi, int64_t grain, const ForBody *body,
              const LoopEnv *env)
        : lo_(lo), hi_(hi), grain_(grain), body_(body), env_(env)
    {
    }

    uint32_t
    frameBytes() const override
    {
        return 64 + EnvReader::frameOverhead(*env_);
    }

    void
    execute(TaskContext &tc) override
    {
        Core &core = tc.core();
        if (hi_ - lo_ <= grain_) {
            EnvReader env(tc, *env_);
            for (int64_t i = lo_; i < hi_; ++i) {
                core.tick(1, 2);
                env.perIteration();
                (*body_)(tc, i);
            }
            return;
        }
        int64_t mid = lo_ + (hi_ - lo_) / 2;
        auto *right = new RangeTask(mid, hi_, grain_, body_, env_);
        right->runtimeOwned = true;
        tc.prepareChild(right);
        tc.setReadyCount(1);
        tc.spawn(right);

        RangeTask left(lo_, mid, grain_, body_, env_);
        tc.prepareInline(&left);
        tc.executeInline(left);
        tc.waitChildren();
    }

  private:
    int64_t lo_;
    int64_t hi_;
    int64_t grain_;
    const ForBody *body_;
    const LoopEnv *env_;
};

} // namespace

void
parallelFor(TaskContext &tc, int64_t lo, int64_t hi, const ForBody &body,
            const ForOptions &opts)
{
    if (hi <= lo)
        return;
    Core &core = tc.core();
    // The pattern call is its own function activation (see patterns.hpp).
    StackFrame pattern_frame(tc.stack(),
                             48 + alignUp<uint32_t>(opts.env.bytes, 4));
    TaskContext ptc = subContext(tc, pattern_frame);
    LoopEnv env = setupLoopEnv(ptc, opts.env);
    int64_t grain = opts.grain > 0 ? opts.grain : autoGrain(ptc, hi - lo);

    if (ptc.isDynamic()) {
        RangeTask root(lo, hi, grain, &body, &env);
        ptc.prepareInline(&root);
        ptc.executeInline(root);
        return;
    }

    if (ptc.staticNesting() > 0) {
        // The static runtime cannot nest: run the loop serially here.
        // This is the source of the static baseline's load imbalance on
        // skewed graphs.
        EnvReader reader(ptc, env);
        for (int64_t i = lo; i < hi; ++i) {
            core.tick(1, 2);
            reader.perIteration();
            body(ptc, i);
        }
        return;
    }

    StaticRuntime &rt = ptc.staticRuntime();
    StaticRuntime::ChunkFn chunk = [&](TaskContext &ctc, int64_t my_lo,
                                       int64_t my_hi) {
        EnvReader reader(ctc, env);
        for (int64_t i = my_lo; i < my_hi; ++i) {
            ctc.core().tick(1, 2);
            reader.perIteration();
            body(ctc, i);
        }
    };
    rt.parallelRegion(ptc, lo, hi, chunk);
}

void
parallelInvoke(TaskContext &tc,
               const std::vector<std::function<void(TaskContext &)>> &fns,
               uint32_t frame_bytes)
{
    if (fns.empty())
        return;
    using Fn = std::function<void(TaskContext &)>;

    if (!tc.isDynamic()) {
        // Static baseline: spawn-sync serializes on the calling core
        // (Sec. 5.3: such workloads have no static baseline).
        for (const Fn &fn : fns) {
            StackFrame frame(tc.stack(), frame_bytes);
            TaskContext sub(tc.staticRuntime(), tc.core(), tc.stack(),
                            frame, tc.staticNesting() + 1);
            fn(sub);
        }
        return;
    }

    // Spawn all but the first; execute the first inline; join.
    StackFrame pattern_frame(
        tc.stack(), 32 + 8 * static_cast<uint32_t>(fns.size()));
    TaskContext ptc = subContext(tc, pattern_frame);
    uint32_t spawned = static_cast<uint32_t>(fns.size() - 1);
    ptc.setReadyCount(spawned);
    for (size_t i = 1; i < fns.size(); ++i) {
        auto *task = new ClosureTask<Fn>(fns[i], frame_bytes);
        task->runtimeOwned = true;
        ptc.prepareChild(task);
        ptc.spawn(task);
    }
    {
        ClosureTask<const Fn &> first(fns[0], frame_bytes);
        ptc.prepareInline(&first);
        ptc.executeInline(first);
    }
    if (spawned > 0)
        ptc.waitChildren();
}

} // namespace spmrt
