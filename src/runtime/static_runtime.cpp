#include "runtime/static_runtime.hpp"

namespace spmrt {

namespace {

/** Frame size used for each core's chunk activation. */
constexpr uint32_t kRegionFrameBytes = 96;

} // namespace

StaticRuntime::StaticRuntime(Machine &machine, const RuntimeConfig &cfg)
    : machine_(machine), cfg_(cfg),
      layout_(machine.config(), cfg.userSpmReserve, 0),
      barrier_(machine, machine.numCores())
{
    const uint32_t cores = machine_.numCores();
    const AddressMap &map = machine_.mem().map();
    stacks_.reserve(cores);
    userSpm_.reserve(cores);
    dramStackBase_.resize(cores);
    for (CoreId i = 0; i < cores; ++i) {
        dramStackBase_[i] = machine_.dramAlloc(cfg_.dramStackBytes, 64);
        StackConfig stack_cfg;
        stack_cfg.spmLow = layout_.stackLow(map, i);
        stack_cfg.spmTop = layout_.stackTop(map, i);
        stack_cfg.dramBase = dramStackBase_[i];
        stack_cfg.dramBytes = cfg_.dramStackBytes;
        stack_cfg.spmResident = cfg_.stackInSpm;
        stack_cfg.swOverflowCheck = cfg_.swOverflowCheck;
        stack_cfg.regSaveWords = kRegSaveWords;
        stacks_.push_back(
            std::make_unique<StackModel>(machine_.core(i), stack_cfg));
        userSpm_.push_back(std::make_unique<SpmUserAllocator>(
            layout_.userBase(map, i), layout_.userBytes()));
    }

    if (ConcurrencyChecker *ck = machine_.checker()) {
        for (CoreId i = 0; i < cores; ++i) {
            layout_.registerRegions(*ck, map, i);
            ck->registerRegion(RegionKind::Stack, dramStackBase_[i],
                               cfg_.dramStackBytes, i);
        }
    }
}

void
StaticRuntime::workerBody(CoreId id)
{
    Core &core = machine_.core(id);
    StackModel &stack = *stacks_[id];
    while (true) {
        barrier_.wait(core); // region start (or shutdown)
        if (bcast_.stop)
            break;
        auto [lo, hi] =
            chunkOf(bcast_.lo, bcast_.hi, id, machine_.numCores());
        {
            StackFrame frame(stack, kRegionFrameBytes);
            TaskContext tc(*this, core, stack, frame, 1);
            (*bcast_.chunk)(tc, lo, hi);
        }
        barrier_.wait(core); // region end
    }
}

void
StaticRuntime::parallelRegion(TaskContext &tc, int64_t lo, int64_t hi,
                              const ChunkFn &chunk)
{
    SPMRT_ASSERT(tc.staticNesting() == 0,
                 "nested static regions must be serialized by the caller");
    SPMRT_ASSERT(tc.core().id() == 0,
                 "static regions open from the root core only");
    bcast_.lo = lo;
    bcast_.hi = hi;
    bcast_.chunk = &chunk;
    barrier_.wait(tc.core()); // release the workers
    auto [my_lo, my_hi] = chunkOf(lo, hi, 0, machine_.numCores());
    {
        StackFrame frame(tc.stack(), kRegionFrameBytes);
        TaskContext chunk_tc(*this, tc.core(), tc.stack(), frame, 1);
        chunk(chunk_tc, my_lo, my_hi);
    }
    barrier_.wait(tc.core()); // close the region
    bcast_.chunk = nullptr;
}

Cycles
StaticRuntime::run(const std::function<void(TaskContext &)> &root_fn,
                   uint32_t root_frame_bytes)
{
    bcast_ = Broadcast{};
    std::vector<std::function<void(Core &)>> bodies(machine_.numCores());
    bodies[0] = [this, &root_fn, root_frame_bytes](Core &core) {
        StackModel &stack = *stacks_[0];
        {
            StackFrame frame(stack, root_frame_bytes);
            TaskContext tc(*this, core, stack, frame, 0);
            root_fn(tc);
        }
        bcast_.stop = true;
        barrier_.wait(core); // release workers into shutdown
    };
    for (CoreId i = 1; i < machine_.numCores(); ++i)
        bodies[i] = [this, i](Core &) { workerBody(i); };
    return machine_.runPerCore(bodies);
}

} // namespace spmrt
