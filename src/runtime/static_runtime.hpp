/**
 * @file
 * The static runtime: the paper's baseline.
 *
 * Supports only statically scheduled parallel loops in the SPMD style of
 * typical manycore C runtimes: a parallel region splits its iteration
 * space into one contiguous chunk per core, every core executes its chunk,
 * and a global barrier closes the region. There is no load balancing, no
 * nesting (nested regions serialize on the calling core), and no
 * spawn/wait — which is precisely why recursive spawn-and-sync workloads
 * have no static baseline in the paper.
 */

#ifndef SPMRT_RUNTIME_STATIC_RUNTIME_HPP
#define SPMRT_RUNTIME_STATIC_RUNTIME_HPP

#include <functional>
#include <memory>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/config.hpp"
#include "runtime/context.hpp"
#include "sim/machine.hpp"
#include "spm/layout.hpp"
#include "spm/stack.hpp"

namespace spmrt {

/**
 * Statically scheduled SPMD runtime.
 */
class StaticRuntime
{
  public:
    StaticRuntime(Machine &machine, const RuntimeConfig &cfg);

    StaticRuntime(const StaticRuntime &) = delete;
    StaticRuntime &operator=(const StaticRuntime &) = delete;

    /**
     * Execute @p root_fn on core 0; other cores serve parallel regions.
     * @return cycles from kernel start to the last core's finish.
     */
    Cycles run(const std::function<void(TaskContext &)> &root_fn,
               uint32_t root_frame_bytes = 128);

    /** Chunk executor: chunk(tc, my_lo, my_hi). */
    using ChunkFn = std::function<void(TaskContext &, int64_t, int64_t)>;

    /**
     * Open a parallel region over [lo, hi): each core runs @p chunk on
     * its contiguous share. Must be called from the root context
     * (staticNesting() == 0) on core 0; the pattern layer serializes
     * nested regions instead of calling this.
     */
    void parallelRegion(TaskContext &tc, int64_t lo, int64_t hi,
                        const ChunkFn &chunk);

    /** The simulated machine. */
    Machine &machine() { return machine_; }
    /** Active configuration. */
    const RuntimeConfig &config() const { return cfg_; }
    /** User scratchpad allocator of core @p id. */
    SpmUserAllocator &userSpm(CoreId id) { return *userSpm_[id]; }

    /** Contiguous share of [lo, hi) owned by @p id out of @p cores. */
    static std::pair<int64_t, int64_t>
    chunkOf(int64_t lo, int64_t hi, uint32_t id, uint32_t cores)
    {
        int64_t n = hi - lo;
        int64_t begin = lo + n * id / cores;
        int64_t end = lo + n * (id + 1) / cores;
        return {begin, end};
    }

  private:
    void workerBody(CoreId id);

    Machine &machine_;
    RuntimeConfig cfg_;
    SpmLayout layout_;
    SimBarrier barrier_;
    std::vector<std::unique_ptr<StackModel>> stacks_;
    std::vector<std::unique_ptr<SpmUserAllocator>> userSpm_;
    std::vector<Addr> dramStackBase_;

    // Host-side broadcast slot for the open region.
    struct Broadcast
    {
        bool stop = false;
        int64_t lo = 0;
        int64_t hi = 0;
        const ChunkFn *chunk = nullptr;
    } bcast_;
};

} // namespace spmrt

#endif // SPMRT_RUNTIME_STATIC_RUNTIME_HPP
