/**
 * @file
 * The guest-facing core API.
 *
 * Guest code (runtime + workloads) runs as ordinary C++ on the core's
 * coroutine, but every access to simulated memory and every unit of modelled
 * compute goes through this class, which charges time against the core's
 * clock and counts dynamic operations (the analogue of the paper's dynamic
 * instruction counts).
 */

#ifndef SPMRT_SIM_CORE_HPP
#define SPMRT_SIM_CORE_HPP

#include <cstring>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/memory_system.hpp"
#include "obs/trace.hpp"
#include "sim/config.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"

namespace spmrt {

/**
 * ISA-level dynamic execution counters, charged by the Core itself (the
 * analogue of the paper's dynamic instruction counts).
 */
struct IsaStats
{
    uint64_t instructions = 0; ///< dynamic operations charged
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t amos = 0;
    uint64_t fences = 0;
};

/** Runtime-level counters, incremented by the task runtime layers. */
struct RuntimeStats
{
    uint64_t tasksExecuted = 0;
    uint64_t tasksSpawned = 0;
    uint64_t stealAttempts = 0;
    uint64_t stealHits = 0;
    uint64_t stackFramesPushed = 0;
    uint64_t stackFramesOverflowed = 0;
    uint64_t spawnsInlined = 0; ///< queue-full spawns executed inline
};

/**
 * Per-core dynamic execution counters: the ISA-level scope (what the
 * modelled hardware retires, charged by the Core) and the runtime-level
 * scope (what the task runtime does with it, charged by the runtime
 * layers). Keeping the two scopes as separate structs lets
 * Machine::totalStat() pick the scope from the member pointer's type
 * (`totalStat(&RuntimeStats::stealHits)`), which is how every reader of
 * these counters sums them.
 */
struct CoreStats
{
    IsaStats isa;
    RuntimeStats rt;
};

/**
 * Handle through which guest code interacts with the simulated machine.
 *
 * Memory-model note: every globally visible operation — anything not
 * targeting this core's own scratchpad — commits a uniform delta
 * (max(1, kLinkLatency) cycles) after its issue gate, in (commit time,
 * core id) order. Because the delta is uniform, that commit order is
 * exactly the issue-gate order, so the memory system observes the same
 * call sequence with the same timestamps under either scheduler
 * (DESIGN.md Sec. 10). On the fast path an op whose commit
 * key is already globally next executes inline at the issue site
 * (Engine::remoteInlineOk) with no capture and no context switch, so a
 * run with spread-out core clocks behaves exactly like the historical
 * commit-at-issue engine. Otherwise the op is captured into this core's
 * FIFO and the engine commits it — via executeHeadOp() — when its key
 * is globally next: blocking ops park the core until the commit
 * computes their completion time, posted stores charge the issue cost
 * and continue (fence() waits for stragglers).
 *
 * Each op kind has one home, a perform function that makes the kind's
 * memory-system call at a given issue time and fires its checker hook.
 * The local path, the inline remote path and the commit all call it, so
 * the checker's happens-before graph observes accesses in exactly the
 * order their effects land: the guest site for local and inline ops, the
 * commit for captured ones. Hooking captured ops at the issue or wake
 * site instead would reorder them against other cores' effects within
 * the commit-delta window, and the checker would report phantom races
 * (or miss real ones).
 */
class Core
{
  public:
    Core(Engine &engine, MemorySystem &mem, CoreId id,
         const MachineConfig &cfg)
        : engine_(engine), mem_(mem), id_(id), cfg_(cfg),
          localSpmBase_(mem.map().spmBase(id))
    {
        engine.setCore(id, this);
    }

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** This core's id. */
    CoreId id() const { return id_; }
    /** This core's current clock. */
    Cycles now() const { return engine_.time(id_); }
    /** The machine configuration. */
    const MachineConfig &config() const { return cfg_; }

    /**
     * Charge local compute: @p cycles of latency and @p instrs dynamic
     * operations. No context switch.
     */
    void
    tick(Cycles cycles, uint64_t instrs = 1)
    {
        if (fault_ != nullptr)
            cycles += fault_->coreStall(id_, engine_.time(id_));
        engine_.advance(id_, cycles);
        stats_.isa.instructions += instrs;
    }

    /** Blocking typed load. */
    template <typename T>
    T
    load(Addr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        issueLoad<OpKind::Load>(addr, value);
        return value;
    }

    /**
     * Blocking typed load with acquire semantics for the checker. Use it
     * for the protocol's sanctioned racy reads — the lock-free head/tail
     * emptiness probe and the termination-flag poll — which are exempt
     * from race checking but observe release edges on the word. Timing is
     * identical to load().
     */
    template <typename T>
    T
    loadSync(Addr addr)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value;
        issueLoad<OpKind::LoadSync>(addr, value);
        return value;
    }

    /** Posted typed store. */
    template <typename T>
    void
    store(Addr addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        issueStore<OpKind::Store>(addr, value);
    }

    /**
     * Store with release semantics: drains prior posted stores, then
     * stores. Timing is exactly fence() + store(); for the checker the
     * write publishes a release edge on the word (flag broadcasts) instead
     * of being race-checked.
     */
    template <typename T>
    void
    storeRelease(Addr addr, T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        fence();
        issueStore<OpKind::StoreRelease>(addr, value);
    }

    /**
     * Timed bulk read (a DMA-like pipelined burst): chunks are issued
     * back-to-back and the core blocks until the last response.
     */
    void read(Addr addr, void *out, uint32_t bytes);

    /** Timed bulk write, pipelined and posted per chunk. */
    void write(Addr addr, const void *in, uint32_t bytes);

    /** Atomic read-modify-write; returns the previous value. */
    uint32_t
    amo(Addr addr, AmoOp op, uint32_t operand)
    {
        engine_.syncPoint(id_);
        uint32_t old_value = 0;
        const bool local = isLocalSpm(addr);
        if (local || engine_.remoteInlineOk(id_, now() + kCommitDelta))
            engine_.advanceTo(id_,
                              performAmo(now(), addr, op, operand,
                                         old_value));
        else
            capture(OpKind::Amo, addr, sizeof(operand), &operand,
                    &old_value, op);
        if (!local) // completion gate, see issueLoad()
            engine_.syncPoint(id_);
        ++stats_.isa.amos;
        ++stats_.isa.instructions;
        return old_value;
    }

    /** Fetch-and-add convenience wrapper. */
    uint32_t
    amoAdd(Addr addr, int32_t delta)
    {
        return amo(addr, AmoOp::Add, static_cast<uint32_t>(delta));
    }

    /** Fetch-and-add with release semantics (drains prior stores first). */
    uint32_t
    amoAddRelease(Addr addr, int32_t delta)
    {
        fence();
        return amoAdd(addr, delta);
    }

    /** Block until all posted stores by this core have landed. */
    void
    fence()
    {
        if (pendingPosted_ != 0) {
            // Captured posted stores have not reached the memory system
            // yet, so the drain time is not final: park until the last
            // one commits (executeHeadOp wakes us), then drain as usual.
            fenceWaiting_ = true;
            engine_.block(id_, Engine::ParkKind::Drain);
            fenceWaiting_ = false;
        }
        engine_.advanceTo(id_, mem_.storeDrainTime(id_));
        // Completion gate: the drain time can jump far past other cores'
        // clocks (remote store arrivals), so re-enter admission before
        // running on — see issueLoad() for why every engine must split
        // its segments at the same points.
        engine_.syncPoint(id_);
        ++stats_.isa.fences;
        ++stats_.isa.instructions;
    }

    /** Cooperative yield with a small idle charge (backoff loops). */
    void
    idle(Cycles cycles)
    {
        if (fault_ != nullptr)
            cycles += fault_->coreStall(id_, engine_.time(id_));
        engine_.advance(id_, cycles);
        engine_.syncPoint(id_);
    }

    /** True iff @p addr is inside this core's own scratchpad. The base is
     *  cached at construction: this predicate runs on every store. */
    bool
    isLocalSpm(Addr addr) const
    {
        return addr - localSpmBase_ < cfg_.spmBytes;
    }

    /** Base address of this core's scratchpad window. */
    Addr spmBase() const { return localSpmBase_; }

    /** Mutable access to the counters (the runtime updates them). */
    CoreStats &stats() { return stats_; }
    const CoreStats &stats() const { return stats_; }

    /** Escape hatches for infrastructure code. */
    Engine &engine() { return engine_; }
    MemorySystem &mem() { return mem_; }

    /** Install (or clear, with nullptr) the fault plan for this core. */
    void setFaultPlan(FaultPlan *plan) { fault_ = plan; }
    /** The active fault plan, or nullptr (consulted by the runtime). */
    FaultPlan *faultPlan() { return fault_; }

    /** Attach (or detach, with nullptr) the timeline tracer. */
    void setTracer(obs::Tracer *tracer) { tracer_ = tracer; }

    /** The attached tracer, or nullptr. */
    obs::Tracer *tracer() const { return tracer_; }

    /**
     * Engine callback: commit this core's oldest captured op. Returns the
     * commit time of the next captured op, or Engine::kNoPendingOp when
     * the FIFO is drained.
     */
    Cycles executeHeadOp();

  private:
    /** The memory-op kinds; each has one perform function below. */
    enum class OpKind : uint8_t
    {
        Load,         ///< blocking scalar load
        LoadSync,     ///< as Load, with an acquire checker edge
        LoadBurst,    ///< blocking bulk read
        Store,        ///< posted scalar store
        StoreRelease, ///< as Store, with a release checker edge
        StoreBurst,   ///< posted bulk write
        Amo,          ///< blocking read-modify-write
    };

    /** True for the posted kinds, whose issuer runs on past the issue. */
    static bool
    posted(OpKind kind)
    {
        return kind == OpKind::Store || kind == OpKind::StoreRelease ||
               kind == OpKind::StoreBurst;
    }

    /**
     * A globally visible operation captured at its issue gate, waiting
     * for the engine to commit it in global (commit time, core id)
     * order. Blocking kinds keep the issuing core parked, so their
     * guest-owned destination (dst) stays alive; source bytes (a store's
     * data, an AMO's operand) are copied into payload because a posted
     * issuer runs on. Slots are reused in place, so the payload keeps
     * its capacity from one use to the next.
     */
    struct CapturedOp
    {
        OpKind kind = OpKind::Load;
        AmoOp amoOp = AmoOp::Add;
        Cycles issue = 0;
        Addr addr = 0;
        uint32_t bytes = 0;
        void *dst = nullptr;
        std::vector<uint8_t> payload;
    };

    /**
     * @name One home per op kind
     * Each makes its kind's memory-system call for an op issued at
     * @p issue, fires the kind's checker hook, and returns the time the
     * issuer may run on (the completion time of a blocking op, the end
     * of a posted op's issue slots).
     * @{
     */

    /** Load and LoadSync. */
    Cycles
    performLoad(OpKind kind, Cycles issue, Addr addr, void *dst,
                uint32_t bytes)
    {
        Cycles done = mem_.load(id_, issue, addr, dst, bytes);
        if (ConcurrencyChecker *ck = mem_.checker()) {
            if (kind == OpKind::LoadSync)
                ck->onLoadSync(id_, addr, bytes);
            else
                ck->onLoad(id_, addr, bytes, done);
        }
        return done;
    }

    /** Store and StoreRelease. */
    Cycles
    performStore(OpKind kind, Cycles issue, Addr addr, const void *src,
                 uint32_t bytes)
    {
        Cycles done = mem_.store(id_, issue, addr, src, bytes);
        if (ConcurrencyChecker *ck = mem_.checker()) {
            if (kind == OpKind::StoreRelease)
                ck->onStoreRelease(id_, addr);
            else
                ck->onStore(id_, addr, bytes, done);
        }
        return done;
    }

    /** Amo. */
    Cycles
    performAmo(Cycles issue, Addr addr, AmoOp op, uint32_t operand,
               uint32_t &old_value)
    {
        Cycles done = mem_.amo(id_, issue, addr, op, operand, old_value);
        if (ConcurrencyChecker *ck = mem_.checker())
            ck->onAmo(id_, addr, done);
        return done;
    }

    /** LoadBurst. */
    Cycles performLoadBurst(Cycles issue, Addr addr, void *dst,
                            uint32_t bytes);

    /** StoreBurst. */
    Cycles performStoreBurst(Cycles issue, Addr addr, const void *src,
                             uint32_t bytes);
    /** @} */

    /**
     * Issue a blocking scalar load (Load or LoadSync) into @p dst. The
     * kind and size are template arguments so that an out-of-line
     * instance, which the compiler may emit for a hot caller, still
     * folds them to constants.
     */
    template <OpKind kind, typename T>
    void
    issueLoad(Addr addr, T &dst)
    {
        engine_.syncPoint(id_);
        const bool local = isLocalSpm(addr);
        if (local || engine_.remoteInlineOk(id_, now() + kCommitDelta))
            engine_.advanceTo(
                id_, performLoad(kind, now(), addr, &dst, sizeof(T)));
        else
            capture(kind, addr, sizeof(T), nullptr, &dst);
        // Completion gate (remote only): the clock jumped to the
        // response time while other cores may still sit below it, so
        // re-enter admission before running on. Both the inline and the
        // capture path pass it, which keeps every engine's segment
        // boundaries — and therefore the host order of stateful
        // memory-model charges — the same.
        if (!local)
            engine_.syncPoint(id_);
        ++stats_.isa.loads;
        ++stats_.isa.instructions;
    }

    /** Issue a posted scalar store (Store or StoreRelease) of @p value;
     *  templated like issueLoad(). */
    template <OpKind kind, typename T>
    void
    issueStore(Addr addr, const T &value)
    {
        // Remote and DRAM stores are globally visible traffic: order them.
        const bool local = isLocalSpm(addr);
        if (!local)
            engine_.syncPoint(id_);
        if (local || engine_.remoteInlineOk(id_, now() + kCommitDelta))
            engine_.advanceTo(
                id_, performStore(kind, now(), addr, &value, sizeof(T)));
        else
            capture(kind, addr, sizeof(T), &value, nullptr);
        ++stats_.isa.stores;
        ++stats_.isa.instructions;
    }

    /**
     * Capture an op whose commit key is not yet globally next: queue it
     * (copying @p bytes of @p src into the slot when @p src is set) and
     * announce the head when it is new. A blocking kind then parks until
     * executeHeadOp() performs it into @p dst and wakes the core at the
     * op's done time. A posted kind charges its issue slots and runs on;
     * fence() waits for the commit.
     */
    void capture(OpKind kind, Addr addr, uint32_t bytes, const void *src,
                 void *dst, AmoOp amo_op = AmoOp::Add);

    Engine &engine_;
    MemorySystem &mem_;
    CoreId id_;
    const MachineConfig &cfg_;
    Addr localSpmBase_; ///< cached: consulted on every store
    /** Uniform issue-to-commit delay, max(1, link latency). */
    static constexpr Cycles kCommitDelta =
        MachineConfig::kLinkLatency > 1 ? MachineConfig::kLinkLatency : 1;
    CoreStats stats_;
    FaultPlan *fault_ = nullptr;
    obs::Tracer *tracer_ = nullptr;
    // Issue-order commit FIFO: a ring of reused slots whose size is a
    // power of two; it doubles when a push finds it full.
    std::vector<CapturedOp> opRing_ = std::vector<CapturedOp>(4);
    uint32_t opHead_ = 0;  ///< ring index of the oldest captured op
    uint32_t opCount_ = 0; ///< captured ops not yet committed
    uint32_t pendingPosted_ = 0; ///< captured stores not yet committed
    bool fenceWaiting_ = false;  ///< fence() parked on pendingPosted_
};

} // namespace spmrt

#endif // SPMRT_SIM_CORE_HPP
