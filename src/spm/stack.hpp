/**
 * @file
 * Per-core call-stack model with SPM residency and DRAM overflow.
 *
 * The paper's key stack mechanism (Sec. 4.1): the stack normally lives in
 * the core's scratchpad, growing down from the top of the stack region.
 * When a new frame would cross the overflow threshold (the low end of the
 * stack region), the stack pointer is redirected into a per-core DRAM
 * overflow buffer — the hardware CSR scheme. A configuration flag instead
 * charges the 2-instruction software checking scheme's overhead on every
 * call and return (the paper's "Fib-S" estimate).
 *
 * Guest code does not push frames implicitly (it is ordinary C++); instead
 * the runtime and the workloads bracket every modelled function activation
 * with a StackFrame RAII object, which charges the callee-save stores and
 * reloads at the frame's actual location (SPM or DRAM) and provides
 * simulated addresses for frame-resident locals — including spawned tasks'
 * metadata, which is how stolen children end up remotely accessing their
 * parent's scratchpad exactly as in the paper's running example.
 */

#ifndef SPMRT_SPM_STACK_HPP
#define SPMRT_SPM_STACK_HPP

#include <vector>

#include "common/bits.hpp"
#include "common/log.hpp"
#include "common/types.hpp"
#include "sim/core.hpp"

namespace spmrt {

/**
 * Stack model configuration for one core.
 */
struct StackConfig
{
    Addr spmLow = kNullAddr;  ///< overflow threshold (lowest SPM stack addr)
    Addr spmTop = kNullAddr;  ///< one past the highest SPM stack address
    Addr dramBase = kNullAddr; ///< DRAM overflow buffer base
    uint32_t dramBytes = 0;    ///< DRAM overflow buffer size
    bool spmResident = true;   ///< false: stack entirely in DRAM
    bool swOverflowCheck = false; ///< charge the 2-instr software scheme
                                  ///< (SPM-resident stacks only)
    uint32_t regSaveWords = 2; ///< callee-saved words stored per frame
};

/**
 * The stack of one simulated core.
 */
class StackModel
{
  public:
    StackModel(Core &core, const StackConfig &cfg) : core_(core), cfg_(cfg)
    {
        SPMRT_ASSERT(cfg.dramBase != kNullAddr && cfg.dramBytes > 0,
                     "stack model needs a DRAM overflow buffer");
        spmSp_ = cfg_.spmTop;
        dramSp_ = cfg_.dramBase + cfg_.dramBytes;
    }

    StackModel(const StackModel &) = delete;
    StackModel &operator=(const StackModel &) = delete;

    /**
     * Push a frame of @p bytes; charges call overhead and callee-save
     * stores at the frame's location.
     * @return the frame's base (lowest) address.
     */
    Addr
    push(uint32_t bytes)
    {
        bytes = alignUp<uint32_t>(bytes, 8);
        bool in_spm =
            cfg_.spmResident && spmSp_ >= cfg_.spmLow + bytes;
        Addr base;
        if (in_spm) {
            spmSp_ -= bytes;
            base = spmSp_;
        } else {
            if (dramSp_ < cfg_.dramBase + bytes)
                SPMRT_FATAL(
                    "core %u: DRAM overflow stack exhausted pushing a "
                    "%u-byte frame at depth %u (%u of %u bytes used); "
                    "raise RuntimeConfig::dramStackBytes or reduce "
                    "recursion depth",
                    core_.id(), bytes, depth(),
                    static_cast<uint32_t>(cfg_.dramBase + cfg_.dramBytes -
                                          dramSp_),
                    cfg_.dramBytes);
            dramSp_ -= bytes;
            base = dramSp_;
            if (cfg_.spmResident) {
                ++core_.stats().rt.stackFramesOverflowed;
                if (obs::Tracer *tr = core_.tracer())
                    tr->instant(obs::kTraceSpill, core_.id(), core_.now(),
                                "stack_spill", "bytes", bytes);
            }
        }
        frames_.push_back(FrameRec{base, bytes, in_spm});
        ++core_.stats().rt.stackFramesPushed;

        // Call overhead: sp adjust + jal (2 ops), plus the software
        // overflow check when the CSR hardware is not modelled. The check
        // guards the SPM stack's bound, so a stack that lives in DRAM
        // never runs it.
        core_.tick(2, 2);
        if (cfg_.swOverflowCheck && cfg_.spmResident)
            core_.tick(2, 2);
        // Callee-save spills at the frame's home location.
        for (uint32_t w = 0; w < cfg_.regSaveWords; ++w)
            core_.store<uint32_t>(base + w * 4, 0);
        // Arm a canary in the first callee-save word (runtime-owned:
        // locals start at localsOffset()). Untimed poke/peek so the
        // check perturbs no timing; a torn canary at pop means guest
        // code scribbled below its frame's local area.
        if (cfg_.regSaveWords > 0)
            core_.mem().pokeAs<uint32_t>(base, canaryWord(base));
        // Tell the checker the callee-save area is live: a *foreign*
        // timed write there before pop is frame corruption.
        if (ConcurrencyChecker *ck = core_.mem().checker())
            ck->onFramePush(core_.id(), base, cfg_.regSaveWords * 4);
        return base;
    }

    /** Pop the most recent frame, charging the reloads and return. */
    void
    pop()
    {
        SPMRT_ASSERT(!frames_.empty(), "pop of empty stack");
        FrameRec frame = frames_.back();
        frames_.pop_back();
        // Drop every protection rooted in this frame (the canary area and
        // any RO_DUP environment copies placed in its locals).
        if (ConcurrencyChecker *ck = core_.mem().checker())
            ck->onFramePop(core_.id(), frame.base, frame.bytes);
        if (cfg_.regSaveWords > 0) {
            uint32_t word = core_.mem().peekAs<uint32_t>(frame.base);
            if (word != canaryWord(frame.base))
                SPMRT_PANIC(
                    "core %u: stack canary smashed at %s frame base "
                    "0x%x (found 0x%08x, expected 0x%08x) — frame "
                    "corruption below localsOffset()",
                    core_.id(), frame.inSpm ? "SPM" : "DRAM", frame.base,
                    word, canaryWord(frame.base));
        }
        for (uint32_t w = 0; w < cfg_.regSaveWords; ++w)
            (void)core_.load<uint32_t>(frame.base + w * 4);
        core_.tick(2, 2);
        if (cfg_.swOverflowCheck && cfg_.spmResident)
            core_.tick(2, 2);
        if (frame.inSpm) {
            SPMRT_ASSERT(frame.base == spmSp_, "out-of-order SPM pop");
            spmSp_ += frame.bytes;
        } else {
            SPMRT_ASSERT(frame.base == dramSp_, "out-of-order DRAM pop");
            dramSp_ += frame.bytes;
        }
    }

    /** Current frame count. */
    uint32_t depth() const { return static_cast<uint32_t>(frames_.size()); }

    /** True when the most recent frame overflowed to DRAM. */
    bool
    topInDram() const
    {
        SPMRT_ASSERT(!frames_.empty(), "no frames");
        return !frames_.back().inSpm;
    }

    /** Offset of the first local byte (after the callee-save area). */
    uint32_t localsOffset() const { return cfg_.regSaveWords * 4; }

    /** The owning core. */
    Core &core() { return core_; }

  private:
    friend class StackFrame;

    /** Position-dependent canary so a frame can't satisfy another's. */
    static uint32_t canaryWord(Addr base) { return 0x5afec0deu ^ base; }

    struct FrameRec
    {
        Addr base;
        uint32_t bytes;
        bool inSpm;
    };

    Core &core_;
    StackConfig cfg_;
    Addr spmSp_;
    Addr dramSp_;
    std::vector<FrameRec> frames_;
};

/**
 * RAII frame: pushed on construction, popped on destruction. Provides a
 * bump allocator over the frame's local area so guest code can place
 * simulated locals (task metadata, partial results, copied arrays).
 */
class StackFrame
{
  public:
    StackFrame(StackModel &stack, uint32_t bytes)
        : stack_(stack), bytes_(alignUp<uint32_t>(bytes, 8)),
          base_(stack.push(bytes_)), bump_(stack.localsOffset())
    {
    }

    ~StackFrame() { stack_.pop(); }

    StackFrame(const StackFrame &) = delete;
    StackFrame &operator=(const StackFrame &) = delete;

    /** Frame base address (lowest byte). */
    Addr base() const { return base_; }
    /** Frame size in bytes. */
    uint32_t bytes() const { return bytes_; }

    /** Allocate @p alloc_bytes of frame-local storage. */
    Addr
    alloc(uint32_t alloc_bytes, uint32_t align = 4)
    {
        Addr candidate = alignUp<Addr>(base_ + bump_, align);
        uint32_t end = (candidate - base_) + alloc_bytes;
        SPMRT_ASSERT(end <= bytes_,
                     "frame-local allocation of %u bytes overflows %u-byte "
                     "frame", alloc_bytes, bytes_);
        bump_ = end;
        return candidate;
    }

    /** Remaining local bytes. */
    uint32_t
    remaining() const
    {
        return bytes_ - bump_;
    }

  private:
    StackModel &stack_;
    uint32_t bytes_;
    Addr base_;
    uint32_t bump_;
};

} // namespace spmrt

#endif // SPMRT_SPM_STACK_HPP
