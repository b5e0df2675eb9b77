#include "sim/context.hpp"

#include "common/log.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#if defined(SPMRT_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace spmrt {

namespace {

/**
 * ASan redzones inflate every stack frame several-fold, so a guest
 * stack sized for production frames overflows under instrumentation.
 * Scale the caller's request rather than making every config
 * sanitizer-aware.
 */
constexpr size_t
scaledStackBytes(size_t stack_bytes)
{
#if defined(SPMRT_ASAN)
    return stack_bytes * 4;
#else
    return stack_bytes;
#endif
}

} // namespace

#if defined(__x86_64__)

extern "C" void spmrt_ctx_swap(void **save_sp, void *restore_sp);
extern "C" void spmrt_ctx_trampoline();

GuestContext::GuestContext() = default;

GuestContext::~GuestContext()
{
#if defined(SPMRT_TSAN)
    // Only init()'d contexts own their fiber; a root context's handle
    // is the host thread's implicit fiber, which TSan owns.
    if (valid() && tsanFiber_ != nullptr)
        __tsan_destroy_fiber(tsanFiber_);
#endif
}

void
GuestContext::init(size_t stack_bytes, void (*entry)(void *), void *arg)
{
    SPMRT_ASSERT(!valid(), "context initialized twice");
    // Guard page at the low (overflow) end of the downward-growing stack.
    stack_ = HostMapping(scaledStackBytes(stack_bytes), true);
#if defined(SPMRT_TSAN)
    tsanFiber_ = __tsan_create_fiber(0);
#endif

    // Build the initial frame that spmrt_ctx_swap will "return" into.
    // Memory layout ascending from the saved sp:
    //   [6 callee-saved slots][trampoline][arg][entry][padding...]
    // The saved sp must be ~= 8 (mod 16) so that the trampoline's call
    // site sees a 16-byte-aligned stack (see context_x86_64.S).
    auto top = reinterpret_cast<uintptr_t>(stack_.data() + stack_.size());
    top &= ~uintptr_t(15);
    auto *slot = reinterpret_cast<uint64_t *>(top);
    *--slot = 0; // padding
    *--slot = 0; // padding
    *--slot = reinterpret_cast<uint64_t>(entry);
    *--slot = reinterpret_cast<uint64_t>(arg);
    *--slot = reinterpret_cast<uint64_t>(&spmrt_ctx_trampoline);
    for (int i = 0; i < 6; ++i)
        *--slot = 0; // rbp, rbx, r12..r15
    sp_ = slot;
    SPMRT_ASSERT((reinterpret_cast<uintptr_t>(sp_) & 15) == 8,
                 "bad initial coroutine stack alignment");
}

void
GuestContext::switchTo(GuestContext &from, GuestContext &to)
{
#if defined(SPMRT_TSAN)
    // The suspending side remembers the fiber it ran on (lazily
    // capturing the thread's implicit fiber for root contexts) and
    // announces the target before the raw stack swap. Flag 0 makes the
    // switch a synchronization point.
    from.tsanFiber_ = __tsan_get_current_fiber();
    SPMRT_ASSERT(to.tsanFiber_ != nullptr,
                 "switch into a context TSan has never seen");
    __tsan_switch_to_fiber(to.tsanFiber_, 0);
#endif
    spmrt_ctx_swap(&from.sp_, to.sp_);
}

#else // !__x86_64__: portable ucontext fallback

namespace {

// makecontext() can only pass int arguments portably; split each pointer
// into two 32-bit halves and reassemble them in the trampoline.
void
uctxTrampoline(unsigned fn_hi, unsigned fn_lo, unsigned arg_hi,
               unsigned arg_lo)
{
    auto join = [](unsigned hi, unsigned lo) {
        return (static_cast<uintptr_t>(hi) << 32) | lo;
    };
    auto fn = reinterpret_cast<void (*)(void *)>(join(fn_hi, fn_lo));
    auto *arg = reinterpret_cast<void *>(join(arg_hi, arg_lo));
    fn(arg);
    SPMRT_PANIC("coroutine entry returned");
}

ucontext_t *
asUcontext(void *&storage)
{
    if (storage == nullptr)
        storage = new ucontext_t();
    return static_cast<ucontext_t *>(storage);
}

} // namespace

GuestContext::GuestContext() = default;

GuestContext::~GuestContext()
{
#if defined(SPMRT_TSAN)
    if (valid() && tsanFiber_ != nullptr)
        __tsan_destroy_fiber(tsanFiber_);
#endif
    delete static_cast<ucontext_t *>(ucontextStorage_);
}

void
GuestContext::init(size_t stack_bytes, void (*entry)(void *), void *arg)
{
    stack_ = HostMapping(scaledStackBytes(stack_bytes), true);
#if defined(SPMRT_TSAN)
    tsanFiber_ = __tsan_create_fiber(0);
#endif

    auto *ctx = asUcontext(ucontextStorage_);
    ::getcontext(ctx);
    ctx->uc_stack.ss_sp = stack_.data();
    ctx->uc_stack.ss_size = stack_.size();
    ctx->uc_link = nullptr;
    auto fn_bits = reinterpret_cast<uintptr_t>(entry);
    auto arg_bits = reinterpret_cast<uintptr_t>(arg);
    ::makecontext(ctx, reinterpret_cast<void (*)()>(&uctxTrampoline), 4,
                  static_cast<unsigned>(fn_bits >> 32),
                  static_cast<unsigned>(fn_bits),
                  static_cast<unsigned>(arg_bits >> 32),
                  static_cast<unsigned>(arg_bits));
    sp_ = nullptr;
}

void
GuestContext::switchTo(GuestContext &from, GuestContext &to)
{
#if defined(SPMRT_TSAN)
    from.tsanFiber_ = __tsan_get_current_fiber();
    SPMRT_ASSERT(to.tsanFiber_ != nullptr,
                 "switch into a context TSan has never seen");
    __tsan_switch_to_fiber(to.tsanFiber_, 0);
#endif
    ::swapcontext(asUcontext(from.ucontextStorage_),
                  asUcontext(to.ucontextStorage_));
}

#endif // __x86_64__

} // namespace spmrt
