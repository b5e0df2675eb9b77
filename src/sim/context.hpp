/**
 * @file
 * Stackful coroutine contexts used to give every simulated core its own
 * host call stack.
 *
 * On x86-64 a hand-rolled assembly switch (context_x86_64.S) is used; on
 * other architectures we fall back to POSIX ucontext, which is slower
 * (it performs a sigprocmask syscall per switch) but portable.
 */

#ifndef SPMRT_SIM_CONTEXT_HPP
#define SPMRT_SIM_CONTEXT_HPP

#include <cstddef>
#include <cstdint>

#include "common/host_mapping.hpp"

// ThreadSanitizer cannot follow a hand-rolled stack switch; every
// context carries a TSan fiber handle and switchTo() announces the
// switch (see __tsan_switch_to_fiber). Without this, every coroutine
// switch would tear TSan's shadow stack — fleet workers run engines on
// many host threads, so the TSan pass over the fleet needs it.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPMRT_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SPMRT_TSAN 1
#endif

namespace spmrt {

/**
 * An execution context: a host stack plus saved machine state.
 *
 * A GuestContext is created suspended; the first switch into it invokes
 * @c entry(arg) on the private stack. The entry function must never return;
 * it must switch away forever once its work is done.
 */
class GuestContext
{
  public:
    GuestContext();
    ~GuestContext();

    GuestContext(const GuestContext &) = delete;
    GuestContext &operator=(const GuestContext &) = delete;

    /**
     * Allocate a stack (with an inaccessible guard page at the overflow
     * end) and arrange for the first activation to call @p entry(@p arg).
     * Throws std::bad_alloc when the stack cannot be mapped.
     *
     * @param stack_bytes usable stack size in bytes.
     * @param entry entry point executed on the new stack.
     * @param arg opaque argument passed to the entry point.
     */
    void init(size_t stack_bytes, void (*entry)(void *), void *arg);

    /** True once init() has been called. */
    bool valid() const { return stack_.data() != nullptr; }

    /**
     * Suspend the currently running context into @p from and resume
     * @p to. Returns when something later switches back into @p from.
     */
    static void switchTo(GuestContext &from, GuestContext &to);

  private:
    void *sp_ = nullptr; ///< saved stack pointer while suspended
    HostMapping stack_;  ///< usable stack above its guard page

#if defined(SPMRT_TSAN)
    /**
     * TSan fiber handle: created by init() for coroutine contexts, or
     * captured lazily (the host thread's implicit fiber) the first time
     * a root context — one that merely names a thread's native stack,
     * like the engine's scheduler context — switches
     * away. Owned (and destroyed) only when init() created it.
     */
    void *tsanFiber_ = nullptr;
#endif

#if !defined(__x86_64__)
    void *ucontextStorage_ = nullptr; ///< ucontext_t when on the fallback
#endif
};

} // namespace spmrt

#endif // SPMRT_SIM_CONTEXT_HPP
