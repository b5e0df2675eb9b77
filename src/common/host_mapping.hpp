/**
 * @file
 * Anonymous host memory: the one home of the simulator's mmap calls.
 *
 * A HostMapping is a private anonymous mapping. The kernel zero-fills a
 * page the first time it is touched, so a mapping costs the pages that
 * are used, not its size: building one is a system call, not a memset,
 * and a 256 MiB simulated DRAM image whose workload touches a few MiB is
 * resident as a few MiB. It backs the simulated DRAM image
 * (MemorySystem) and the coroutine stacks (GuestContext), which ask for
 * an inaccessible guard page below the usable range.
 */

#ifndef SPMRT_COMMON_HOST_MAPPING_HPP
#define SPMRT_COMMON_HOST_MAPPING_HPP

#include <cstddef>
#include <cstdint>

// AddressSanitizer builds: mappings clear their shadow on release, and
// sim/context.cpp enlarges coroutine stacks for ASan's frame redzones.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPMRT_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define SPMRT_ASAN 1
#endif

namespace spmrt {

/** A page-granular, zero-filled, private anonymous host mapping. */
class HostMapping
{
  public:
    HostMapping() = default;

    /**
     * Map at least @p bytes of zero-filled read/write memory. With
     * @p guard_page, one more page mapped PROT_NONE sits directly below
     * data(), so a downward-growing stack faults on overflow instead of
     * corrupting its neighbour. Throws std::bad_alloc when the kernel
     * refuses, as a failed vector allocation would.
     */
    explicit HostMapping(size_t bytes, bool guard_page = false);

    ~HostMapping() { release(); }

    HostMapping(HostMapping &&other) noexcept;
    HostMapping &operator=(HostMapping &&other) noexcept;
    HostMapping(const HostMapping &) = delete;
    HostMapping &operator=(const HostMapping &) = delete;

    /** First usable byte (above the guard page), or nullptr if unmapped. */
    uint8_t *data() const { return data_; }

    /** Usable bytes: the request rounded up to whole pages. */
    size_t size() const { return bytes_; }

  private:
    /**
     * Unmap (a no-op when empty). Under ASan the usable range's shadow is
     * cleared first: a coroutine stack abandoned by an aborted run still
     * holds poisoned frame redzones, and the next mapping the kernel
     * places at that address would inherit them.
     */
    void release();

    uint8_t *data_ = nullptr;
    size_t bytes_ = 0;
    size_t guardBytes_ = 0;
};

} // namespace spmrt

#endif // SPMRT_COMMON_HOST_MAPPING_HPP
