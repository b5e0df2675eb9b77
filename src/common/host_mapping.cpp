#include "common/host_mapping.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>
#include <utility>

#if defined(SPMRT_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace spmrt {

namespace {

size_t
pageBytes()
{
    static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

HostMapping::HostMapping(size_t bytes, bool guard_page)
{
    const size_t page = pageBytes();
    const size_t usable = (bytes + page - 1) / page * page;
    const size_t guard = guard_page ? page : 0;
    // MAP_NORESERVE: untouched pages take no swap reservation either, so
    // a large image the workload barely uses never trips overcommit.
    void *base = ::mmap(nullptr, guard + usable, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    if (guard != 0 && ::mprotect(base, guard, PROT_NONE) != 0) {
        ::munmap(base, guard + usable);
        throw std::bad_alloc();
    }
    data_ = static_cast<uint8_t *>(base) + guard;
    bytes_ = usable;
    guardBytes_ = guard;
}

HostMapping::HostMapping(HostMapping &&other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)),
      guardBytes_(std::exchange(other.guardBytes_, 0))
{
}

HostMapping &
HostMapping::operator=(HostMapping &&other) noexcept
{
    if (this != &other) {
        release();
        data_ = std::exchange(other.data_, nullptr);
        bytes_ = std::exchange(other.bytes_, 0);
        guardBytes_ = std::exchange(other.guardBytes_, 0);
    }
    return *this;
}

void
HostMapping::release()
{
    if (data_ == nullptr)
        return;
#if defined(SPMRT_ASAN)
    __asan_unpoison_memory_region(data_, bytes_);
#endif
    ::munmap(data_ - guardBytes_, guardBytes_ + bytes_);
    data_ = nullptr;
    bytes_ = 0;
    guardBytes_ = 0;
}

} // namespace spmrt
