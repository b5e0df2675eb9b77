#include "common/host_cpus.hpp"

#include <sched.h>

#include <thread>

namespace spmrt {

uint32_t
usableCpus()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int count = CPU_COUNT(&mask);
        if (count > 0)
            return static_cast<uint32_t>(count);
    }
    const unsigned installed = std::thread::hardware_concurrency();
    return installed == 0 ? 1 : installed;
}

} // namespace spmrt
