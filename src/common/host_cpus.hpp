/**
 * @file
 * How many CPUs this process may run on.
 */

#ifndef SPMRT_COMMON_HOST_CPUS_HPP
#define SPMRT_COMMON_HOST_CPUS_HPP

#include <cstdint>

namespace spmrt {

/**
 * CPUs in the calling thread's affinity mask (sched_getaffinity), which
 * taskset and cgroup cpusets narrow; std::thread::hardware_concurrency()
 * counts every installed CPU instead. Falls back to
 * hardware_concurrency() where the mask cannot be read. Never 0.
 */
uint32_t usableCpus();

} // namespace spmrt

#endif // SPMRT_COMMON_HOST_CPUS_HPP
