/**
 * @file
 * Registry of named, hierarchical counters.
 *
 * Subsystems keep their counters in plain structs on their own hot paths
 * (CoreStats, MemStats, the NoC/LLC/DRAM internals) — the registry never
 * sits on a simulated path. Instead, each layer *registers* its counters
 * once under a hierarchical slash-separated name ("core/003/rt/steal_hits",
 * "llc/bank/05/wait_cycles", "noc/packets"), and the registry reads the
 * live values through the stored pointers at export time. Registration is
 * therefore free at simulation time and a snapshot is always current.
 *
 * Scopes in use: core/NNN/{isa,rt}/..., noc/..., llc/... (+ llc/bank/NN),
 * dram/..., mem/..., fault/....
 */

#ifndef SPMRT_OBS_STATS_HPP
#define SPMRT_OBS_STATS_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace spmrt {
namespace obs {

/**
 * Name -> live counter pointer map. The registered pointers must outlive
 * the registry (they point into the Machine that owns it).
 */
class StatRegistry
{
  public:
    /**
     * Register @p value under @p name. Re-registering an existing name
     * replaces the pointer in place (re-arming after a reset), keeping
     * the original position in the export order.
     */
    void add(const std::string &name, const uint64_t *value);

    /** Number of registered counters. */
    size_t size() const { return entries_.size(); }

    /** True when @p name is registered. */
    bool has(const std::string &name) const
    {
        return index_.find(name) != index_.end();
    }

    /** Current value of @p name (panics when unknown). */
    uint64_t value(const std::string &name) const;

    /** Visit every counter in registration order. */
    void forEach(
        const std::function<void(const std::string &, uint64_t)> &fn) const;

    /**
     * Sum of every counter whose name starts with @p prefix (hierarchical
     * roll-up, e.g. prefix "core/" + suffix "rt/steal_hits").
     */
    uint64_t sum(const std::string &prefix,
                 const std::string &suffix = std::string()) const;

    /** Flat JSON object {"name": value, ...} in registration order. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        const uint64_t *value;
    };

    std::vector<Entry> entries_;
    std::unordered_map<std::string, size_t> index_;
};

} // namespace obs
} // namespace spmrt

#endif // SPMRT_OBS_STATS_HPP
