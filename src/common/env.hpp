/**
 * @file
 * Shared environment-variable parsing.
 *
 * Every knob the simulator reads from the process environment goes through
 * these helpers so the parsing rules are uniform (and greppable in one
 * place) instead of re-implemented per call site:
 *
 *  - SPMRT_BENCH_QUICK       bool  shrink bench inputs for smoke runs
 *  - SPMRT_ENGINE_REFERENCE  bool  start every Engine on the linear-scan
 *                                  reference scheduler
 *  - SPMRT_TRACE_OUT         str   arm telemetry and write a Chrome trace
 *  - SPMRT_MACHINE           str   machine-geometry spec override; parsed
 *                                  by MachineConfig::fromSpec (fatal on a
 *                                  malformed spec)
 *
 * Environment reads happen on the host setup path only — never on the
 * simulated path — so they cannot perturb timing or determinism.
 */

#ifndef SPMRT_COMMON_ENV_HPP
#define SPMRT_COMMON_ENV_HPP

#include <cstdlib>
#include <string>

namespace spmrt {
namespace env {

/**
 * Boolean knob: unset -> @p fallback; else true iff the first character
 * is '1' (matching the historical SPMRT_BENCH_QUICK / SPMRT_ENGINE_REFERENCE
 * convention, so "0", "" and anything else read as false).
 */
inline bool
boolValue(const char *name, bool fallback = false)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return fallback;
    return value[0] == '1';
}

/** String knob: unset -> @p fallback (empty by default). */
inline std::string
stringValue(const char *name, const char *fallback = "")
{
    const char *value = std::getenv(name);
    return value != nullptr ? std::string(value) : std::string(fallback);
}

} // namespace env
} // namespace spmrt

#endif // SPMRT_COMMON_ENV_HPP
