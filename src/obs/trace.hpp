/**
 * @file
 * Determinism-preserving timeline tracer.
 *
 * The Tracer records structured events (task execution spans, spawns,
 * steals, sync waits, engine context switches, stack overflow spills,
 * fault-injection windows) into a host-side buffer and serializes them as
 * Chrome trace-event JSON, loadable in Perfetto (https://ui.perfetto.dev)
 * or chrome://tracing. Each simulated core is one track; timestamps are
 * engine cycles, never wall clock.
 *
 * Determinism rules (enforced by tests/test_obs.cpp):
 *  - hooks only *read* simulated state and append to host memory — they
 *    charge no cycles and consult no clocks other than the one passed in,
 *    so an armed run is bit-identical to a disarmed one;
 *  - event names are compile-time string literals (stored by pointer, no
 *    allocation on the hot path beyond vector growth);
 *  - the buffer is bounded (dropped events are counted, never silent).
 *
 * An unarmed tracer costs each `if (obs::Tracer *t = ...)` hook site
 * one null test (Core::tracer(), Engine::tracer()).
 */

#ifndef SPMRT_OBS_TRACE_HPP
#define SPMRT_OBS_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

/** Always 1: the tracer is part of every build. Kept only because
 *  benchmark provenance records it. */
#define SPMRT_TELEMETRY_ENABLED 1

namespace spmrt {
namespace obs {

/** Event categories: each event's Chrome-trace "cat" field. */
enum TraceCategory : uint32_t
{
    kTraceTask = 1u << 0,   ///< task execution spans (B/E)
    kTraceSpawn = 1u << 1,  ///< spawn instants
    kTraceSteal = 1u << 2,  ///< steal attempts and hits (instants)
    kTraceSync = 1u << 3,   ///< wait-for-children spans (B/E)
    kTraceSwitch = 1u << 4, ///< engine context switches (instants)
    kTraceSpill = 1u << 5,  ///< SPM-stack overflow spills to DRAM
    kTraceFault = 1u << 6   ///< fault-injection windows (complete spans)
};

/** Synthetic track for events not owned by any core (fault windows). */
constexpr uint32_t kTraceFaultTrack = 1'000'000;

/**
 * One recorded event. POD; `name`/`argName` must be string literals (or
 * otherwise outlive the tracer).
 */
struct TraceEvent
{
    Cycles ts;           ///< simulated cycles
    uint64_t dur;        ///< 'X' events only: span length in cycles
    uint64_t arg;        ///< first argument value
    uint64_t arg2;       ///< second argument value
    const char *name;    ///< event name (static string)
    const char *argName; ///< first argument key, or nullptr
    const char *argName2;///< second argument key, or nullptr
    uint32_t track;      ///< core id, or a synthetic track id
    uint32_t category;   ///< exactly one TraceCategory bit
    char phase;          ///< 'B', 'E', 'i' or 'X'
};

/**
 * Bounded in-memory event buffer with a Chrome trace-event serializer.
 */
class Tracer
{
  public:
    explicit Tracer(size_t max_events = kDefaultMaxEvents)
        : maxEvents_(max_events)
    {
    }

    /** @name Hot-path hooks
     *  @{
     */

    /** Open a duration span on @p track at @p ts. */
    void
    begin(uint32_t cat, uint32_t track, Cycles ts, const char *name,
          const char *arg_name = nullptr, uint64_t arg = 0)
    {
        push({ts, 0, arg, 0, name, arg_name, nullptr, track, cat, 'B'});
    }

    /** Close the most recent open span of @p name on @p track. */
    void
    end(uint32_t cat, uint32_t track, Cycles ts, const char *name)
    {
        push({ts, 0, 0, 0, name, nullptr, nullptr, track, cat, 'E'});
    }

    /** A zero-duration instant on @p track. */
    void
    instant(uint32_t cat, uint32_t track, Cycles ts, const char *name,
            const char *arg_name = nullptr, uint64_t arg = 0)
    {
        push({ts, 0, arg, 0, name, arg_name, nullptr, track, cat, 'i'});
    }

    /**
     * A complete span [start, end) emitted in one piece ('X'). Unlike
     * B/E pairs these need not nest, so they can overlap anything —
     * used for fault-injection windows.
     */
    void
    span(uint32_t cat, uint32_t track, Cycles start, Cycles end,
         const char *name, const char *arg_name = nullptr, uint64_t arg = 0,
         const char *arg_name2 = nullptr, uint64_t arg2 = 0)
    {
        push({start, end - start, arg, arg2, name, arg_name, arg_name2, track,
              cat, 'X'});
    }
    /** @} */

    /** Recorded events, in emission order. */
    const std::vector<TraceEvent> &events() const { return events_; }
    /** Events discarded after the buffer filled (never silent). */
    uint64_t dropped() const { return dropped_; }
    /** Discard all recorded events (the capacity is kept). */
    void
    clear()
    {
        events_.clear();
        dropped_ = 0;
    }

    /** Serialize to Chrome trace-event JSON. */
    std::string chromeJson() const;

    /** Write chromeJson() to @p path; false (with a warning) on failure. */
    bool writeChromeJson(const std::string &path) const;

    static constexpr size_t kDefaultMaxEvents = 1u << 22; // ~4M events

  private:
    void
    push(const TraceEvent &event)
    {
        if (events_.size() >= maxEvents_) {
            ++dropped_;
            return;
        }
        events_.push_back(event);
    }

    size_t maxEvents_;
    std::vector<TraceEvent> events_;
    uint64_t dropped_ = 0;
};

/** Human-readable name of a TraceCategory bit ("task", "steal", ...). */
const char *traceCategoryName(uint32_t category);

} // namespace obs
} // namespace spmrt

#endif // SPMRT_OBS_TRACE_HPP
