#include "obs/trace.hpp"

#include <map>
#include <set>

#include "common/log.hpp"

namespace spmrt {
namespace obs {

const char *
traceCategoryName(uint32_t category)
{
    switch (category) {
      case kTraceTask:
        return "task";
      case kTraceSpawn:
        return "spawn";
      case kTraceSteal:
        return "steal";
      case kTraceSync:
        return "sync";
      case kTraceSwitch:
        return "switch";
      case kTraceSpill:
        return "spill";
      case kTraceFault:
        return "fault";
      default:
        return "other";
    }
}

std::string
Tracer::chromeJson() const
{
    // Chrome trace-event format: one JSON object with a "traceEvents"
    // array. "ts" is nominally microseconds; we emit raw simulated cycles
    // — Perfetto renders them fine, the unit label is just wrong, which
    // the metadata records.
    std::string out;
    out.reserve(128 + events_.size() * 96);
    out += "{\n\"traceEvents\": [\n";

    // Track-name metadata first: one process, one named thread per track.
    std::set<uint32_t> tracks;
    for (const TraceEvent &event : events_)
        tracks.insert(event.track);
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": 0, \"args\": {\"name\": \"spmrt\"}}";
    for (uint32_t track : tracks) {
        std::string label =
            track >= kTraceFaultTrack
                ? std::string("faults")
                : log::format("core %u", track);
        out += log::format(",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
                           "\"pid\": 0, \"tid\": %u, "
                           "\"args\": {\"name\": \"%s\"}}",
                           track, label.c_str());
    }

    for (const TraceEvent &event : events_) {
        out += log::format(
            ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\", "
            "\"ts\": %llu, \"pid\": 0, \"tid\": %u",
            event.name, traceCategoryName(event.category), event.phase,
            static_cast<unsigned long long>(event.ts), event.track);
        if (event.phase == 'X')
            out += log::format(", \"dur\": %llu",
                               static_cast<unsigned long long>(event.dur));
        if (event.phase == 'i')
            out += ", \"s\": \"t\"";
        if (event.argName != nullptr) {
            out += log::format(", \"args\": {\"%s\": %llu", event.argName,
                               static_cast<unsigned long long>(event.arg));
            if (event.argName2 != nullptr)
                out += log::format(
                    ", \"%s\": %llu", event.argName2,
                    static_cast<unsigned long long>(event.arg2));
            out += "}";
        }
        out += "}";
    }

    out += log::format(
        "\n],\n\"otherData\": {\"schema\": \"spmrt-trace-v1\", "
        "\"time_unit\": \"cycles\", \"events\": %zu, \"dropped\": %llu}\n}\n",
        events_.size(), static_cast<unsigned long long>(dropped_));
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    return log::writeText(path, chromeJson(), "trace");
}

} // namespace obs
} // namespace spmrt
