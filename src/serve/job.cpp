#include "serve/job.hpp"

#include <stdexcept>

#include "common/log.hpp"
#include "runtime/static_runtime.hpp"
#include "runtime/ws_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

namespace spmrt {
namespace serve {

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Hang:
        return "hang";
      case JobStatus::CheckerViolation:
        return "checker_violation";
      case JobStatus::DigestMismatch:
        return "digest_mismatch";
      case JobStatus::SetupFailure:
        return "setup_failure";
    }
    return "unknown";
}

JobResult
runJob(const JobRequest &req, Machine &machine, AssetCache &assets)
{
    if (req.armChecker)
        machine.armChecker();
    if (req.scheduleSeed != 0)
        machine.engine().perturbSchedule(req.scheduleSeed,
                                         req.scheduleWindow);
    if (!req.prepare)
        throw std::runtime_error("job has no prepare() factory");
    PreparedJob prep = req.prepare(machine, assets);
    if (!prep.root && !prep.rawBody)
        throw std::runtime_error(
            "prepare() returned neither a root task nor a raw body");
    if (prep.root && prep.rawBody)
        throw std::runtime_error(
            "prepare() returned both a root task and a raw body");

    FaultPlan plan;
    if (req.faultSeed != 0) {
        plan = FaultPlan::chaos(req.faultSeed, machine.config(),
                                req.faultHorizon);
        machine.setFaultPlan(&plan);
    }
    JobResult result;
    try {
        if (prep.rawBody) {
            machine.run(prep.rawBody);
            result.cycles = machine.engine().maxTime();
        } else if (req.staticRuntime) {
            StaticRuntime rt(machine, req.runtime);
            result.cycles = rt.run(prep.root, prep.rootFrameBytes);
        } else {
            WorkStealingRuntime rt(machine, req.runtime);
            result.cycles = rt.run(prep.root, prep.rootFrameBytes);
        }
    } catch (...) {
        // The caller's machine outlives this frame and the plan does not.
        machine.setFaultPlan(nullptr);
        throw;
    }
    machine.setFaultPlan(nullptr);
    result.digest = prep.digest ? prep.digest(machine) : 0;
    return result;
}

std::string
JobReport::toJson() const
{
    return log::format(
        "{\"id\":%llu,\"name\":\"%s\",\"status\":\"%s\","
        "\"digest\":\"0x%016llx\",\"cycles\":%llu,"
        "\"wall_ms\":%.3f,\"error\":\"%s\",\"dump\":\"%s\"}",
        static_cast<unsigned long long>(id), log::jsonEscape(name).c_str(),
        jobStatusName(status), static_cast<unsigned long long>(digest),
        static_cast<unsigned long long>(cycles), wallMs,
        log::jsonEscape(error).c_str(), log::jsonEscape(dump).c_str());
}

} // namespace serve
} // namespace spmrt
