/**
 * @file
 * Catchable simulation aborts.
 *
 * The engine's one interrupt is the hang watchdog on simulated cycles.
 * Its expiry unwinds Engine::run() as a SimAbort, as setup errors
 * unwind as std::runtime_error: a batch server catches it, reports the
 * failure and keeps the rest of the fleet alive, and in a standalone
 * tool that catches nothing the uncaught exception ends the process
 * with what(), which carries the summary and the full structured
 * runtime dump, so the diagnosis is still printed.
 *
 * A SimAbort unwinds on the host scheduler stack, never across a guest
 * coroutine: the interrupted guest context is left suspended and the
 * engine switches to the scheduler context before throwing. The aborted
 * Machine is dead — guest stacks still hold live frames — so the only
 * valid next steps are tearing it down or reading untimed state for the
 * report.
 */

#ifndef SPMRT_SIM_ABORT_HPP
#define SPMRT_SIM_ABORT_HPP

#include <exception>
#include <string>
#include <utility>

namespace spmrt {

/**
 * Thrown by Engine::run() (on the host stack) when a run hangs.
 * summary() is one line; dump() is the per-core engine table plus the
 * runtime dump; what() is the summary, a newline, then the dump.
 */
class SimAbort : public std::exception
{
  public:
    SimAbort(std::string summary, std::string dump)
        : summary_(std::move(summary)), dump_(std::move(dump)),
          what_(summary_ + "\n" + dump_)
    {
    }

    const char *what() const noexcept override { return what_.c_str(); }

    /** One-line summary. */
    const std::string &summary() const { return summary_; }
    /** Structured engine + runtime state dump at the abort point. */
    const std::string &dump() const { return dump_; }

  private:
    std::string summary_;
    std::string dump_;
    std::string what_;
};

} // namespace spmrt

#endif // SPMRT_SIM_ABORT_HPP
