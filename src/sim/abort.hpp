/**
 * @file
 * Catchable simulation aborts.
 *
 * The engine's one interrupt is the hang watchdog on simulated cycles.
 * Unsupervised, a hang has one response: dump state and abort() the
 * process. That is the right behaviour for a standalone run — a hang is
 * a bug and the dump is the diagnosis — but a batch supervisor needs to
 * report the failure, quarantine the job, and keep the rest of the fleet
 * alive.
 *
 * SimAbort is that report: a typed exception carrying a one-line
 * summary and the full structured runtime dump the panic path would
 * have printed. The engine only *throws* it when a supervisor has opted
 * in via Engine::supervise(true); otherwise the hang keeps the
 * historical print-and-panic behaviour, so unsupervised tools and death
 * tests are unchanged.
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
 * Thrown by Engine::run() (on the host stack) when a supervised run
 * hangs. what() is the one-line summary; dump() carries the same
 * per-core engine table + runtime dump the panic path prints.
 */
class SimAbort : public std::exception
{
  public:
    SimAbort(std::string summary, std::string dump)
        : summary_(std::move(summary)), dump_(std::move(dump))
    {
    }

    const char *what() const noexcept override { return summary_.c_str(); }

    /** One-line summary (same text as what()). */
    const std::string &summary() const { return summary_; }
    /** Structured engine + runtime state dump at the abort point. */
    const std::string &dump() const { return dump_; }

  private:
    std::string summary_;
    std::string dump_;
};

} // namespace spmrt

#endif // SPMRT_SIM_ABORT_HPP
