/**
 * @file
 * spmrt_perfbench: runs one benchmark workload for a fixed host time,
 * verifies every simulation, and reports end-to-end metrics (untraced
 * run) or per-layer metrics (traced run) as a table on stdout and as a
 * JSON results file. perfbench/run.py builds and drives it; README.md
 * documents the workloads and metrics.
 *
 * usage: spmrt_perfbench --workload <spawn-tree|graph-mem|fleet-sweep>
 *            --seed <n> --seconds <n> --trace <0|1> --out <path> [--quick]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/log.hpp"
#include "obs/trace.hpp"
#include "sim/checker.hpp"

namespace perfbench {

namespace log = spmrt::log;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    bool quick = false;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "spmrt_perfbench: %s\nusage: spmrt_perfbench --workload "
                 "<spawn-tree|graph-mem|fleet-sweep> --seed <n> --seconds "
                 "<n> --trace <0|1> --out <path> [--quick]\n",
                 why);
    std::exit(2);
}

uint64_t
parseNumber(const char *flag, const char *text, uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long value = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-' ||
        value > max)
        usage(log::format("bad value '%s' for %s", text, flag).c_str());
    return value;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--quick") {
            opt.quick = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = parseNumber("--seed", value, UINT64_MAX);
            have_seed = true;
        } else if (flag == "--seconds") {
            opt.seconds =
                static_cast<int>(parseNumber("--seconds", value, 3600));
            have_seconds = opt.seconds >= 1;
        } else if (flag == "--trace") {
            opt.trace = parseNumber("--trace", value, 1) == 1;
            have_trace = true;
        } else if (flag == "--out") {
            opt.out = value;
        } else {
            usage(("unknown option " + flag).c_str());
        }
    }
    if (opt.workload.empty() || !have_seed || !have_seconds ||
        !have_trace || opt.out.empty())
        usage("--workload, --seed, --seconds (>= 1), --trace and --out "
              "are required");
    return opt;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    return cpus;
}

/**
 * Move the calling thread onto cpus[slot % cpus.size()]. On a shared VM
 * co-tenant load differs from one vCPU to the next and lasts tens of
 * seconds; rotating the single simulation thread over every allowed CPU
 * makes each round sample all of them instead of whichever one the
 * scheduler happened to keep it on.
 */
void
pinTo(const std::vector<int> &cpus, size_t slot)
{
    if (cpus.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[slot % cpus.size()], &set);
    sched_setaffinity(0, sizeof(set), &set); // best effort
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char ch : text) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += log::format("\\u%04x", ch);
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    return std::isfinite(value) ? log::format("%.17g", value) : "null";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Everything one invocation measured. */
struct Run
{
    std::vector<Round> rounds;
    std::map<size_t, SimRecord> first; ///< first verified run per cell
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
};

/** The determinism and correctness gate for one simulation. */
void
gate(Run &run, const SimRecord &sim, const std::string &name)
{
    ++run.attempted;
    if (!sim.verified) {
        ++run.failed;
        run.failures.push_back(name +
                               ": output does not match its host reference");
        return;
    }
    auto [it, inserted] = run.first.emplace(sim.cell, sim);
    if (!inserted && !sim.sameSimulation(it->second)) {
        ++run.failed;
        run.failures.push_back(log::format(
            "%s: nondeterministic (digest %016" PRIx64 " vs %016" PRIx64
            ", cycles %" PRIu64 " vs %" PRIu64 ")",
            name.c_str(), sim.digest, it->second.digest, sim.cycles,
            it->second.cycles));
    }
}

std::vector<Metric>
endToEnd(const Run &run, double peak_rss_mb)
{
    // Every figure is taken per round and reported as the median round,
    // so a transient host slowdown moves one round, not the result.
    std::vector<double> p50s, p90s, setups, sim_rates, op_rates;
    for (const Round &round : run.rounds) {
        if (round.traced)
            continue;
        std::vector<double> walls;
        double verified = 0, run_ms = 0, instructions = 0;
        for (const SimRecord &sim : round.sims) {
            walls.push_back(sim.wallMs());
            verified += sim.verified ? 1 : 0;
            run_ms += sim.phaseMs[kRun];
            instructions += static_cast<double>(sim.counters.instructions);
        }
        p50s.push_back(quantile(walls, 0.5));
        p90s.push_back(quantile(walls, 0.9));
        setups.push_back(round.setupMs / 1000.0);
        sim_rates.push_back(ratio(verified, round.simSeconds));
        op_rates.push_back(ratio(instructions, run_ms / 1000.0));
    }
    double cycles = 0;
    for (const auto &[cell, sim] : run.first)
        cycles += static_cast<double>(sim.cycles);
    return {
        {"sims_per_s", quantile(sim_rates, 0.5), "1/s"},
        {"sim_wall_ms.p50", quantile(p50s, 0.5), "ms"},
        {"sim_wall_ms.p90", quantile(p90s, 0.5), "ms"},
        {"sim_ops_per_s", quantile(op_rates, 0.5), "1/s"},
        {"setup_s", quantile(setups, 0.5), "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"sim_cycles", cycles, "cycles"},
        {"fail_ratio",
         ratio(static_cast<double>(run.failed),
               static_cast<double>(run.attempted)),
         "ratio"},
    };
}

std::vector<Metric>
perLayer(const Run &run, const std::vector<Cell> &cells,
         const Probes &probes)
{
    std::vector<double> phase[kNumPhases];
    std::vector<double> self, job_wall;
    std::map<std::string, std::vector<double>> gen; ///< by span name
    Counters sum;
    double sims = 0, run_ms = 0, traced_wall = 0, untraced_wall = 0;
    double traced_rounds = 0, busy_ms = 0, capacity_ms = 0;
    double attempts = 0, retries = 0, builds = 0, hits = 0;
    for (size_t r = 0; r < run.rounds.size(); ++r) {
        const Round &round = run.rounds[r];
        // Round 0 warms the process up; it stays out of the overhead
        // ratio.
        if (r > 0)
            (round.traced ? traced_wall : untraced_wall) += round.wallMs;
        if (!round.traced)
            continue;
        ++traced_rounds;
        busy_ms += round.jobWallMsSum;
        capacity_ms += round.workers * round.simSeconds * 1000.0;
        attempts += static_cast<double>(round.attempts);
        retries += static_cast<double>(round.retries);
        builds += static_cast<double>(round.assetBuilds);
        hits += static_cast<double>(round.assetHits);
        for (const SimRecord &sim : round.sims) {
            for (int p = 0; p < kNumPhases; ++p)
                phase[p].push_back(sim.phaseMs[p]);
            self.push_back(sim.selfMs);
            if (cells.empty())
                job_wall.push_back(sim.wallMs());
            else
                gen[cells[sim.cell].genSpan].push_back(sim.phaseMs[kGen]);
            sum += sim.counters;
            run_ms += sim.phaseMs[kRun];
            ++sims;
        }
    }
    auto mean = [sims](uint64_t total) {
        return ratio(static_cast<double>(total), sims);
    };
    const double events = static_cast<double>(sum.switches + sum.syncPoints);
    const double modeled_ns =
        static_cast<double>(sum.switches) * probes.switchNs +
        static_cast<double>(sum.localSpmOps + sum.amos) * probes.localLoadNs +
        static_cast<double>(sum.remoteSpmOps) * probes.remoteLoadNs +
        static_cast<double>(sum.dramLoads + sum.dramStores) *
            probes.dramLoadNs;
    const double traced_mean = ratio(traced_wall, traced_rounds);
    const double untraced_mean =
        ratio(untraced_wall, static_cast<double>(run.rounds.size()) -
                                 traced_rounds - 1);
    return {
        {"sim.machine_build_ms", quantile(phase[kBuild], 0.5), "ms"},
        {"sim.machine_teardown_ms", quantile(phase[kTeardown], 0.5), "ms"},
        {"sim.engine.build_ms", probes.engineBuildMs, "ms"},
        {"sim.self_ms", quantile(self, 0.5), "ms"},
        {"mem.build_ms", probes.memBuildMs, "ms"},
        {"graph.gen_ms", quantile(gen["graph.gen"], 0.5), "ms"},
        {"matrix.gen_ms", quantile(gen["matrix.gen"], 0.5), "ms"},
        {"workloads.setup_ms", quantile(phase[kSetup], 0.5), "ms"},
        {"workloads.verify_ms", quantile(phase[kVerify], 0.5), "ms"},
        {"runtime.ctor_ms", quantile(phase[kCtor], 0.5), "ms"},
        {"runtime.run_ms", quantile(phase[kRun], 0.5), "ms"},
        {"sim.engine.switches", mean(sum.switches), "count"},
        {"sim.engine.sync_points", mean(sum.syncPoints), "count"},
        {"sim.engine.ns_per_event", ratio(run_ms * 1e6, events), "ns"},
        {"sim.core.instructions", mean(sum.instructions), "count"},
        {"mem.local_spm_ops", mean(sum.localSpmOps), "count"},
        {"mem.remote_spm_ops", mean(sum.remoteSpmOps), "count"},
        {"mem.dram_loads", mean(sum.dramLoads), "count"},
        {"mem.dram_stores", mean(sum.dramStores), "count"},
        {"mem.amos", mean(sum.amos), "count"},
        {"mem.noc.packets", mean(sum.nocPackets), "count"},
        {"mem.noc.link_cycles", mean(sum.nocLinkCycles), "count"},
        {"mem.noc.walked_traversals", mean(sum.nocWalked), "count"},
        {"mem.llc.hits", mean(sum.llcHits), "count"},
        {"mem.llc.misses", mean(sum.llcMisses), "count"},
        {"mem.llc.hit_ratio",
         ratio(static_cast<double>(sum.llcHits),
               static_cast<double>(sum.llcHits + sum.llcMisses)),
         "ratio"},
        {"mem.llc.writebacks", mean(sum.llcWritebacks), "count"},
        {"mem.dram.transfers", mean(sum.dramTransfers), "count"},
        {"mem.dram.bytes", mean(sum.dramBytes), "bytes"},
        {"runtime.tasks_spawned", mean(sum.tasksSpawned), "count"},
        {"runtime.steal_attempts", mean(sum.stealAttempts), "count"},
        {"runtime.steal_hits", mean(sum.stealHits), "count"},
        {"runtime.steal_hit_ratio",
         ratio(static_cast<double>(sum.stealHits),
               static_cast<double>(sum.stealAttempts)),
         "ratio"},
        {"runtime.spawns_inlined", mean(sum.spawnsInlined), "count"},
        {"runtime.stack_overflow_ratio",
         ratio(static_cast<double>(sum.framesOverflowed),
               static_cast<double>(sum.framesPushed)),
         "ratio"},
        {"serve.job_wall_ms", quantile(job_wall, 0.5), "ms"},
        {"serve.worker_busy_ratio", ratio(busy_ms, capacity_ms), "ratio"},
        {"serve.attempts", ratio(attempts, traced_rounds), "count"},
        {"serve.retries", ratio(retries, traced_rounds), "count"},
        {"serve.assets.builds", ratio(builds, traced_rounds), "count"},
        {"serve.assets.hits", ratio(hits, traced_rounds), "count"},
        {"sim.engine.switch_ns", probes.switchNs, "ns"},
        {"mem.local_load_ns", probes.localLoadNs, "ns"},
        {"mem.remote_load_ns", probes.remoteLoadNs, "ns"},
        {"mem.dram_load_ns", probes.dramLoadNs, "ns"},
        {"mem.noc.traverse_ns", probes.nocTraverseNs, "ns"},
        {"mem.build_ns_per_mb", probes.memBuildNsPerMb, "ns/MiB"},
        {"model.run_ms", ratio(modeled_ns / 1e6, sims), "ms"},
        {"model.residual_ratio", 1.0 - ratio(modeled_ns / 1e6, run_ms),
         "ratio"},
        {"obs.span_overhead_ratio", ratio(traced_mean, untraced_mean),
         "ratio"},
    };
}

/** Median self time per span name. */
std::map<std::string, double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self = spanSelfTimes(spans);
    std::map<std::string, std::vector<double>> by_name;
    for (size_t i = 0; i < spans.size(); ++i)
        by_name[spans[i].name].push_back(self[i]);
    std::map<std::string, double> medians;
    for (auto &[name, values] : by_name)
        medians[name] = quantile(values, 0.5);
    return medians;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parse(argc, argv);
    const bool fleet = opt.workload == "fleet-sweep";
    std::vector<Cell> cells;
    std::unique_ptr<FleetSweep> sweep;
    if (fleet)
        sweep = std::make_unique<FleetSweep>(opt.seed, opt.quick);
    else
        cells = makeCells(opt.workload, opt.seed, opt.quick);
    if (!fleet && cells.empty())
        usage(("unknown workload " + opt.workload).c_str());
    const size_t num_sims = fleet ? sweep->numJobs() : cells.size();
    auto sim_name = [&](size_t i) {
        return fleet ? sweep->jobName(i) : cells[i].name;
    };

    SpanLog spans(Clock::now());
    Probes probes;
    if (opt.trace)
        probes = runProbes(fleet ? sweep->machine() : cells[0].machine,
                           opt.quick);

    // One round is one pass over the workload's simulations. The traced
    // run alternates untraced and traced rounds (at least three, so the
    // warm-up round 0 can be left out of the overhead ratio), so the span
    // overhead and the bit-identity of traced and untraced simulations
    // are measured in one process.
    Run run;
    const std::vector<int> cpus = allowedCpus();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(opt.seconds);
    do {
        const bool traced = opt.trace && run.rounds.size() % 2 == 1;
        SpanLog *log = traced ? &spans : nullptr;
        Round round;
        if (fleet) {
            round = sweep->runBatch(log);
        } else {
            round.traced = traced;
            Clock::time_point start = Clock::now();
            for (size_t i = 0; i < cells.size(); ++i) {
                // Each cell visits every CPU over successive rounds.
                pinTo(cpus, run.rounds.size() + i);
                SimRecord sim = runCell(cells[i], i, log);
                round.simSeconds += sim.wallMs() / 1000.0;
                round.setupMs += sim.setupMs();
                round.sims.push_back(sim);
            }
            round.wallMs = msBetween(start, Clock::now());
        }
        run.attempted += num_sims - round.sims.size();
        run.failed += round.failures.size();
        run.failures.insert(run.failures.end(), round.failures.begin(),
                            round.failures.end());
        for (const SimRecord &sim : round.sims)
            gate(run, sim, sim_name(sim.cell));
        run.rounds.push_back(std::move(round));
    } while (Clock::now() < deadline || (opt.trace && run.rounds.size() < 3));

    // Re-run one simulation and require it to be bit-identical: for
    // fleet-sweep a data-seeded job outside the server, otherwise the
    // first cell.
    const size_t rerun_index = fleet ? 1 : 0;
    const bool have_first = run.first.count(rerun_index) != 0;
    SimRecord again =
        runCell(fleet ? sweep->cell(rerun_index) : cells[rerun_index],
                rerun_index, nullptr);
    gate(run, again, sim_name(rerun_index) + " (re-run)");
    if (!have_first) {
        ++run.failed;
        run.failures.push_back(sim_name(rerun_index) +
                               ": no verified run to compare the re-run with");
    }

    struct rusage usage_now;
    getrusage(RUSAGE_SELF, &usage_now);
    const double peak_rss_mb = usage_now.ru_maxrss / 1024.0;

    std::vector<Metric> metrics = opt.trace
                                      ? perLayer(run, cells, probes)
                                      : endToEnd(run, peak_rss_mb);

    // ---- console table ---------------------------------------------
    std::printf("# spmrt perfbench: workload=%s seed=%" PRIu64
                " seconds=%d trace=%d rounds=%zu sims=%" PRIu64
                " failed=%" PRIu64 "\n",
                opt.workload.c_str(), opt.seed, opt.seconds,
                opt.trace ? 1 : 0, run.rounds.size(), run.attempted,
                run.failed);
    for (const std::string &failure : run.failures)
        std::printf("# FAIL %s\n", failure.c_str());
    for (const Metric &m : metrics)
        std::printf("%-30s %20.6f %s\n", m.name.c_str(), m.value, m.unit);
    std::map<std::string, double> self;
    if (opt.trace) {
        self = selfTimes(spans.spans());
        std::printf("# span self time (median ms)\n");
        for (const auto &[name, ms] : self)
            std::printf("%-30s %20.6f ms\n", ("self." + name).c_str(), ms);
    }

    // ---- results file ------------------------------------------------
    std::string json = "{\n  \"schema\": \"spmrt-perfbench-v1\",\n";
    json += log::format(
        "  \"workload\": %s,\n  \"seed\": %" PRIu64
        ",\n  \"seconds\": %d,\n  \"trace\": %d,\n  \"quick\": %s,\n",
        jsonString(opt.workload).c_str(), opt.seed, opt.seconds,
        opt.trace ? 1 : 0, opt.quick ? "true" : "false");
    json += log::format(
        "  \"provenance\": {\"host_cores\": %u, \"compiler\": %s, "
        "\"build_type\": %s, \"spmrt_checker\": %d, "
        "\"spmrt_telemetry\": %d},\n",
        std::thread::hardware_concurrency(), jsonString(__VERSION__).c_str(),
        jsonString(SPMRT_PERFBENCH_BUILD_TYPE).c_str(),
        SPMRT_CHECKER_ENABLED, SPMRT_TELEMETRY_ENABLED);
    json += "  \"cells\": [";
    for (size_t i = 0; i < num_sims; ++i) {
        auto it = run.first.find(i);
        json += log::format(
            "%s\n    {\"name\": %s, \"inputs\": %s", i == 0 ? "" : ",",
            jsonString(sim_name(i)).c_str(),
            (fleet ? sweep->inputsJson(i) : cells[i].inputsJson).c_str());
        if (it != run.first.end())
            json += log::format(
                ", \"digest\": \"%016" PRIx64 "\", \"sim_cycles\": %" PRIu64
                ", \"switches\": %" PRIu64 ", \"sync_points\": %" PRIu64,
                it->second.digest, it->second.cycles,
                it->second.counters.switches, it->second.counters.syncPoints);
        json += "}";
    }
    json += "\n  ],\n  \"rounds\": [";
    for (size_t r = 0; r < run.rounds.size(); ++r) {
        double run_ms = 0, instructions = 0;
        for (const SimRecord &sim : run.rounds[r].sims) {
            run_ms += sim.phaseMs[kRun];
            instructions += static_cast<double>(sim.counters.instructions);
        }
        json += log::format("%s\n    {\"traced\": %s, \"wall_ms\": %s, "
                            "\"setup_ms\": %s, \"run_ms\": %s, "
                            "\"sim_ops\": %s}",
                            r == 0 ? "" : ",",
                            run.rounds[r].traced ? "true" : "false",
                            jsonNumber(run.rounds[r].wallMs).c_str(),
                            jsonNumber(run.rounds[r].setupMs).c_str(),
                            jsonNumber(run_ms).c_str(),
                            jsonNumber(instructions).c_str());
    }
    json += log::format("\n  ],\n  \"attempted\": %" PRIu64
                        ",\n  \"failed\": %" PRIu64 ",\n  \"failures\": [",
                        run.attempted, run.failed);
    for (size_t i = 0; i < run.failures.size(); ++i)
        json += (i == 0 ? "" : ", ") + jsonString(run.failures[i]);
    json += "],\n  \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        json += log::format("%s\n    %s: {\"value\": %s, \"unit\": %s}",
                            i == 0 ? "" : ",",
                            jsonString(metrics[i].name).c_str(),
                            jsonNumber(metrics[i].value).c_str(),
                            jsonString(metrics[i].unit).c_str());
    json += "\n  }";
    if (opt.trace) {
        json += ",\n  \"self_ms\": {";
        bool first = true;
        for (const auto &[name, ms] : self) {
            json += log::format("%s\n    %s: %s", first ? "" : ",",
                                jsonString(name).c_str(),
                                jsonNumber(ms).c_str());
            first = false;
        }
        json += "\n  },\n  \"spans\": [";
        const std::vector<Span> &all = spans.spans();
        for (size_t i = 0; i < all.size(); ++i)
            json += log::format(
                "%s\n    {\"name\": %s, \"id\": %" PRIu64
                ", \"parent\": %" PRIu64 ", \"trace\": %" PRIu64
                ", \"start_ms\": %.6f, \"end_ms\": %.6f}",
                i == 0 ? "" : ",", jsonString(all[i].name).c_str(),
                all[i].id, all[i].parent, all[i].trace, all[i].startMs,
                all[i].endMs);
        json += "\n  ]";
    }
    json += "\n}\n";
    FILE *file = std::fopen(opt.out.c_str(), "w");
    if (file == nullptr || std::fputs(json.c_str(), file) < 0 ||
        std::fclose(file) != 0) {
        std::fprintf(stderr, "spmrt_perfbench: cannot write %s\n",
                     opt.out.c_str());
        return 1;
    }
    return run.failed == 0 ? 0 : 1;
}
