#!/usr/bin/env python3
"""Quick-size self-test of the spmrt benchmark.

usage: python3 perfbench/selftest.py

Runs every workload of the harness through run.py with --quick inputs
and one-second runs, untraced and traced, and checks that:
  - each run is correct and its last stdout line is the result object;
  - the results file parses and carries provenance and per-cell inputs;
  - every end-to-end metric the benchmark defines (including fail_ratio,
    which BENCHMARK.json leaves to the attempted/failed counts) is
    printed with its unit, and every per-layer metric of BENCHMARK.json
    appears in the traced run with its unit;
  - the traced run records spans and self times, and its cells simulate
    bit-identically to the untraced run's.
Exits nonzero on the first failed check.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every workload the harness runs; BENCHMARK.json registers a subset.
WORKLOADS = ("spawn-tree", "graph-mem", "fleet-sweep")

END_TO_END = {
    "sims_per_s": "1/s", "sim_wall_ms.p50": "ms", "sim_wall_ms.p90": "ms",
    "sim_ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB",
    "sim_cycles": "cycles", "fail_ratio": "ratio",
}


def check(ok, message):
    if not ok:
        print(f"selftest: FAIL {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0 and lines,
          f"{workload} trace={trace} exited {proc.returncode}:\n"
          f"{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    check(result["correct"] and result["failed"] == 0,
          f"{workload} trace={trace} not correct: {result}")
    for name, unit in END_TO_END.items() if trace == 0 else ():
        check(any(line.split()[0] == name and line.split()[-1] == unit
                  for line in lines[:-1] if line.strip()),
              f"{workload}: {name} not printed in {unit}")
    path = next(Path(line.split(": ", 1)[1])
                for line in proc.stderr.splitlines()
                if line.startswith("# results: "))
    return result, json.loads(path.read_text())


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
          "BENCHMARK.json names a workload the harness does not run")
    for workload in WORKLOADS:
        plain, plain_file = run(workload, 0)
        for name, unit in END_TO_END.items():
            metric = plain_file["metrics"].get(name)
            check(metric is not None and metric["unit"] == unit,
                  f"{workload}: results file lacks {name} in {unit}")
        for metric in spec["end_to_end"]:
            check(metric["name"] in plain["metrics"],
                  f"{workload}: result line lacks {metric['name']}")
        provenance = plain_file["provenance"]
        for key in ("host_cores", "compiler", "build_type", "spmrt_checker",
                    "spmrt_telemetry", "git_describe", "source_sha256"):
            check(key in provenance, f"{workload}: provenance lacks {key}")
        check(all("inputs" in cell and "digest" in cell
                  for cell in plain_file["cells"]),
              f"{workload}: a cell lacks its inputs or digest")

        traced, traced_file = run(workload, 1)
        for metric in spec["per_layer"]:
            got = traced["metrics"].get(metric["name"])
            check(got is not None and got["unit"] == metric["unit"],
                  f"{workload}: traced run lacks {metric['name']}")
        check(traced_file["spans"] and traced_file["self_ms"].get("sim")
              is not None, f"{workload}: traced run recorded no sim spans")
        for a, b in zip(plain_file["cells"], traced_file["cells"]):
            check((a["digest"], a["sim_cycles"], a["switches"],
                   a["sync_points"]) ==
                  (b["digest"], b["sim_cycles"], b["switches"],
                   b["sync_points"]),
                  f"{workload}: {a['name']} differs between untraced and "
                  f"traced runs")
        print(f"selftest: {workload} ok")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
