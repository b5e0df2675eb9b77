#!/usr/bin/env python3
"""Build and run the spmrt benchmark for one workload.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <n>
                                --trace <0|1> [--quick]

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles ../src) in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs reuse the build while
the sources are unchanged. The harness's metric table goes to stdout, the
full results (provenance, per-cell inputs and digests, spans) to
<build dir>/results/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
of BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
The exit code is nonzero when any simulation failed or was not
bit-identical on re-run.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The harness itself stops after --seconds plus one round; this bounds a
# hung simulation well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over every file the build reads: src/ and perfbench/."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_describe():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout; see source_sha256)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(build_dir, digest):
    binary = build_dir / "spmrt_perfbench"
    stamp = build_dir / "source.sha256"
    if binary.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return binary
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd), 1)
    stamp.write_text(digest)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken inputs (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("spmrt sources (src/) not found next to perfbench/")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    digest = source_digest()
    binary = build(build_dir, digest)

    results_dir = build_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    suffix = "-quick" if args.quick else ""
    out = results_dir / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}{suffix}.json")
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out", str(out)]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"harness did not finish within {HARNESS_TIMEOUT_S} s", 1)
    sys.stdout.write(proc.stdout)
    if not out.is_file():
        die(f"harness exited with {proc.returncode} and wrote no results", 1)

    results = json.loads(out.read_text())
    results["provenance"]["git_describe"] = git_describe()
    results["provenance"]["source_sha256"] = digest
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"# results: {out}", file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    problems = []
    for metric in wanted:
        got = results["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} missing or not in "
                            f"{metric['unit']}")
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append(f"metric {metric['name']} is not a number")
        else:
            metrics[metric["name"]] = {"value": got["value"],
                                       "unit": metric["unit"]}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = (proc.returncode == 0 and results["failed"] == 0 and
               results["attempted"] >= 1 and not problems)
    print(json.dumps({"correct": correct,
                      "attempted": results["attempted"],
                      "failed": results["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
