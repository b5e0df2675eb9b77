#!/usr/bin/env python3
"""Gate host-perf regressions against the committed baseline + trajectory.

Compares a fresh host_perf measurement (the spmrt-bench-v1 report that
``host_perf --out=<path>`` writes; a spmrt-host-perf-v1 row set is read
too) against bench/baseline_host_perf.json row by row (matched on
workload + cores + machine geometry; reference rows written before the
``geometry`` field existed fall back to workload + cores alone), and
optionally against
the *latest point* of the committed perf
trajectory (repo-root BENCH_host_perf.json, schema
spmrt-host-perf-trajectory-v1). The gated quantity is the
fast-vs-reference *speedup ratio*, not absolute wall-clock: both
schedulers run on the same machine in the same process, so their ratio
is stable across CI runners while raw milliseconds are not. A row fails
if its measured speedup falls below ``tolerance * reference_speedup``
(default tolerance 0.75, i.e. a >25% regression), or if the bench
itself flagged the row as non-equivalent.

The trajectory file records one point per perf-relevant PR, oldest
first; each point is a full spmrt-host-perf-v1 row set plus a label.
``--append <label>`` adds the measured rows as a new trajectory point
(after the gates pass), creating the file when it does not exist — CI's
bench-smoke uses this to publish the would-be next point as an
artifact, and perf PRs use it to commit the point they land.

Rows may carry a ``series`` tag; rows tagged ``"throughput"`` (the fleet
batch-simulation series, whose ``speedup`` is multi-worker/serial
sims-per-sec scaling and varies with host core count) are gated with the
separate, laxer ``--throughput-tolerance``, and only against a reference
row recorded at the same ``host_cores``: when the two differ, or either
is missing, the speedup floor is skipped with a printed notice. Their
``equivalent`` flag — the byte-identity contract — remains gated
strictly regardless of tolerance or host. Reference rows of any other
series (the retired host-parallel engine's ``"parallel"`` legs in old
trajectory points) are skipped: the bench no longer measures them.
``--require-series NAME`` (repeatable) fails when the measured file
carries no row of that series — CI uses it to ensure the fleet bench
does not silently drop out of the measurement.

Simulated counts are the reproduction itself, so against the latest
trajectory point (never the baseline, whose counts predate the
commit-delta memory model) every row without a series tag must match
the reference row's ``switches``, ``syncpoints`` and ``sim_cycles``
exactly. The gate applies only when the point's ``quick`` flag matches
the measurement's; otherwise it is skipped with a printed notice. A PR
that moves cycles on purpose appends its point in the same PR.

Usage:
    check_host_perf.py <measured.json> <baseline.json>
        [--trajectory BENCH_host_perf.json] [--append <label>]
        [--tolerance 0.75] [--throughput-tolerance 0.5]
        [--require-series NAME]
"""

import argparse
import json
import os
import sys

TRAJECTORY_SCHEMA = "spmrt-host-perf-trajectory-v1"
POINT_SCHEMA = "spmrt-host-perf-v1"
REPORT_SCHEMA = "spmrt-bench-v1"
GATED_SERIES = (None, "throughput")
COUNT_FIELDS = ("switches", "syncpoints", "sim_cycles")


def row_key(r):
    """Identity of one measurement row. The machine geometry string is
    part of it: the same workload at the same simulated core count on a
    different machine shape is a different measurement. Rows written
    before the geometry field existed key under geometry=None."""
    return (r["workload"], r["cores"], r.get("geometry"))


def key_rows(rows):
    return {row_key(r): r for r in rows}


def find_row(measured, key):
    """Look up a measured row for a reference key. A legacy reference
    row (no geometry) matches any measured geometry for its workload and
    core count, so old baselines keep gating new measurements."""
    row = measured.get(key)
    if row is not None:
        return row
    if key[2] is None:
        for k, r in measured.items():
            if k[0] == key[0] and k[1] == key[1]:
                return r
    return None


def load_json(path, what):
    """Load a JSON document with actionable errors, never a traceback."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"{path}: {what} file not found — run the host_perf "
                 "bench first (build/bench/host_perf --out=<path>) or "
                 "pass the right path")
    except IsADirectoryError:
        sys.exit(f"{path}: is a directory, expected a {what} JSON file")
    except json.JSONDecodeError as err:
        sys.exit(f"{path}: not valid JSON ({err}) — the {what} file is "
                 "truncated or was not written by the host_perf bench")


def check_measurement(doc, path):
    """Validate one measurement: the spmrt-bench-v1 report of bench
    host_perf, or a spmrt-host-perf-v1 row set (the committed baseline).
    Both carry the same row fields and a top-level ``quick`` flag."""
    schema = doc.get("schema")
    if schema == REPORT_SCHEMA:
        if doc.get("bench") != "host_perf":
            sys.exit(f"{path}: a {REPORT_SCHEMA} report of bench "
                     f"{doc.get('bench')!r}, expected 'host_perf'")
    elif schema != POINT_SCHEMA:
        sys.exit(f"{path}: unexpected schema {schema!r} (expected "
                 f"{REPORT_SCHEMA!r} from host_perf or {POINT_SCHEMA!r})")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        sys.exit(f"{path}: measurement has no rows — the bench produced "
                 "an empty result (check its own output for failures)")
    for row in rows:
        if "workload" not in row or "cores" not in row:
            sys.exit(f"{path}: row missing workload/cores: {row!r}")
        if "speedup" not in row:
            sys.exit(f"{path}: row {row['workload']}/{row['cores']} has "
                     "no 'speedup' field")
    return doc


def load_measurement(path):
    """Load a single measurement file (see check_measurement)."""
    return check_measurement(load_json(path, "measurement"), path)


def load_trajectory(path):
    """Load a trajectory document, validating schema and point shape."""
    doc = load_json(path, "trajectory")
    if doc.get("schema") != TRAJECTORY_SCHEMA:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r} "
                 f"(expected {TRAJECTORY_SCHEMA!r})")
    points = doc.get("points", [])
    if not points:
        sys.exit(f"{path}: trajectory has no points — either restore the "
                 "committed file or append a first point with --append")
    for point in points:
        if "label" not in point or "rows" not in point:
            sys.exit(f"{path}: trajectory point missing label/rows")
        if not point["rows"]:
            sys.exit(f"{path}: trajectory point {point['label']!r} has "
                     "no rows")
    return doc


def describe_row(key, base=None, row=None):
    """Human-readable identity of a failing row: which series and leg,
    not just the key tuple. ``workload/cores`` plus the series tag when
    present, e.g. ``fleet/4 (series=throughput)``."""
    name = f"{key[0]}/{key[1]}"
    tags = []
    source = base or row or {}
    series = source.get("series") or (row or {}).get("series")
    if series:
        tags.append(f"series={series}")
    if key[2]:
        tags.append(f"geometry={key[2]}")
    return name + (f" ({', '.join(tags)})" if tags else "")


def row_tolerance(base, tolerance, throughput_tolerance):
    if base.get("series") == "throughput":
        return throughput_tolerance
    return tolerance


def ratchets(base, row):
    """Whether a reference row's speedup floors the measured one.
    Throughput scaling tracks the host's core count, so those rows
    ratchet only between points recorded at the same ``host_cores``."""
    if base.get("series") != "throughput":
        return True
    cores = base.get("host_cores")
    return cores is not None and cores == row.get("host_cores")


def check(measured, reference, reference_name, tolerance,
          throughput_tolerance):
    """Gate measured rows against one reference row set."""
    failures = []
    print(f"vs {reference_name}:")
    print(f"  {'workload':<10} {'cores':>6} {'speedup':>9} {'expected':>9} "
          f"{'floor':>7}  status")
    for key, base in sorted(reference.items(),
                            key=lambda kv: (kv[0][0], kv[0][1],
                                            kv[0][2] or "")):
        if base.get("series") not in GATED_SERIES:
            continue
        row = find_row(measured, key)
        if row is None:
            failures.append(f"{describe_row(key, base)}: missing from "
                            "measured results — the leg did not run or "
                            "was filtered out")
            continue
        floor = row_tolerance(base, tolerance,
                              throughput_tolerance) * base["speedup"]
        gated = ratchets(base, row)
        speedup_ok = not gated or row["speedup"] >= floor
        ok = speedup_ok and row.get("equivalent", False)
        status = "FAIL" if not ok else "ok" if gated else "skip"
        print(f"  {key[0]:<10} {key[1]:>6} {row['speedup']:>8.2f}x "
              f"{base['speedup']:>8.2f}x {floor:>6.2f}x  {status}")
        if not gated:
            print(f"    notice: {describe_row(key, base, row)}: reference "
                  f"host_cores {base.get('host_cores')} vs measured "
                  f"{row.get('host_cores')}; speedup floor not applied")
        if not row.get("equivalent", False):
            failures.append(f"{describe_row(key, base, row)}: results "
                            "diverged (equivalent=false) — the leg's "
                            "byte-identity contract broke")
        elif not speedup_ok:
            failures.append(
                f"{describe_row(key, base, row)}: speedup "
                f"{row['speedup']:.2f}x below floor {floor:.2f}x "
                f"({reference_name} recorded {base['speedup']:.2f}x)")
    print()
    return failures


def check_counts(measured, measured_quick, point, point_name):
    """Gate the simulated counts of every untagged reference row of
    trajectory ``point``: they must equal the measured row's exactly.
    Missing rows are left to check(), which already reports them."""
    if point.get("quick", False) != measured_quick:
        print(f"notice: {point_name} was recorded with quick="
              f"{point.get('quick', False)}, the measurement with quick="
              f"{measured_quick}; simulated-count gate skipped")
        return []
    failures = []
    for key, base in key_rows(point["rows"]).items():
        row = find_row(measured, key)
        if base.get("series") is not None or row is None:
            continue
        for field in COUNT_FIELDS:
            if row.get(field) != base.get(field):
                failures.append(
                    f"{describe_row(key, base, row)}: {field} "
                    f"{row.get(field)} differs from {base.get(field)} "
                    f"recorded by {point_name} — simulated counts moved")
    return failures


def append_point(trajectory_path, measured_doc, label):
    """Append the measured rows to the trajectory (creating it if new)."""
    if os.path.exists(trajectory_path):
        doc = load_trajectory(trajectory_path)
    else:
        doc = {"schema": TRAJECTORY_SCHEMA, "points": []}
    doc["points"].append({
        "label": label,
        "quick": measured_doc.get("quick", False),
        "rows": measured_doc["rows"],
    })
    with open(trajectory_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"appended point {label!r} to {trajectory_path} "
          f"({len(doc['points'])} points)")


def self_test():
    """Unit-style checks of the gating logic itself (run from ctest).
    Synthetic rows, no files: every branch the CI gate depends on —
    keying, legacy-geometry fallback, per-series tolerances, the
    host_cores match for throughput rows, skipped retired series, and
    the failure messages naming the series and leg."""
    def expect(cond, what):
        if not cond:
            sys.exit(f"check_host_perf.py --self-test FAILED: {what}")

    # Row keying and the legacy-geometry fallback.
    new = {"workload": "fib", "cores": 128, "geometry": "16x8",
           "speedup": 2.0, "equivalent": True}
    expect(row_key(new) == ("fib", 128, "16x8"), "row_key with geometry")
    measured = key_rows([new])
    expect(find_row(measured, ("fib", 128, None)) is new,
           "legacy baseline row must match any measured geometry")
    expect(find_row(measured, ("fib", 64, None)) is None,
           "legacy fallback must still match workload and cores")

    # Per-series tolerances.
    expect(row_tolerance({}, 0.75, 0.5) == 0.75, "main tolerance")
    expect(row_tolerance({"series": "throughput"}, 0.75, 0.5) == 0.5,
           "throughput tolerance")

    # A failing row's message must name its series and leg.
    base = {"workload": "fleet", "cores": 4, "geometry": "4x4",
            "series": "throughput", "speedup": 3.0, "equivalent": True}
    bad = dict(base, speedup=0.1, equivalent=False)
    failures = check(key_rows([bad]), key_rows([base]), "baseline",
                     0.75, 0.5)
    expect(len(failures) == 1, "one divergent row, one failure")
    expect("fleet/4" in failures[0] and
           "series=throughput" in failures[0],
           f"failure must name series and leg, got: {failures[0]}")

    # A missing leg names the series it came from.
    failures = check({}, key_rows([base]), "baseline", 0.75, 0.5)
    expect(len(failures) == 1 and "series=throughput" in failures[0] and
           "missing" in failures[0],
           f"missing-leg failure must name the series: {failures}")

    # Throughput rows ratchet only at equal host_cores; the byte-identity
    # flag is gated on any host.
    fleet = dict(base, host_cores=4)
    slow = dict(fleet, speedup=1.0)
    failures = check(key_rows([slow]), key_rows([fleet]), "trajectory",
                     0.75, 0.5)
    expect(len(failures) == 1 and "below floor" in failures[0],
           f"equal host_cores must gate the speedup: {failures}")
    for cores in (1, None):
        other = dict(slow, host_cores=cores)
        expect(check(key_rows([other]), key_rows([fleet]), "trajectory",
                     0.75, 0.5) == [],
               f"host_cores 4 vs {cores} must skip the speedup floor")
        expect(check(key_rows([slow]), key_rows([dict(fleet,
                                                      host_cores=cores)]),
                     "trajectory", 0.75, 0.5) == [],
               f"reference host_cores {cores} vs 4 must skip the floor")
        diverged = dict(other, equivalent=False)
        failures = check(key_rows([diverged]), key_rows([fleet]),
                         "trajectory", 0.75, 0.5)
        expect(len(failures) == 1 and "diverged" in failures[0],
               f"a skipped floor must still gate equivalence: {failures}")
    legacy = {k: v for k, v in fleet.items() if k != "host_cores"}
    expect(not ratchets(legacy, slow),
           "a reference row without host_cores must not ratchet")
    expect(ratchets({"workload": "fib", "cores": 128}, {}),
           "scheduler rows ratchet regardless of host_cores")

    # Reference rows of a retired series gate nothing.
    retired = {"workload": "fib-par2", "cores": 128, "series": "parallel",
               "shards": 2, "speedup": 0.1, "equivalent": True}
    expect(check({}, key_rows([retired]), "trajectory", 0.75, 0.5) == [],
           "a retired series' reference rows must be skipped")

    # Simulated counts gate exactly against the trajectory point, and
    # only at the point's quick flag.
    counts = {"workload": "uts", "cores": 16, "geometry": "4x4",
              "speedup": 1.5, "equivalent": True, "switches": 3108,
              "syncpoints": 4400, "sim_cycles": 2672}
    point = {"label": "prev", "quick": True, "rows": [counts, fleet]}
    expect(check_counts(key_rows([counts]), True, point, "prev") == [],
           "equal counts must pass")
    failures = check_counts(key_rows([dict(counts, sim_cycles=2673)]),
                            True, point, "prev")
    expect(len(failures) == 1 and "sim_cycles" in failures[0] and
           "uts/16" in failures[0],
           f"one cycle off must fail naming sim_cycles: {failures}")
    expect(check_counts(key_rows([dict(counts, sim_cycles=2673)]), False,
                        point, "prev") == [],
           "a different quick flag must skip the count gate")

    # host_perf --out writes a spmrt-bench-v1 report: its rows and quick
    # flag are the measurement, gated like a spmrt-host-perf-v1 row set.
    report = {"schema": REPORT_SCHEMA, "bench": "host_perf", "quick": True,
              "rows": [counts, fleet]}
    expect(check_measurement(report, "report.json") is report,
           "a host_perf report must load as a measurement")
    expect(check_counts(key_rows(report["rows"]), report["quick"], point,
                        "prev") == [],
           "a host_perf report with equal counts must pass")

    def rejected(doc):
        try:
            check_measurement(doc, "doc.json")
        except SystemExit:
            return True
        return False
    expect(rejected(dict(report, bench="fig07_fib_variants")),
           "another bench's report must be rejected")
    expect(rejected(dict(report, schema="spmrt-fleet-report-v1")),
           "an unknown schema must be rejected")

    print("check_host_perf.py --self-test passed")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("measured")
    parser.add_argument("baseline")
    parser.add_argument("--trajectory",
                        help="perf-trajectory JSON; gate against its "
                             "latest point as well as the baseline")
    parser.add_argument("--append", metavar="LABEL",
                        help="after the gates pass, append the measured "
                             "rows to --trajectory under this label")
    parser.add_argument("--tolerance", type=float, default=0.75,
                        help="minimum fraction of the reference speedup "
                             "that must be retained (default 0.75)")
    parser.add_argument("--throughput-tolerance", type=float, default=0.5,
                        help="tolerance applied to rows tagged "
                             "series=throughput, whose scaling depends on "
                             "host core count (default 0.5)")
    parser.add_argument("--require-series", metavar="NAME",
                        action="append", default=[],
                        help="fail unless the measured file contains at "
                             "least one row with this series tag "
                             "(repeatable)")
    args = parser.parse_args()
    if args.append and not args.trajectory:
        parser.error("--append requires --trajectory")

    measured_doc = load_measurement(args.measured)
    measured = key_rows(measured_doc["rows"])
    baseline = key_rows(load_measurement(args.baseline)["rows"])

    failures = []
    for series in args.require_series:
        tagged = [r for r in measured_doc["rows"]
                  if r.get("series") == series]
        if not tagged:
            failures.append(
                f"{args.measured}: no row tagged series="
                f"{series!r} — the bench that produces that "
                "series did not run (was it filtered out?)")

    failures += check(measured, baseline, args.baseline, args.tolerance,
                      args.throughput_tolerance)
    if args.trajectory:
        if not os.path.exists(args.trajectory):
            print(f"{args.trajectory}: not found, skipping trajectory gate")
        else:
            trajectory = load_trajectory(args.trajectory)
            latest = trajectory["points"][-1]
            latest_name = f"{args.trajectory}[{latest['label']}]"
            failures += check(
                measured, key_rows(latest["rows"]), latest_name,
                args.tolerance, args.throughput_tolerance)
            failures += check_counts(measured,
                                     measured_doc.get("quick", False),
                                     latest, latest_name)

    if failures:
        print("host-perf regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("host-perf regression check passed")
    if args.append:
        append_point(args.trajectory, measured_doc, args.append)
    return 0


if __name__ == "__main__":
    sys.exit(main())
