#!/usr/bin/env python3
"""Gate host-perf regressions against the committed perf trajectory.

Compares a fresh host_perf measurement (the spmrt-bench-v1 report that
``host_perf --out=<path>`` writes) against the committed perf trajectory
(repo-root BENCH_host_perf.json, schema spmrt-host-perf-trajectory-v1),
row by row, matched on workload + cores + machine geometry. The
trajectory records one point per perf-relevant PR, oldest first; each
point is a row set plus a label. The rules:

- Speedup floor. The gated quantity is the fast-vs-reference *speedup
  ratio*, not absolute wall-clock: both schedulers run on the same
  machine in the same process, so their ratio is stable across hosts
  while raw milliseconds are not. host_perf records each row's speedup
  as the median of five alternating fast/reference pairs. The reference
  is the median of the row's speedup over the last three trajectory
  points, so one lucky or unlucky recorded sample cannot set the floor.
  A row fails if its speedup falls below 0.75 x that median.
- Throughput rows. Rows tagged ``series: "throughput"`` (the fleet
  batch-simulation series, whose speedup is multi-worker/serial
  sims-per-sec scaling and tracks the host's core count) floor at
  0.5 x the median, taken only over the points recorded at the
  measurement's ``host_cores``; when there is none, the floor is skipped
  with a printed notice.
- Equivalence. A row the bench flagged ``equivalent: false`` fails on
  any host: the byte-identity contract is never a tolerance.
- Coverage. Every row of the latest point must be in the measurement; a
  leg that did not run (or was filtered out) fails.
- Simulated counts. They are the reproduction itself, so every row
  without a series tag must match the latest point's ``switches``,
  ``syncpoints`` and ``sim_cycles`` exactly. The gate applies only when
  the point's ``quick`` flag matches the measurement's; otherwise it is
  skipped with a printed notice. A PR that moves counts on purpose
  appends its point in the same PR.

``--append <label>`` adds the measured rows as a new trajectory point
after the gates pass. CI's bench-smoke uses it to publish the would-be
next point as an artifact, and perf PRs use it to commit the point they
land.

Usage:
    check_host_perf.py <measured.json> <trajectory.json> [--append <label>]
    check_host_perf.py --self-test
"""

import argparse
import json
import statistics
import sys

TRAJECTORY_SCHEMA = "spmrt-host-perf-trajectory-v1"
REPORT_SCHEMA = "spmrt-bench-v1"
COUNT_FIELDS = ("switches", "syncpoints", "sim_cycles")
TOLERANCE = 0.75             # floor as a fraction of the reference speedup
THROUGHPUT_TOLERANCE = 0.5   # the same for series=throughput rows
REFERENCE_POINTS = 3         # trajectory points the reference median spans


def row_key(r):
    """Identity of one measurement row. The machine geometry string is
    part of it: the same workload at the same simulated core count on a
    different machine shape is a different measurement."""
    return (r["workload"], r["cores"], r.get("geometry"))


def key_rows(rows):
    return {row_key(r): r for r in rows}


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
    """Validate the spmrt-bench-v1 report of bench host_perf: its rows
    and top-level ``quick`` flag are the measurement."""
    if doc.get("schema") != REPORT_SCHEMA:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r} "
                 f"(expected {REPORT_SCHEMA!r} from host_perf --out)")
    if doc.get("bench") != "host_perf":
        sys.exit(f"{path}: a {REPORT_SCHEMA} report of bench "
                 f"{doc.get('bench')!r}, expected 'host_perf'")
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


def load_trajectory(path):
    """Load a trajectory document, validating schema and point shape."""
    doc = load_json(path, "trajectory")
    if doc.get("schema") != TRAJECTORY_SCHEMA:
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r} "
                 f"(expected {TRAJECTORY_SCHEMA!r})")
    points = doc.get("points", [])
    if not points:
        sys.exit(f"{path}: trajectory has no points — restore the "
                 "committed file")
    for point in points:
        if "label" not in point or "rows" not in point:
            sys.exit(f"{path}: trajectory point missing label/rows")
        if not point["rows"]:
            sys.exit(f"{path}: trajectory point {point['label']!r} has "
                     "no rows")
    return doc


def reference_rows(points):
    """Every row key of the latest point, mapped to that key's rows in the
    last REFERENCE_POINTS points, oldest first."""
    window = [key_rows(point["rows"]) for point in points[-REFERENCE_POINTS:]]
    return {key: [rows[key] for rows in window if key in rows]
            for key in window[-1]}


def describe_row(key, base):
    """Human-readable identity of a failing row: which series and leg,
    not just the key tuple. ``workload/cores`` plus the reference row's
    series tag and geometry, e.g. ``fleet/4 (series=throughput, ...)``."""
    tags = [f"series={base['series']}"] if base.get("series") else []
    if key[2]:
        tags.append(f"geometry={key[2]}")
    return f"{key[0]}/{key[1]}" + (f" ({', '.join(tags)})" if tags else "")


def ratchets(base, row):
    """Whether reference row ``base`` may floor measured ``row``.
    Throughput scaling tracks the host's core count, so those rows
    ratchet only between measurements at the same ``host_cores``."""
    if base.get("series") != "throughput":
        return True
    cores = base.get("host_cores")
    return cores is not None and cores == row.get("host_cores")


def speedup_floor(refs, row):
    """(reference median, floor) for measured ``row`` from its reference
    rows ``refs``, or None when none of them may floor it."""
    usable = [r["speedup"] for r in refs if ratchets(r, row)]
    if not usable:
        return None
    median = statistics.median(usable)
    if refs[-1].get("series") == "throughput":
        return median, THROUGHPUT_TOLERANCE * median
    return median, TOLERANCE * median


def check(measured, references, reference_name):
    """Gate measured rows against each key's reference rows: coverage,
    equivalence, and the speedup floor."""
    failures = []
    print(f"vs the median of {reference_name}:")
    print(f"  {'workload':<10} {'cores':>6} {'speedup':>9} {'median':>9} "
          f"{'floor':>7}  status")
    for key, refs in sorted(references.items(),
                            key=lambda kv: (kv[0][0], kv[0][1],
                                            kv[0][2] or "")):
        base = refs[-1]
        row = measured.get(key)
        if row is None:
            failures.append(f"{describe_row(key, base)}: missing from "
                            "measured results — the leg did not run or "
                            "was filtered out")
            continue
        floor = speedup_floor(refs, row)
        speedup_ok = floor is None or row["speedup"] >= floor[1]
        equivalent = row.get("equivalent", False)
        status = ("FAIL" if not (speedup_ok and equivalent)
                  else "skip" if floor is None else "ok")
        if floor is None:
            print(f"  {key[0]:<10} {key[1]:>6} {row['speedup']:>8.2f}x "
                  f"{'-':>9} {'-':>7}  {status}")
            print(f"    notice: {describe_row(key, base)}: no "
                  f"reference point at host_cores {row.get('host_cores')}; "
                  "speedup floor not applied")
        else:
            print(f"  {key[0]:<10} {key[1]:>6} {row['speedup']:>8.2f}x "
                  f"{floor[0]:>8.2f}x {floor[1]:>6.2f}x  {status}")
        if not equivalent:
            failures.append(f"{describe_row(key, base)}: results "
                            "diverged (equivalent=false) — the leg's "
                            "byte-identity contract broke")
        elif not speedup_ok:
            failures.append(
                f"{describe_row(key, base)}: speedup "
                f"{row['speedup']:.2f}x below floor {floor[1]:.2f}x "
                f"(median {floor[0]:.2f}x over {reference_name})")
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
        row = measured.get(key)
        if base.get("series") is not None or row is None:
            continue
        for field in COUNT_FIELDS:
            if row.get(field) != base.get(field):
                failures.append(
                    f"{describe_row(key, base)}: {field} "
                    f"{row.get(field)} differs from {base.get(field)} "
                    f"recorded by {point_name} — simulated counts moved")
    return failures


def gate(measured_doc, trajectory, trajectory_name):
    """Every rule against one trajectory; returns the failure messages."""
    measured = key_rows(measured_doc["rows"])
    points = trajectory["points"]
    window = ", ".join(p["label"] for p in points[-REFERENCE_POINTS:])
    failures = check(measured, reference_rows(points),
                     f"{trajectory_name}[{window}]")
    latest = points[-1]
    return failures + check_counts(
        measured, measured_doc.get("quick", False), latest,
        f"{trajectory_name}[{latest['label']}]")


def self_test():
    """Unit-style checks of the gating logic itself (run from ctest).
    Synthetic rows, no files: one case per rule the CI gate depends on,
    plus the failure messages naming the series and leg."""
    def expect(cond, what):
        if not cond:
            sys.exit(f"check_host_perf.py --self-test FAILED: {what}")

    def point(label, *rows, quick=True):
        return {"label": label, "quick": quick, "rows": list(rows)}

    def report(*rows, quick=True):
        return {"schema": REPORT_SCHEMA, "bench": "host_perf",
                "quick": quick, "rows": list(rows)}

    fib = {"workload": "fib", "cores": 128, "geometry": "16x8",
           "speedup": 4.0, "equivalent": True, "switches": 10,
           "syncpoints": 20, "sim_cycles": 30}
    expect(row_key(fib) == ("fib", 128, "16x8"), "row_key with geometry")

    # Rule: the reference is the median of the last three points. The
    # latest point alone (8.0x) would floor at 6.0x; the median (4.0x)
    # floors at 3.0x, so 3.5x passes and 2.9x fails.
    traj = {"points": [point("p1", dict(fib, speedup=2.0)),
                       point("p2", dict(fib, speedup=4.0)),
                       point("p3", dict(fib, speedup=8.0))]}
    expect(gate(report(dict(fib, speedup=3.5)), traj, "t") == [],
           "a speedup above 0.75 x the three-point median must pass")
    failures = gate(report(dict(fib, speedup=2.9)), traj, "t")
    expect(len(failures) == 1 and "below floor 3.00x" in failures[0] and
           "median 4.00x" in failures[0],
           f"a speedup under 0.75 x the median must fail: {failures}")

    # Rule: only the last three points count; an older outlier does not.
    older = {"points": [point("p0", dict(fib, speedup=100.0))] +
             traj["points"]}
    expect(reference_rows(older["points"])[row_key(fib)] ==
           [r for p in traj["points"] for r in p["rows"]],
           "the reference must span exactly the last three points")
    expect(gate(report(dict(fib, speedup=3.5)), older, "t") == [],
           "a point older than the last three must not set the floor")

    # Rule: throughput rows floor at 0.5 x the median over the points at
    # the measurement's host_cores, and skip the floor when there is none.
    fleet = {"workload": "fleet", "cores": 4, "geometry": "4x4",
             "series": "throughput", "host_cores": 4, "speedup": 3.0,
             "equivalent": True}
    refs = [dict(fleet, speedup=1.0), dict(fleet, speedup=3.0),
            dict(fleet, speedup=3.2, host_cores=8)]
    expect(speedup_floor(refs, fleet) == (2.0, 1.0),
           "a throughput floor is 0.5 x the median at equal host_cores")
    expect(speedup_floor(refs, dict(fleet, host_cores=8)) == (3.2, 1.6),
           "another host_cores count picks its own points")
    expect(speedup_floor(refs, dict(fleet, host_cores=1)) is None,
           "no point at the measured host_cores skips the floor")
    legacy = {k: v for k, v in fleet.items() if k != "host_cores"}
    expect(not ratchets(legacy, fleet),
           "a reference row without host_cores must not ratchet")
    expect(ratchets(fib, {}), "scheduler rows ratchet on any host")
    fleet_traj = {"points": [point("p1", r) for r in refs]}
    failures = gate(report(dict(fleet, speedup=0.9)), fleet_traj, "t")
    expect(len(failures) == 1 and "fleet/4" in failures[0] and
           "series=throughput" in failures[0] and
           "below floor" in failures[0],
           f"a slow throughput row must fail naming series and leg: "
           f"{failures}")
    expect(gate(report(dict(fleet, speedup=0.1, host_cores=1)),
                fleet_traj, "t") == [],
           "a skipped throughput floor must not fail the speedup")

    # Rule: equivalent=false fails on any host, floored or not.
    for row in (dict(fib, equivalent=False),
                dict(fleet, equivalent=False, host_cores=1)):
        failures = gate(report(row), {"points": [point("p", fib, fleet)]},
                        "t")
        expect(any("diverged" in f for f in failures),
               f"a divergent row must fail: {failures}")

    # Rule: a row of the latest point missing from the measurement fails,
    # naming its series (this is what keeps the fleet series present).
    failures = gate(report(fib), {"points": [point("p", fib, fleet)]}, "t")
    expect(len(failures) == 1 and "missing" in failures[0] and
           "series=throughput" in failures[0],
           f"a missing leg must fail naming the series: {failures}")

    # Rule: simulated counts equal the latest point's exactly, and only
    # at the point's quick flag.
    counts = {"points": [point("old", dict(fib, sim_cycles=29)),
                         point("new", fib)]}
    expect(gate(report(fib), counts, "t") == [],
           "counts equal to the latest point must pass")
    failures = gate(report(dict(fib, sim_cycles=31)), counts, "t")
    expect(len(failures) == 1 and "sim_cycles" in failures[0] and
           "fib/128" in failures[0] and "[new]" in failures[0],
           f"one cycle off must fail naming sim_cycles: {failures}")
    expect(gate(report(dict(fib, sim_cycles=31), quick=False), counts,
                "t") == [],
           "a different quick flag must skip the count gate")

    # The measurement is host_perf's spmrt-bench-v1 report, nothing else.
    def rejected(doc):
        try:
            check_measurement(doc, "doc.json")
        except SystemExit:
            return True
        return False
    expect(not rejected(report(fib)),
           "a host_perf report must load as a measurement")
    expect(rejected(dict(report(fib), bench="fig07_fib_variants")),
           "another bench's report must be rejected")
    expect(rejected(dict(report(fib), schema="spmrt-host-perf-v1")),
           "the retired host-perf row-set schema must be rejected")
    expect(rejected(report()), "a report without rows must be rejected")

    print("check_host_perf.py --self-test passed")
    return 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("measured",
                        help="host_perf --out report (spmrt-bench-v1)")
    parser.add_argument("trajectory",
                        help="perf trajectory (BENCH_host_perf.json)")
    parser.add_argument("--append", metavar="LABEL",
                        help="after the gates pass, append the measured "
                             "rows to the trajectory under this label")
    args = parser.parse_args()

    measured_doc = check_measurement(load_json(args.measured, "measurement"),
                                     args.measured)
    trajectory = load_trajectory(args.trajectory)
    failures = gate(measured_doc, trajectory, args.trajectory)
    if failures:
        print("host-perf regression check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("host-perf regression check passed")
    if args.append:
        trajectory["points"].append({
            "label": args.append,
            "quick": measured_doc.get("quick", False),
            "rows": measured_doc["rows"],
        })
        with open(args.trajectory, "w") as f:
            json.dump(trajectory, f, indent=2)
            f.write("\n")
        print(f"appended point {args.append!r} to {args.trajectory} "
              f"({len(trajectory['points'])} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
