#!/usr/bin/env python3
"""Diff a BENCH_suite.json run against a baseline and gate on regressions.

The regression half of the perf-observability loop: `pmpr_bench suite`
emits per-cell timings, histogram percentiles, and counter rates; this script
diffs them against a committed baseline with direction-aware tolerance
bands and exits non-zero when any metric regresses past its band.

Usage:
  python3 ci/bench_compare.py CURRENT.json BASELINE.json [options]
  python3 ci/bench_compare.py CURRENT.json BASELINE.json --update-baseline
  python3 ci/bench_compare.py --self-test

Tolerance bands are classified from the metric name:
  *seconds, *_ns, ns_per_*   timing      regression = slower   (+50%)
  *_pNN_ns (percentiles)     tail        regression = slower   (+100%)
  *_per_second               throughput  regression = lower    (-33%)
  *_bytes, *amplification*   footprint   regression = larger   (+25%)
  anything else              count       regression = +/-20% drift

Absolute timings do not transfer between machines, so the always-on ctest
gate (bench.regression, see ci/bench_regression.sh) exercises this script
against same-machine data and fabricated regressions; the committed
ci/bench_baseline.json serves the developer workflow on a fixed box.
--tolerance scales every band for noisier machines.
"""

import argparse
import json
import re
import sys

# Base bands; --tolerance multiplies the allowed drift fraction.
TIMING_SLOWDOWN = 0.50     # timing may grow up to +50%
TAIL_SLOWDOWN = 1.00       # tail percentiles may grow up to +100%
THROUGHPUT_DROP = 0.33     # throughput may drop up to -33%
FOOTPRINT_GROWTH = 0.25    # memory/IO footprints may grow up to +25%
COUNT_DRIFT = 0.20         # counts may drift +/-20%

# meta fields that must match exactly: diffing runs of different shapes
# compares apples to oranges no matter the band.
META_EXACT = ("schema_version", "scale", "max_windows")


def classify(metric):
    """Returns the band kind for a metric name."""
    if metric.endswith("_per_second"):
        return "throughput"
    if re.search(r"_p\d+_ns$", metric):
        # Tail percentiles (p50/p99 of per-window latency histograms) are
        # the noisiest exports: one descheduled window moves them a full
        # log-bucket or two. Wider band, same direction.
        return "tail"
    if (
        metric.endswith("seconds")
        or metric.endswith("_ns")
        or metric.startswith("ns_per_")
        or "ns_per_" in metric
    ):
        return "timing"
    if metric.endswith("_bytes") or "amplification" in metric:
        # Memory/IO footprints (resident peaks, read amplification) only
        # regress in one direction — using *less* memory or decoding fewer
        # bytes per delivered rank is a win, never a failure.
        return "footprint"
    return "count"


def check_metric(metric, current, baseline, tolerance):
    """Returns (ok, ratio, band_text) for one metric value pair."""
    kind = classify(metric)
    if baseline == 0:
        # Nothing to ratio against; only a zero-to-nonzero timing jump is
        # meaningful, and it has no scale — treat as informational.
        return True, float("inf") if current else 1.0, f"{kind} (zero base)"
    ratio = current / baseline
    if kind == "timing":
        limit = 1.0 + TIMING_SLOWDOWN * tolerance
        return ratio <= limit, ratio, f"timing <= {limit:.2f}x"
    if kind == "tail":
        limit = 1.0 + TAIL_SLOWDOWN * tolerance
        return ratio <= limit, ratio, f"tail <= {limit:.2f}x"
    if kind == "throughput":
        limit = 1.0 - min(0.99, THROUGHPUT_DROP * tolerance)
        return ratio >= limit, ratio, f"throughput >= {limit:.2f}x"
    if kind == "footprint":
        limit = 1.0 + FOOTPRINT_GROWTH * tolerance
        return ratio <= limit, ratio, f"footprint <= {limit:.2f}x"
    drift = COUNT_DRIFT * tolerance
    ok = (1.0 - min(0.99, drift)) <= ratio <= (1.0 + drift)
    return ok, ratio, f"count within +/-{drift:.0%}"


def compare(current, baseline, tolerance=1.0, out=sys.stdout):
    """Diffs two suite dicts; returns a list of failure strings."""
    failures = []

    cur_meta = current.get("meta", {})
    base_meta = baseline.get("meta", {})
    for field in META_EXACT:
        if cur_meta.get(field) != base_meta.get(field):
            failures.append(
                f"meta.{field}: current={cur_meta.get(field)} "
                f"baseline={base_meta.get(field)} — runs are not comparable"
            )
    if failures:
        for f in failures:
            print(f"FAIL  {f}", file=out)
        return failures

    for record, base_fields in baseline.items():
        if record == "meta":
            continue
        cur_fields = current.get(record)
        if cur_fields is None:
            failures.append(f"{record}: missing from current run")
            print(f"FAIL  {record}: record missing", file=out)
            continue
        for metric, base_value in base_fields.items():
            if metric == "counters" or not isinstance(
                base_value, (int, float)
            ):
                continue
            if metric not in cur_fields:
                failures.append(f"{record}.{metric}: missing from current run")
                print(f"FAIL  {record}.{metric}: metric missing", file=out)
                continue
            cur_value = cur_fields[metric]
            ok, ratio, band = check_metric(
                metric, cur_value, base_value, tolerance
            )
            status = "ok  " if ok else "FAIL"
            print(
                f"{status}  {record}.{metric}: {cur_value:.6g} vs "
                f"{base_value:.6g}  ({ratio:.3f}x, {band})",
                file=out,
            )
            if not ok:
                failures.append(
                    f"{record}.{metric}: {ratio:.3f}x outside band ({band})"
                )

    for record in current:
        if record != "meta" and record not in baseline:
            print(f"note  {record}: new record (not in baseline)", file=out)
    return failures


class _Sink:
    def write(self, _):
        pass


def self_test():
    """Validates the comparison logic against fabricated runs."""
    base = {
        "meta": {"schema_version": 1, "scale": 0.02, "max_windows": 64,
                 "repeats": 3},
        "fig5.postmortem": {
            "seconds": 1.0,
            "ns_per_window": 1000.0,
            "iterate_p99_ns": 5000.0,
            "edges_per_second": 1e8,
            "total_iterations": 200,
        },
        "micro.spmv_ref": {"ns_per_iteration": 100.0},
        "io.oocore_paging": {
            "resident_peak_bytes": 1.0e6,
            "read_amplification": 4.0,
        },
    }
    sink = _Sink()

    def run(current, tolerance=1.0):
        return compare(current, base, tolerance, out=sink)

    def clone(**overrides):
        cur = json.loads(json.dumps(base))
        for dotted, value in overrides.items():
            record, metric = dotted.rsplit("/", 1)
            cur[record][metric] = value
        return cur

    checks = [
        # Identity must pass: a run compared against itself is never a
        # regression, whatever the machine.
        ("identity passes", run(clone()), False),
        # Within-band noise passes; past-band slowdowns fail.
        ("mild slowdown passes", run(clone(**{"fig5.postmortem/seconds": 1.3})),
         False),
        ("doubled seconds fails", run(clone(**{"fig5.postmortem/seconds": 2.0})),
         True),
        # Tail percentiles get the wider band: 2x is within it, 2.5x not.
        ("doubled p99 passes (tail band)",
         run(clone(**{"fig5.postmortem/iterate_p99_ns": 9000.0})), False),
        ("2.5x p99 fails",
         run(clone(**{"fig5.postmortem/iterate_p99_ns": 12500.0})), True),
        ("doubled micro ns fails",
         run(clone(**{"micro.spmv_ref/ns_per_iteration": 200.0})), True),
        # Direction-aware: faster timings and higher throughput are never
        # regressions.
        ("halved seconds passes",
         run(clone(**{"fig5.postmortem/seconds": 0.5})), False),
        ("doubled throughput passes",
         run(clone(**{"fig5.postmortem/edges_per_second": 2e8})), False),
        ("halved throughput fails",
         run(clone(**{"fig5.postmortem/edges_per_second": 5e7})), True),
        # Footprints are one-sided: growth past the band fails, shrinking
        # is always a win.
        ("doubled resident peak fails",
         run(clone(**{"io.oocore_paging/resident_peak_bytes": 2.0e6})), True),
        ("halved resident peak passes",
         run(clone(**{"io.oocore_paging/resident_peak_bytes": 0.5e6})), False),
        ("doubled read amplification fails",
         run(clone(**{"io.oocore_paging/read_amplification": 8.0})), True),
        ("reduced read amplification passes",
         run(clone(**{"io.oocore_paging/read_amplification": 1.5})), False),
        # Counts drift both ways.
        ("iteration blowup fails",
         run(clone(**{"fig5.postmortem/total_iterations": 400})), True),
        ("iteration collapse fails",
         run(clone(**{"fig5.postmortem/total_iterations": 100})), True),
        # --tolerance widens bands.
        ("tolerance widens band",
         run(clone(**{"fig5.postmortem/seconds": 2.0}), tolerance=3.0), False),
        # Shrinking coverage is itself a regression.
        ("missing record fails",
         run({k: v for k, v in clone().items() if k != "micro.spmv_ref"}),
         True),
        # Mismatched runs are not comparable at all.
        ("scale mismatch fails",
         run({**clone(), "meta": {**base["meta"], "scale": 0.5}}), True),
    ]

    bad = [name for name, failures, expect_fail in checks
           if bool(failures) != expect_fail]
    if bad:
        for name in bad:
            print(f"self-test FAILED: {name}", file=sys.stderr)
        return 1
    print(f"bench_compare self-test OK: {len(checks)} checks")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="Diff BENCH_suite.json runs with tolerance bands."
    )
    parser.add_argument("current", nargs="?", help="fresh BENCH_suite.json")
    parser.add_argument("baseline", nargs="?", help="baseline to diff against")
    parser.add_argument(
        "--tolerance", type=float, default=1.0,
        help="multiplier on every tolerance band (default 1.0)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite BASELINE with CURRENT instead of comparing",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="validate the comparison logic against fabricated runs",
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.current or not args.baseline:
        parser.error("CURRENT and BASELINE are required unless --self-test")

    with open(args.current) as f:
        current = json.load(f)

    if args.update_baseline:
        with open(args.baseline, "w") as f:
            json.dump(current, f, indent=2)
            f.write("\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    with open(args.baseline) as f:
        baseline = json.load(f)

    failures = compare(current, baseline, args.tolerance)
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
