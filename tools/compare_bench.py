#!/usr/bin/env python3
"""Perf-regression gate over wcds-bench/v1 JSON reports.

Compares a freshly produced bench report against the committed baseline
(bench/baselines/) and FAILS — exit code 1 — when any timing metric
regressed beyond the tolerance.  This is the script behind the perf-gate CI
job: the gate acts on medians, lower-is-better, so noisy single samples
don't flap the build, and a genuine 2x slowdown cannot land silently.

What is compared (everything else in the reports is ignored):
  * gauges whose name matches a timing prefix (``a5/flat_ms/``,
    ``a6/recovery_ms/`` ... — see TIMING_GAUGE_PREFIXES),
  * the ``p50`` of every ``phase_ms/*`` histogram.

A fresh value regresses when  fresh > baseline * (1 + tolerance)  and the
absolute slowdown exceeds ``--min-abs-ms`` (sub-millisecond phases jitter by
multiples of themselves on shared CI runners).  Metrics present in only one
report are reported but never fail the gate — adding or retiring a bench
config must not require lockstep baseline edits.

``--refresh-baselines`` flips the tool from gate to maintenance mode: each
fresh report is copied over its baseline path verbatim (the full report, not
just the timing metrics, so future comparisons see exactly what a rerun
would produce).  A fresh report with no timing metrics is refused — that
would disarm the gate silently.  Use it after an accepted perf change to
re-pin the committed baselines in one command instead of hand-copying
report files.

Usage:
  compare_bench.py --pair baseline.json fresh.json [--pair ...]
                   [--tolerance 0.25] [--min-abs-ms 1.0]
                   [--refresh-baselines]
  compare_bench.py --selftest
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List, Tuple

TIMING_GAUGE_PREFIXES = (
    "a5/flat_ms/",
    "a6/recovery_ms/",
    "a6/crash_repair_ms/",
    "a6/recover_repair_ms/",
    "a7/serve_ms/",
    "a8/global_ms/",
    "a8/sharded_ms/",
    "a9/build_ms/",
)
PHASE_HISTOGRAM_PREFIX = "phase_ms/"


def timing_metrics(report: dict) -> Dict[str, float]:
    """Extract the comparable name -> milliseconds map from one report."""
    metrics = report.get("metrics", {})
    out: Dict[str, float] = {}
    for name, value in metrics.get("gauges", {}).items():
        if name.startswith(TIMING_GAUGE_PREFIXES):
            out[name] = float(value)
    for name, hist in metrics.get("histograms", {}).items():
        if name.startswith(PHASE_HISTOGRAM_PREFIX) and "p50" in hist:
            out[name + "#p50"] = float(hist["p50"])
    return out


def compare(
    baseline: Dict[str, float],
    fresh: Dict[str, float],
    tolerance: float,
    min_abs_ms: float,
) -> Tuple[List[str], List[str]]:
    """Returns (regressions, notes); the gate fails iff regressions."""
    regressions: List[str] = []
    notes: List[str] = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in baseline:
            notes.append(f"new metric (no baseline): {name}")
            continue
        if name not in fresh:
            notes.append(f"baseline metric missing from fresh run: {name}")
            continue
        base, new = baseline[name], fresh[name]
        limit = base * (1.0 + tolerance)
        if new > limit and (new - base) > min_abs_ms:
            ratio = new / base if base > 0 else float("inf")
            regressions.append(
                f"REGRESSION {name}: {base:.3f} ms -> {new:.3f} ms "
                f"({ratio:.2f}x, limit {limit:.3f} ms)"
            )
    return regressions, notes


def run_pair(
    baseline_path: str, fresh_path: str, tolerance: float, min_abs_ms: float
) -> int:
    with open(baseline_path, encoding="utf-8") as fh:
        baseline_report = json.load(fh)
    with open(fresh_path, encoding="utf-8") as fh:
        fresh_report = json.load(fh)
    baseline = timing_metrics(baseline_report)
    fresh = timing_metrics(fresh_report)
    if not baseline:
        print(f"warning: no timing metrics in baseline {baseline_path}")
    regressions, notes = compare(baseline, fresh, tolerance, min_abs_ms)
    label = f"{baseline_path} vs {fresh_path}"
    for note in notes:
        print(f"  note: {note}")
    for regression in regressions:
        print(f"  {regression}")
    compared = len(set(baseline) & set(fresh))
    if regressions:
        print(f"FAIL {label}: {len(regressions)} regression(s) "
              f"across {compared} compared metric(s)")
        return 1
    print(f"OK {label}: {compared} metric(s) within "
          f"+{tolerance * 100:.0f}% of baseline")
    return 0


def refresh_baseline(baseline_path: str, fresh_path: str) -> int:
    """Copies the fresh report over the baseline after validating it parses.

    The fresh report must be valid JSON with at least one timing metric —
    overwriting a baseline with an empty or truncated report would disarm
    the gate silently.
    """
    with open(fresh_path, encoding="utf-8") as fh:
        fresh_report = json.load(fh)
    fresh = timing_metrics(fresh_report)
    if not fresh:
        print(f"refusing to refresh {baseline_path}: "
              f"no timing metrics in {fresh_path}")
        return 1
    shutil.copyfile(fresh_path, baseline_path)
    print(f"refreshed {baseline_path} from {fresh_path} "
          f"({len(fresh)} timing metric(s))")
    return 0


def selftest() -> int:
    """Unit-test the gate logic, including the synthetic-2x-slowdown case."""
    base = {
        "metrics": {
            "gauges": {
                "a5/flat_ms/alg1_sync_n512": 10.0,
                "a5/speedup/alg1_sync_n512": 2.0,  # not a timing gauge
            },
            "histograms": {
                "phase_ms/build/total": {"count": 8, "p50": 40.0},
                "build/nodes": {"count": 8, "p50": 512.0},  # not phase_ms
            },
        }
    }

    def fresh_with(gauge_ms: float, phase_p50: float) -> dict:
        return {
            "metrics": {
                "gauges": {"a5/flat_ms/alg1_sync_n512": gauge_ms},
                "histograms": {
                    "phase_ms/build/total": {"count": 8, "p50": phase_p50}
                },
            }
        }

    failures: List[str] = []

    def check(name: str, condition: bool) -> None:
        if not condition:
            failures.append(name)

    tol, floor = 0.25, 1.0

    # A 2x slowdown on either channel must fail the gate.
    regressions, _ = compare(
        timing_metrics(base), timing_metrics(fresh_with(20.0, 40.0)), tol, floor
    )
    check("gauge 2x slowdown detected", len(regressions) == 1)
    regressions, _ = compare(
        timing_metrics(base), timing_metrics(fresh_with(10.0, 80.0)), tol, floor
    )
    check("phase p50 2x slowdown detected", len(regressions) == 1)

    # Identical and within-tolerance runs pass.
    regressions, _ = compare(
        timing_metrics(base), timing_metrics(fresh_with(10.0, 40.0)), tol, floor
    )
    check("identical run passes", not regressions)
    regressions, _ = compare(
        timing_metrics(base), timing_metrics(fresh_with(12.4, 49.9)), tol, floor
    )
    check("within-tolerance run passes", not regressions)

    # Just over tolerance fails; the absolute floor forgives micro-jitter.
    regressions, _ = compare(
        timing_metrics(base), timing_metrics(fresh_with(12.6, 40.0)), tol, floor
    )
    check("over-tolerance gauge fails", len(regressions) == 1)
    tiny_base = {
        "metrics": {"gauges": {"a5/flat_ms/tiny": 0.01}, "histograms": {}}
    }
    tiny_fresh = {
        "metrics": {"gauges": {"a5/flat_ms/tiny": 0.05}, "histograms": {}}
    }
    regressions, _ = compare(
        timing_metrics(tiny_base), timing_metrics(tiny_fresh), tol, floor
    )
    check("sub-ms jitter forgiven by absolute floor", not regressions)

    # Non-timing metrics never participate; add/remove is a note, not a fail.
    check(
        "non-timing metrics excluded",
        set(timing_metrics(base))
        == {"a5/flat_ms/alg1_sync_n512", "phase_ms/build/total#p50"},
    )
    only_new = {
        "metrics": {"gauges": {"a5/flat_ms/brand_new": 5.0}, "histograms": {}}
    }
    regressions, notes = compare(
        timing_metrics(base), timing_metrics(only_new), tol, floor
    )
    check("disjoint metric sets only produce notes", not regressions
          and len(notes) == 3)

    # --refresh-baselines copies the fresh report verbatim and refuses
    # reports the gate could not act on.
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        fresh_path = os.path.join(tmp, "fresh.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(base, fh)
        with open(fresh_path, "w", encoding="utf-8") as fh:
            json.dump(fresh_with(20.0, 40.0), fh)
        check("refresh succeeds", refresh_baseline(base_path, fresh_path) == 0)
        with open(base_path, encoding="utf-8") as fh:
            check("refresh copies the fresh report verbatim",
                  json.load(fh) == fresh_with(20.0, 40.0))
        empty_path = os.path.join(tmp, "empty.json")
        with open(empty_path, "w", encoding="utf-8") as fh:
            json.dump({"metrics": {}}, fh)
        check("refresh refuses a metric-free report",
              refresh_baseline(base_path, empty_path) == 1)
        with open(base_path, encoding="utf-8") as fh:
            check("refused refresh leaves the baseline untouched",
                  json.load(fh) == fresh_with(20.0, 40.0))

    for failure in failures:
        print(f"selftest FAILED: {failure}")
    if not failures:
        print("selftest OK: 12 cases")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("BASELINE", "FRESH"),
        default=[],
        help="baseline and fresh report to compare (repeatable)",
    )
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative slowdown (default 0.25)")
    parser.add_argument("--min-abs-ms", type=float, default=1.0,
                        help="ignore slowdowns smaller than this many ms")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in unit tests and exit")
    parser.add_argument("--refresh-baselines", action="store_true",
                        help="copy each fresh report over its baseline "
                             "instead of comparing (maintenance mode)")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if not args.pair:
        parser.error("provide at least one --pair (or --selftest)")
    status = 0
    for baseline_path, fresh_path in args.pair:
        if args.refresh_baselines:
            status |= refresh_baseline(baseline_path, fresh_path)
        else:
            status |= run_pair(baseline_path, fresh_path, args.tolerance,
                               args.min_abs_ms)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
