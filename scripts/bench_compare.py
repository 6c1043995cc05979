#!/usr/bin/env python3
"""Compare two BENCH_<rev>.json files written by benchmarks/baseline.py.

Prints a metric-by-metric table (baseline vs current, % change) and
flags regressions: a throughput metric that dropped, or a wall-clock
metric that grew, by more than ``--threshold`` percent.  With
``--strict`` a flagged regression makes the script exit non-zero, so CI
can gate on it.  ``--assert-overhead`` additionally bounds every
``*_overhead_pct`` metric of the *current* run by an absolute budget
(telemetry attach cost, idle fault-harness cost, observability-plane
cost) and always fails on a breach, strict or not; a bare number sets
the default budget and repeated ``NAME=PCT`` values pin individual
metrics (e.g. ``--assert-overhead 30 --assert-overhead
observability_overhead_pct=10``).

Usage::

    python scripts/bench_compare.py BENCH_old.json BENCH_new.json
    python scripts/bench_compare.py            # two newest in benchmarks/
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: metric -> True when higher is better (False: lower is better).
#: Metrics absent here are informational and never flagged.
DIRECTIONS = {
    "events_per_sec": True,
    "events_per_sec_telemetry": True,
    "telemetry_overhead_pct": False,
    "dataplane_msgs_per_sec": True,
    "dataplane_frame_cache_hit_rate": True,
    "dataplane_envelope_bytes_per_msg": False,
    "scans_per_sec": True,
    "cache_hit_rate": True,
    "chaos_off_s": False,
    "chaos_armed_s": False,
    "chaos_idle_overhead_pct": False,
    "observability_off_s": False,
    "observability_on_s": False,
    "observability_overhead_pct": False,
    "replication_serial_s": False,
    "replication_parallel_s": False,
    "replication_speedup": True,
}


def load(path: Path) -> dict:
    with path.open() as handle:
        payload = json.load(handle)
    if "results" not in payload or "rev" not in payload:
        raise ValueError(f"{path} is not a baseline.py benchmark file")
    return payload


class NoPriorBaseline(Exception):
    """There is no earlier benchmark run to compare against."""


def _available(directory: Path):
    return sorted(directory.glob("BENCH_*.json"),
                  key=lambda p: p.stat().st_mtime)


def find_default_pair(directory: Path):
    candidates = _available(directory)
    if len(candidates) < 2:
        have = (f"only {candidates[0].name}" if candidates
                else "no BENCH_*.json files")
        raise NoPriorBaseline(
            f"no prior baseline under {directory} ({have}); run "
            f"benchmarks/baseline.py on the comparison rev first, or "
            f"pass two files explicitly")
    return candidates[-2], candidates[-1]


def require_file(path: Path, directory: Path) -> Path:
    """A named benchmark file, or a clear no-prior-baseline error.

    The benchmark history legitimately has gaps (a rev whose BENCH file
    was never committed); pointing at one must explain itself rather
    than surface a bare ENOENT.
    """
    if path.exists():
        return path
    names = ", ".join(p.name for p in _available(directory)) or "none"
    raise NoPriorBaseline(
        f"no prior baseline at {path}: that rev was never benchmarked "
        f"(or its BENCH file was not committed).  Available under "
        f"{directory}: {names}")


def compare(baseline: dict, current: dict, threshold: float):
    """Yield (metric, old, new, pct_change, regressed) rows."""
    old_results, new_results = baseline["results"], current["results"]
    for metric in sorted(set(old_results) & set(new_results)):
        old, new = old_results[metric], new_results[metric]
        if not isinstance(old, (int, float)) or isinstance(old, bool):
            continue
        pct = ((new - old) / old * 100.0) if old else 0.0
        higher_better = DIRECTIONS.get(metric)
        if higher_better is None:
            regressed = False
        elif metric.endswith("_overhead_pct"):
            # already a percentage: compare absolute points, not the
            # relative change of a near-zero number
            regressed = new - old > threshold
        elif higher_better:
            regressed = pct < -threshold
        else:
            regressed = pct > threshold
        yield metric, float(old), float(new), pct, regressed


def parse_overhead_budgets(specs):
    """(default budget, per-metric overrides) from repeated flag values.

    Mirrors benchmarks/baseline.py: a bare number is the default budget
    for every ``*_overhead_pct`` metric, ``NAME=PCT`` pins one metric;
    with only overrides given, un-named metrics are not gated.
    """
    default_budget = None
    per_metric = {}
    for spec in specs:
        spec = str(spec)
        if "=" in spec:
            name, _, value = spec.partition("=")
            per_metric[name.strip()] = float(value)
        else:
            default_budget = float(spec)
    return default_budget, per_metric


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, nargs="?")
    parser.add_argument("current", type=Path, nargs="?")
    parser.add_argument("--dir", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "benchmarks",
                        help="where to look for BENCH_*.json when paths "
                             "are not given")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="percent change that counts as a regression")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any tracked metric regressed")
    parser.add_argument("--assert-overhead", action="append",
                        default=None, metavar="PCT|NAME=PCT",
                        help="exit 1 when any *_overhead_pct metric in "
                             "the CURRENT results exceeds its budget "
                             "(absolute, independent of the baseline). "
                             "A bare number is the default budget; "
                             "NAME=PCT pins one metric (repeat the "
                             "flag to combine)")
    args = parser.parse_args(argv)

    try:
        if args.baseline and args.current:
            base_path = require_file(args.baseline, args.dir)
            cur_path = require_file(args.current, args.dir)
        elif args.baseline or args.current:
            parser.error("give both files or neither")
            return 2
        else:
            base_path, cur_path = find_default_pair(args.dir)
    except NoPriorBaseline as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    try:
        baseline, current = load(base_path), load(cur_path)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if baseline.get("quick") != current.get("quick"):
        print("warning: comparing a --quick run against a full run; "
              "deltas are not meaningful", file=sys.stderr)

    print(f"baseline: {baseline['rev']}  ({base_path.name})")
    print(f"current:  {current['rev']}  ({cur_path.name})")
    print(f"{'metric':<26s} {'baseline':>14s} {'current':>14s} "
          f"{'change':>9s}")
    regressions = []
    for metric, old, new, pct, regressed in compare(
            baseline, current, args.threshold):
        flag = "  << REGRESSION" if regressed else ""
        print(f"{metric:<26s} {old:>14,.2f} {new:>14,.2f} "
              f"{pct:>+8.1f}%{flag}")
        if regressed:
            regressions.append(metric)
    over_budget = []
    if args.assert_overhead:
        default_budget, per_metric = parse_overhead_budgets(
            args.assert_overhead)
        for metric, value in sorted(current["results"].items()):
            if (not metric.endswith("_overhead_pct")
                    or not isinstance(value, (int, float))):
                continue
            budget = per_metric.get(metric, default_budget)
            if budget is not None and value > budget:
                over_budget.append(
                    f"{metric} {value:.1f}% (budget {budget:g}%)")
        if over_budget:
            print(f"\noverhead budget exceeded: {', '.join(over_budget)}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) past "
              f"{args.threshold:g}%: {', '.join(regressions)}")
    elif not over_budget:
        print("\nno regressions past threshold")
    if over_budget:
        return 1
    if regressions:
        return 1 if args.strict else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
