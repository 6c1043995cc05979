"""Campaign benchmark: run one workload over worlds its seed picks.

    python3 perfbench/run.py --workload lw-study [--seed 1] [--seconds 20]
                             [--trace 0|1]

Workloads (see ``workloads.py``): ``lw-study``, ``oft-study``,
``lw-sweep``.  A run with ``--seed s`` simulates the worlds ``s``
picks from the workload's pool of pinned worlds -- as many as fit
``--seconds`` at the workload's nominal seconds per world, so the list
depends on the arguments only, never on how fast this host or this
commit is.  Each world runs in a fresh interpreter (``rep.py``), with a
string hash seed tied to the world, and a fresh scratch directory under
``.perfbench-out/`` that is removed afterwards.

``--trace 0`` reports the end-to-end metrics, measured with tracing
off: ``setup_s`` as the median over the run's set-ups, the others as
means over its worlds (a run's list of worlds is fixed, so a mean is
its total over a fixed count).  Times are in reference seconds: while
an untraced world runs, ``pace.py`` samples the host's speed, and each
stretch is scaled to the speed of a fast phase of the reference VM.
``--trace 1`` runs each world twice, untraced then traced, and reports
the per-layer metrics summed over the traced worlds, with the fractions
taken over the sums; so counts repeat exactly for a seed, and the
``<layer>.self_s`` metrics plus ``unattributed_s`` add up to
``trace.wall_s``.  Traced times are clock seconds, and
``trace.overhead_frac`` is the traced over the untraced clock time,
minus one.  The spans of the last traced world are written to
``.perfbench-out/<workload>-spans.json``.

Metric names, units and which end-to-end metrics exist are read from
``BENCHMARK.json``.  Every world's outputs are checked (``check.py``),
and a traced world's must equal the untraced one's.  Each campaign is
one operation; it fails if it raises, if the sweep degraded, or if its
outputs fail the check.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (empty when a
world did not finish); the lines before it print the run's metrics by
name with their units (with ``--trace 1`` the end-to-end ones of the
untraced worlds as well, so that one command prints every metric), the
failure count and the verdict.  The exit code is 0 whenever that line
is printed, failed operations included; it is 2 when there is no
program to run.

``--write-reference`` runs every world of the workload's pool untraced
and pins their outputs in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(ROOT / "src"))

from check import REFERENCE_PATH, check_outputs, load_reference  # noqa: E402
from probes import LAYERS, combine, per_layer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, pool, worlds  # noqa: E402

#: a run must exit within 180 s
HARD_LIMIT_S = 170.0
#: printed for every world; ``wall_clock_s`` is ``wall_s`` before the
#: host-speed scaling
WORLD_FIGURES = ("wall_s", "setup_s", "analyze_s", "peak_rss_mb",
                 "wall_clock_s")


class Rep:
    """One finished world as the parent sees it."""

    def __init__(self, mode: str, seed: int, result, error: str) -> None:
        self.mode = mode
        self.seed = seed
        self.result = result
        self.error = error


def world_env(seed: int) -> dict:
    """The environment of world ``seed``'s interpreter.

    ``tokenize`` returns a frozenset, and the QRP match stops at the first
    token missing from a table, so how many ``qrp_hash`` calls a query
    costs follows the set's iteration order, which follows the string
    hash seed.  Tying that seed to the world makes every count repeat
    exactly for a given ``--seed``.
    """
    return dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))


def run_rep(workload: str, seed: int, mode: str, timeout: float) -> Rep:
    """Run one world in a fresh interpreter and scratch directory."""
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    command = [sys.executable, str(HERE / "rep.py"), workload, str(seed),
               str(workdir), mode]
    if mode == "trace":
        command.append(str(OUT / f"{workload}-spans.json"))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, env=world_env(seed))
        result_path = workdir / "result.json"
        if done.returncode != 0 or not result_path.exists():
            return Rep(mode, seed, None,
                       f"exit {done.returncode}: {done.stderr[-2000:]}")
        with result_path.open(encoding="utf-8") as handle:
            return Rep(mode, seed, json.load(handle), "")
    except subprocess.TimeoutExpired:
        return Rep(mode, seed, None, f"timed out after {timeout:.0f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_reps(workload: str, seeds, traced: bool):
    """Every world of the list, each untraced and, for traced runs, then
    traced; stops at the first world that fails."""
    modes = ("plain", "trace") if traced else ("plain",)
    began = time.monotonic()
    reps = []
    for seed in seeds:
        for mode in modes:
            left = HARD_LIMIT_S - (time.monotonic() - began)
            reps.append(run_rep(workload, seed, mode, max(1.0, left)))
            if reps[-1].result is None:
                return reps
    return reps


def judge(workload, seeds, reps, traced, reference):
    """Operations attempted and failed, and the problems behind failures."""
    expected = len(seeds) * (2 if traced else 1)
    attempted = expected * workload.campaigns
    failed = 0
    problems = []
    untraced = {rep.seed: rep.result["outputs"] for rep in reps
                if rep.mode == "plain" and rep.result is not None}
    for rep in reps:
        label = f"world {rep.seed} ({rep.mode})"
        if rep.result is None:
            failed += workload.campaigns
            problems.append(f"{label}: {rep.error}")
            continue
        outputs = rep.result["outputs"]
        bad = check_outputs(workload, rep.seed, outputs,
                            reference.get(str(rep.seed)))
        if rep.mode == "trace":
            if outputs != untraced.get(rep.seed):
                bad["run"] = ["outputs differ from the untraced run's"]
            bad.update(_check_trace(workload, rep.result))
        if bad:
            failed += (workload.campaigns
                       if "run" in bad or "trace" in bad else len(bad))
            for key, found in sorted(bad.items()):
                problems.extend(f"{label} {key}: {text}" for text in found)
    if len(reps) < expected:
        failed += (expected - len(reps)) * workload.campaigns
        problems.append(f"{expected - len(reps)} repetitions not run after "
                        f"a failed one")
    return attempted, min(failed, attempted), problems


def _check_trace(workload, result) -> dict:
    fired = result["fired"]
    bad = [f"wrapper {key} never fired" for key in sorted(workload.must_fire)
           if not fired.get(key)]
    bad += [f"wrapper {key} fired {fired[key]} times on a workload where "
            f"its layer does not run" for key in sorted(workload.must_not_fire)
            if fired.get(key)]
    layers = result["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    total += layers["unattributed_s"]
    if abs(total - layers["trace.wall_s"]) > 1e-6 * layers["trace.wall_s"]:
        bad.append(f"layer self times sum to {total!r}, traced wall is "
                   f"{layers['trace.wall_s']!r}")
    return {"trace": bad} if bad else {}


def _combined(reps, name) -> float:
    """One end-to-end figure from a run's worlds: the median of its
    set-ups, as the benchmark format asks of ``setup_s``, else the mean."""
    values = [rep.result[name] for rep in reps]
    return (statistics.median(values) if name == "setup_s"
            else statistics.fmean(values))


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and workloads."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def measure(spec, reps, traced: bool) -> dict:
    """The run's metrics, each ``{"value", "unit"}``, named as in
    ``spec``."""
    plain = [rep for rep in reps if rep.mode == "plain"]
    if not traced:
        return {metric["name"]: {"value": _combined(plain, metric["name"]),
                                 "unit": metric["unit"]}
                for metric in spec["end_to_end"]}
    traced_reps = [rep for rep in reps if rep.mode == "trace"]
    values = per_layer(combine([rep.result["layers"]
                                for rep in traced_reps]))
    values["trace.overhead_frac"] = (
        sum(rep.result["wall_clock_s"] for rep in traced_reps)
        / sum(rep.result["wall_clock_s"] for rep in plain) - 1.0)
    return {metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in spec["per_layer"]}


def write_reference(workload: str, seeds) -> int:
    """Pin the outputs of ``seeds``' worlds (a workload's whole pool),
    replacing the workload's earlier pins."""
    pins = {}
    for seed in seeds:
        rep = run_rep(workload, seed, "plain", HARD_LIMIT_S)
        if rep.result is None:
            print(f"error: world {rep.seed}: {rep.error}", file=sys.stderr)
            return 1
        pins[str(rep.seed)] = rep.result["outputs"]
    reference = load_reference() if REFERENCE_PATH.exists() else {}
    reference[workload] = pins
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                         sort_keys=True) + "\n")
    print(f"pinned {len(pins)} {workload} worlds in {REFERENCE_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    if args.write_reference:
        return write_reference(args.workload, pool(workload))
    seeds = worlds(workload, args.seed, args.seconds)

    spec = load_spec()
    traced = bool(args.trace)
    reps = run_reps(args.workload, seeds, traced)
    reference = load_reference() if REFERENCE_PATH.exists() else {}
    attempted, failed, problems = judge(
        workload, seeds, reps, traced, reference.get(args.workload, {}))
    complete = (len(reps) == len(seeds) * (2 if traced else 1)
                and all(rep.result is not None for rep in reps))
    metrics = measure(spec, reps, traced) if complete else {}

    print(f"workload {args.workload}, seed {args.seed}: worlds "
          f"{', '.join(map(str, seeds))}; {len(reps)} repetitions")
    for rep in reps:
        if rep.result is not None:
            print(f"  world {rep.seed} {rep.mode:5s}: " + ", ".join(
                f"{name} {rep.result[name]:.4f}" for name in WORLD_FIGURES))
    # a traced run also prints its untraced worlds' end-to-end metrics, so
    # it lists every metric; its JSON line keeps to the per-layer ones
    shown = (dict(measure(spec, reps, False), **metrics)
             if traced and complete else metrics)
    for name, metric in shown.items():
        print(f"  {name:34s} {metric['value']:14.6f} {metric['unit']}")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(f"  operations: {attempted} attempted, {failed} failed; "
          f"check {'passed' if not failed else 'FAILED'}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
