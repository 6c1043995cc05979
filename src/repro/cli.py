"""Command-line interface.

The subcommands mirror the study's workflow::

    repro-study run       --network both --days 1 --seed 2 --out data/
    repro-study run       --network limewire --telemetry-dir tel/ \
                          --serve-port 8000
    repro-study replicate --network limewire --seeds 8 --workers 4
    repro-study chaos     --quick
    repro-study analyze   data/limewire.jsonl --table all
    repro-study filter-eval data/limewire.jsonl
    repro-study lint      --strict
    repro-study doctor    checkpoints/ --repair

``run`` simulates the campaigns and writes raw measurement stores as
JSON-lines.  Its observers are flags: ``--telemetry-dir`` also writes
each campaign's Prometheus metrics, span chains, trace and JSONL run
journal (``tail -f`` the journal while it runs) and prints where the
kernel's wall time went, from the sampled callback histograms;
``--serve-port`` adds the live observability plane (HTML dashboard,
``/metrics``, journal tail, trace and hotspot endpoints).
``replicate`` runs the same campaign under several seeds (fanned out
over worker processes) and prints the headline-metric ranges;
``analyze`` recomputes any table/figure from a saved store (no
re-simulation); ``filter-eval`` compares the existing-Limewire
baseline against the size-based filter on a saved store.  To profile
a campaign, run the stdlib profiler over ``run``::

    python -m cProfile -s cumulative -m repro.cli run --network limewire

The last two are the correctness tooling: ``lint`` runs detlint (the
determinism & layering static-analysis pass) over ``src/``, and
``doctor`` verifies (and with ``--repair`` fixes) on-disk artifacts
after a crash -- reporting exactly what a checkpoint resume would
recover.  That same seed gives the same bits is checked by tests that
compare bits: the committed golden digests and the replay tests.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .core import reports
from .core.analysis import top_malware
from .core.filtering import (ExistingLimewireFilter, SizeBasedFilter,
                             evaluate_filters)
from .core.measure import CampaignConfig, MeasurementStore
from .core.measure.campaign import campaign_runner, default_profile
from .faults import SEVERITIES
from .malware.corpus import limewire_strains

__all__ = ["main", "build_parser"]

_TABLES = ("t1", "t2", "t3", "t4", "t5", "t6",
           "f1", "f2", "f3", "f4", "x1", "x2", "x3", "x4")


def _positive_float(text: str) -> float:
    """argparse type for lengths, scales, intervals, timeouts: finite, > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for seed and worker counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _port(text: str) -> int:
    """argparse type for a TCP port to serve on: an integer in 0-65535."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port in 0-65535, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The repro-study argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduce 'A study of malware in P2P networks' "
                    "(IMC 2006)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="simulate measurement campaigns and save raw stores")
    run.add_argument("--network", choices=("limewire", "openft", "both"),
                     default="both")
    run.add_argument("--days", type=_positive_float, default=1.0,
                     help="virtual days to measure (paper: 35)")
    run.add_argument("--seed", type=int, default=2)
    run.add_argument("--out", type=Path, default=Path("study_output"))
    run.add_argument("--scale", type=_positive_float, default=1.0,
                     help="population scale factor")
    run.add_argument("--telemetry-dir", type=Path, default=None,
                     help="instrument every campaign, write its journal, "
                          "spans, trace and metrics here and print its "
                          "kernel hotspots")
    run.add_argument("--serve-port", type=_port, default=None,
                     help="serve the campaigns live over HTTP while they "
                          "run (0 = ephemeral port; requires "
                          "--telemetry-dir)")
    run.add_argument("--host", default="127.0.0.1",
                     help="bind address for --serve-port")

    analyze = subparsers.add_parser(
        "analyze", help="recompute tables/figures from a saved store")
    analyze.add_argument("store", type=Path,
                         help="JSON-lines store written by 'run'")
    analyze.add_argument("--table", choices=_TABLES + ("all",),
                         default="all")
    analyze.add_argument("--days", type=_positive_float, default=1.0,
                         help="campaign length for T1 (informational)")

    replicate = subparsers.add_parser(
        "replicate",
        help="run a multi-seed replication campaign and print the "
             "mean/min/max of every headline metric")
    replicate.add_argument("--network", choices=("limewire", "openft"),
                           default="limewire")
    replicate.add_argument("--seeds", type=_positive_int, default=4,
                           help="number of replication seeds")
    replicate.add_argument("--base-seed", type=int, default=1,
                           help="first seed; replications use "
                                "base-seed..base-seed+seeds-1")
    replicate.add_argument("--days", type=_positive_float, default=1.0,
                           help="virtual days per replication")
    replicate.add_argument("--workers", type=_positive_int, default=None,
                           help="campaign processes to run in parallel, "
                                "each watched (default: one per CPU; 1 = "
                                "every seed in this process)")
    replicate.add_argument("--telemetry-dir", type=Path, default=None,
                           help="instrument every replication and write "
                                "per-seed journals/spans/metrics plus the "
                                "merged Prometheus textfile here")
    replicate.add_argument("--checkpoint", type=Path, default=None,
                           help="JSONL journal of completed seeds; an "
                                "interrupted campaign rerun with the same "
                                "path resumes instead of recomputing")
    replicate.add_argument("--serve-port", type=_port, default=None,
                           help="serve the fan-out live on one aggregated "
                                "observability endpoint (0 = ephemeral "
                                "port; requires --telemetry-dir)")
    replicate.add_argument("--host", default="127.0.0.1",
                           help="bind address for --serve-port")
    replicate.add_argument("--deadline", type=_positive_float,
                           default=None, metavar="SECONDS",
                           help="wall-clock budget per attempt of a worker "
                                "process (default: none)")
    replicate.add_argument("--stall-timeout", type=_positive_float,
                           default=60.0, metavar="SECONDS",
                           help="max heartbeat silence before a worker "
                                "process is declared wedged, killed, "
                                "requeued and quarantined (default: 60)")
    replicate.add_argument("--hang-seeds", type=int, nargs="*", default=None,
                           metavar="SEED",
                           help="chaos: inject a worker hang for these "
                                "seeds of the run (every attempt; the "
                                "watchdog must kill and quarantine them "
                                "-- needs 2+ workers)")

    doctor = subparsers.add_parser(
        "doctor",
        help="verify on-disk artifacts (checkpoints, journals, JSON "
             "exports): report what a resume would recover and, with "
             "--repair, truncate torn tails and quarantine corrupt "
             "records")
    doctor.add_argument("paths", type=Path, nargs="+",
                        help="artifact files or directories to examine")
    doctor.add_argument("--repair", action="store_true",
                        help="fix what can be fixed: truncate torn tails, "
                             "move corrupt records to a .quarantine side "
                             "file, delete stale atomic-write temp files")

    chaos = subparsers.add_parser(
        "chaos",
        help="experiment R1: sweep the graded fault envelopes over both "
             "networks and check the headline claims under stress")
    chaos.add_argument("--network", choices=("limewire", "openft", "both"),
                       default="both")
    chaos.add_argument("--severities", nargs="*", choices=SEVERITIES,
                       default=None,
                       help="severity rungs to sweep (default: all, "
                            "mildest first)")
    chaos.add_argument("--seeds", type=_positive_int, default=3,
                       help="replication seeds per (severity, network)")
    chaos.add_argument("--base-seed", type=int, default=1)
    chaos.add_argument("--days", type=_positive_float, default=0.25,
                       help="virtual days per campaign")
    chaos.add_argument("--scale", type=_positive_float, default=0.5,
                       help="population scale factor")
    chaos.add_argument("--workers", type=_positive_int, default=1,
                       help="campaign processes per replication cell")
    chaos.add_argument("--quick", action="store_true",
                       help="CI smoke preset: one seed, 0.1 days, scale "
                            "0.35, severities off+moderate")

    lint = subparsers.add_parser(
        "lint",
        help="run detlint: determinism rules (DET001-DET008), the "
             "layer-DAG check (LAY001/LAY002) and the concurrency lint "
             "(CONC001-CONC003) over src/")
    lint.add_argument("paths", type=Path, nargs="*",
                      help="files/directories to lint (default: the "
                           "configured package under src/)")
    lint.add_argument("--root", type=Path, default=None,
                      help="repo root holding pyproject.toml "
                           "(default: nearest ancestor of cwd)")
    lint.add_argument("--strict", action="store_true",
                      help="also fail on unused baseline entries")
    lint.add_argument("--sarif", type=Path, default=None, metavar="PATH",
                      help="additionally write the findings as a SARIF "
                           "2.1.0 log to PATH")
    lint.add_argument("--changed-only", action="store_true",
                      help="lint only files changed vs HEAD (plus "
                           "untracked); unused-baseline strictness is "
                           "skipped on the subset walk")
    lint.add_argument("--no-cache", action="store_true",
                      help="bypass the .detlint-cache/ result cache "
                           "(the cache never changes output, only "
                           "speed)")

    filter_eval = subparsers.add_parser(
        "filter-eval",
        help="compare existing vs size-based filtering on a saved store")
    filter_eval.add_argument("store", type=Path)
    filter_eval.add_argument("--top-n", type=int, default=3,
                             help="strains feeding the size dictionary")
    filter_eval.add_argument("--coverage", type=float, default=0.95,
                             help="per-strain size coverage target")

    export = subparsers.add_parser(
        "export", help="write every table/figure of a saved store as CSV")
    export.add_argument("store", type=Path)
    export.add_argument("--out", type=Path, default=Path("csv_output"))
    return parser


def _networks(choice: str) -> List[str]:
    """The campaigns a ``--network`` choice runs, Limewire first."""
    return [name for name in ("limewire", "openft")
            if choice in (name, "both")]


def _cmd_run(args: argparse.Namespace) -> int:
    config = CampaignConfig(seed=args.seed, duration_days=args.days)
    names = _networks(args.network)
    bundles = {}
    if args.telemetry_dir is not None:
        from .telemetry import CampaignTelemetry
        bundles = {name: CampaignTelemetry.for_directory(args.telemetry_dir,
                                                         name)
                   for name in names}
    server = None
    if args.serve_port is not None:
        from .telemetry.httpd import ObservatoryHub, TelemetryServer
        hub = ObservatoryHub(title=f"run ({args.network})")
        hub.set_status(seed=args.seed, days=args.days, scale=args.scale)
        for name, telemetry in bundles.items():
            hub.add_campaign(name, telemetry)
        server = TelemetryServer(hub, host=args.host,
                                 port=args.serve_port).start()
        print(f"observability endpoint: {server.url}")
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            print(f"running {name} campaign "
                  f"({args.days:g} virtual days, seed {args.seed})...")
            telemetry = bundles.get(name)
            result = campaign_runner(name)(
                config, profile=default_profile(name, args.scale),
                telemetry=telemetry)
            path = args.out / f"{name}.jsonl"
            count = result.store.save(path)
            print(f"  {count} responses -> {path}")
            if telemetry is not None:
                from .telemetry.profiler import HotspotReport
                written = telemetry.write_outputs(args.telemetry_dir, name)
                for kind, written_path in sorted(written.items()):
                    print(f"  {kind}: {written_path}")
                report = HotspotReport.from_registry(telemetry.registry)
                print(report.render())
    finally:
        if server is not None:
            server.stop()
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from .core.experiments import run_replications
    from .resilience import SupervisionPolicy, resolve_workers

    seeds = tuple(range(args.base_seed, args.base_seed + args.seeds))
    workers = resolve_workers(args.workers, len(seeds))
    config = CampaignConfig(duration_days=args.days)
    if args.hang_seeds:
        outside = sorted(set(args.hang_seeds) - set(seeds))
        if outside:
            print(f"error: --hang-seeds {outside} are not seeds of this "
                  f"run {list(seeds)}", file=sys.stderr)
            return 2
        if workers == 1:
            print("error: --hang-seeds needs 2+ workers: one worker runs "
                  "every seed in this process, where nothing can kill a "
                  "hang", file=sys.stderr)
            return 2
        from .faults import FaultPlan, WorkerHang
        # attempts=2: the retry hangs too, forcing the quarantine path
        config = replace(config, fault_plan=FaultPlan(
            worker_hang=WorkerHang(seeds=tuple(args.hang_seeds),
                                   attempts=2)))
    print(f"replicating {args.network} over seeds {list(seeds)} "
          f"({args.days:g} virtual days each, {workers} worker"
          f"{'s' if workers != 1 else ''}"
          f"{', watched' if workers > 1 else ''})...")
    kills = []
    report = run_replications(args.network, seeds, config,
                              workers=workers,
                              telemetry_dir=args.telemetry_dir,
                              checkpoint=args.checkpoint,
                              serve_port=args.serve_port,
                              serve_host=args.host,
                              on_serve=lambda url: print(
                                  f"observability endpoint: {url}"),
                              supervision=SupervisionPolicy(
                                  deadline_s=args.deadline,
                                  stall_timeout_s=args.stall_timeout),
                              on_kill=kills.append)
    for kill in kills:
        seed, attempt = kill.item
        print(f"supervisor: killed seed {seed} attempt {attempt} "
              f"(kill #{kill.kills}: {kill.reason}; "
              f"{'requeued' if kill.requeued else 'gave up'})")
    print(report.render())
    if report.telemetry_path is not None:
        print(f"\nmerged telemetry ({len(report.registry)} metrics) "
              f"-> {report.telemetry_path}")
    return 1 if report.degraded else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .core.chaos import run_fault_envelope

    if args.quick:
        severities = ("off", "moderate")
        seeds = (args.base_seed,)
        duration_days, scale = 0.1, 0.35
    else:
        severities = (tuple(args.severities) if args.severities
                      else SEVERITIES)
        seeds = tuple(range(args.base_seed, args.base_seed + args.seeds))
        duration_days, scale = args.days, args.scale
    networks = (("limewire", "openft") if args.network == "both"
                else (args.network,))
    print(f"chaos sweep: {list(networks)} x {list(severities)}, "
          f"seeds {list(seeds)}, {duration_days:g} virtual days, "
          f"scale {scale:g}...")
    report = run_fault_envelope(networks=networks, severities=severities,
                                seeds=seeds, duration_days=duration_days,
                                scale=scale, workers=args.workers)
    print(report.render())
    return 0 if report.ok else 1


def _find_repo_root(start: Optional[Path] = None) -> Path:
    """Nearest ancestor (of ``start`` or cwd) holding a pyproject.toml."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return current


def _changed_python_files(root: Path) -> Optional[List[Path]]:
    """Files changed vs HEAD plus untracked ones, or None outside git."""
    import subprocess

    commands = (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names: List[str] = []
    for command in commands:
        try:
            out = subprocess.run(command, cwd=root, capture_output=True,
                                 text=True, check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return None
        names.extend(line.strip() for line in out.splitlines()
                     if line.strip())
    return sorted({root / name for name in names
                   if name.endswith(".py") and (root / name).exists()})


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.detlint import (BaselineError, ConfigError, lint_repo,
                                   load_config, render_sarif)

    root = args.root if args.root is not None else _find_repo_root()
    paths = [Path(p) for p in args.paths] or None
    try:
        config = load_config(root)
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.changed_only:
        changed = _changed_python_files(root)
        if changed is None:
            print("error: --changed-only needs a git checkout",
                  file=sys.stderr)
            return 2
        # only files the full walk would cover (src/<package>/): tests
        # and tooling scripts are out of scope for detlint
        package_root = root / config.src / config.package
        changed = [path for path in changed
                   if package_root in path.parents]
        if not changed:
            print("detlint: no python files changed vs HEAD, "
                  "nothing to lint")
            return 0
        paths = changed
    try:
        result = lint_repo(root, paths=paths, config=config,
                           use_cache=not args.no_cache,
                           partial=args.changed_only)
    except BaselineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.sarif is not None:
        from .resilience import atomic_write_text
        atomic_write_text(args.sarif, render_sarif(result.findings))
        print(f"sarif log written to {args.sarif}")
    print(result.render(strict=args.strict))
    return result.exit_code(strict=args.strict)


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Exit 0 = all healthy, 1 = damage found (or repaired), 2 = usage."""
    from .resilience import run_doctor

    report = run_doctor(args.paths, repair=args.repair)
    print(report.render())
    if not report.artifacts:
        return 2
    # detection-only runs signal damage via the exit code; a repair run
    # exits 0 when everything it found could be fixed
    if not report.damaged:
        return 0
    return 0 if args.repair and report.ok else 1


def _render(store: MeasurementStore, table: str, days: float) -> str:
    if table == "t1":
        return reports.render_t1_summary([store], days)
    if table == "t2":
        return reports.render_t2_prevalence([store])
    if table == "t3":
        return reports.render_t3_top_malware(store)
    if table == "t4":
        rows = top_malware(store)
        top_strain = rows[0].name if rows else None
        return reports.render_t4_sources(store, top_strain=top_strain)
    if table == "t5":
        filters = [
            ExistingLimewireFilter.stale_blocklist(limewire_strains()),
            SizeBasedFilter.learn(store),
        ]
        return reports.render_t5_filters(evaluate_filters(filters, store))
    if table == "t6":
        return reports.render_t6_size_dictionary(store)
    if table == "f1":
        return reports.render_f1_rank_cdf(store)
    if table == "f2":
        return reports.render_f2_size_distribution(store)
    if table == "f3":
        return reports.render_f3_timeseries(store)
    if table == "f4":
        rows = top_malware(store)
        top_strain = rows[0].name if rows else None
        return reports.render_f4_host_cdf(store, top_strain)
    if table == "x1":
        return reports.render_x1_sample_census(store)
    if table == "x2":
        return reports.render_x2_availability(store)
    if table == "x3":
        return reports.render_x3_vendors(store)
    if table == "x4":
        return reports.render_x4_deployment(store)
    raise ValueError(f"unknown table {table!r}")


def _open_store(path: Path) -> Optional[MeasurementStore]:
    """The store saved at ``path``, or None once the error is printed."""
    if not path.exists():
        print(f"error: store {path} does not exist", file=sys.stderr)
        return None
    try:
        return MeasurementStore.load(path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _cmd_analyze(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    tables = _TABLES if args.table == "all" else (args.table,)
    for index, table in enumerate(tables):
        if index:
            print()
        try:
            print(_render(store, table, args.days))
        except ValueError as error:
            print(f"({table} unavailable: {error})")
    return 0


def _cmd_filter_eval(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    try:
        size_filter = SizeBasedFilter.learn(store, top_n=args.top_n,
                                            coverage=args.coverage)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    filters = [
        ExistingLimewireFilter.stale_blocklist(limewire_strains()),
        size_filter,
    ]
    print(reports.render_t5_filters(evaluate_filters(filters, store)))
    print(f"\nsize dictionary ({len(size_filter)} entries): "
          f"{sorted(size_filter.blocked_sizes)}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    from .core.export import export_all

    written = export_all(store, args.out)
    for experiment_id, path in sorted(written.items()):
        print(f"{experiment_id}: {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    # run and replicate serve what their telemetry bundles record
    if (getattr(args, "serve_port", None) is not None
            and args.telemetry_dir is None):
        print("error: --serve-port requires --telemetry-dir",
              file=sys.stderr)
        return 2
    handlers = {"run": _cmd_run, "analyze": _cmd_analyze,
                "replicate": _cmd_replicate, "chaos": _cmd_chaos,
                "filter-eval": _cmd_filter_eval, "export": _cmd_export,
                "lint": _cmd_lint, "doctor": _cmd_doctor}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
