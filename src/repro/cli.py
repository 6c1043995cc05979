"""Command-line interface.

The subcommands mirror the study's workflow::

    repro-study run       --network both --days 1 --seed 2 --out data/
    repro-study replicate --network limewire --seeds 8 --workers 4
    repro-study chaos     --quick
    repro-study analyze   data/limewire.jsonl --table all
    repro-study filter-eval data/limewire.jsonl
    repro-study telemetry --network limewire --days 1 --out telemetry/
    repro-study serve     --network limewire --days 1 --port 8000
    repro-study hotspots  --network limewire --days 0.1
    repro-study lint      --strict
    repro-study selfcheck --seeds 2
    repro-study doctor    checkpoints/ --repair

``run`` simulates the campaigns and writes raw measurement stores as
JSON-lines; ``replicate`` runs the same campaign under several seeds
(fanned out over worker processes) and prints the headline-metric
ranges; ``serve`` runs an instrumented campaign with the live
observability plane attached (HTML dashboard, ``/metrics``, journal
tail, trace and hotspot endpoints -- also available on ``replicate``
and ``telemetry`` via ``--serve-port``); ``hotspots`` prints where the
kernel's wall time went, from the always-on sampled callback
histograms; ``analyze`` recomputes any table/figure from a saved store
(no re-simulation); ``filter-eval`` compares the existing-Limewire
baseline against the size-based filter on a saved store; ``telemetry``
runs a fully instrumented campaign and dumps its Prometheus metrics,
span chains and JSONL run journal (``tail -f`` the journal while it
runs).

The last three are the correctness tooling: ``lint`` runs detlint (the
determinism & layering static-analysis pass) over ``src/``,
``selfcheck`` proves at runtime that same-seed campaigns replay to
identical event-stream digests with the entropy sanitizer armed, and
``doctor`` verifies (and with ``--repair`` fixes) on-disk artifacts
after a crash -- reporting exactly what a checkpoint resume would
recover.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from .core import reports
from .core.analysis import top_malware
from .core.filtering import (ExistingLimewireFilter, SizeBasedFilter,
                             evaluate_filters)
from .core.measure import (CampaignConfig, MeasurementStore,
                           run_limewire_campaign, run_openft_campaign)
from .faults import SEVERITIES
from .malware.corpus import limewire_strains

__all__ = ["main", "build_parser"]

_TABLES = ("t1", "t2", "t3", "t4", "t5", "t6",
           "f1", "f2", "f3", "f4", "x1", "x2", "x3", "x4")


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
    run.add_argument("--days", type=float, default=1.0,
                     help="virtual days to measure (paper: 35)")
    run.add_argument("--seed", type=int, default=2)
    run.add_argument("--out", type=Path, default=Path("study_output"))

    analyze = subparsers.add_parser(
        "analyze", help="recompute tables/figures from a saved store")
    analyze.add_argument("store", type=Path,
                         help="JSON-lines store written by 'run'")
    analyze.add_argument("--table", choices=_TABLES + ("all",),
                         default="all")
    analyze.add_argument("--days", type=float, default=1.0,
                         help="campaign length for T1 (informational)")

    replicate = subparsers.add_parser(
        "replicate",
        help="run a multi-seed replication campaign and print the "
             "mean/min/max of every headline metric")
    replicate.add_argument("--network", choices=("limewire", "openft"),
                           default="limewire")
    replicate.add_argument("--seeds", type=int, default=4,
                           help="number of replication seeds")
    replicate.add_argument("--base-seed", type=int, default=1,
                           help="first seed; replications use "
                                "base-seed..base-seed+seeds-1")
    replicate.add_argument("--days", type=float, default=1.0,
                           help="virtual days per replication")
    replicate.add_argument("--workers", type=int, default=None,
                           help="campaign processes to run in parallel "
                                "(default: one per CPU; 1 = serial)")
    replicate.add_argument("--shards", type=int, default=1,
                           help="kernel shards per campaign (default 1 = "
                                "the plain single-process kernel; N >= 2 "
                                "partitions each seed's overlay into N "
                                "conservative-window shards)")
    replicate.add_argument("--shard-executor",
                           choices=("auto", "serial", "process"),
                           default="auto",
                           help="how shards execute: forked worker "
                                "processes, in-process serial twin, or "
                                "auto-pick by host (results are identical "
                                "either way)")
    replicate.add_argument("--telemetry-dir", type=Path, default=None,
                           help="instrument every replication and write "
                                "per-seed journals/spans/metrics plus the "
                                "merged Prometheus textfile here")
    replicate.add_argument("--sanitize", action="store_true",
                           help="arm the runtime determinism sanitizer in "
                                "every replication (forbidden entropy "
                                "sources abort the run)")
    replicate.add_argument("--checkpoint", type=Path, default=None,
                           help="JSONL journal of completed seeds; an "
                                "interrupted campaign rerun with the same "
                                "path resumes instead of recomputing")
    replicate.add_argument("--journal-interval", type=float, default=None,
                           help="virtual seconds between journal snapshots "
                                "(default: horizon/100 clamped to "
                                "[1s, 3600s]; pass 3600 for the fixed "
                                "hourly cadence)")
    replicate.add_argument("--serve-port", type=int, default=None,
                           help="serve the fan-out live on one aggregated "
                                "observability endpoint (0 = ephemeral "
                                "port; requires --telemetry-dir)")
    replicate.add_argument("--supervise", action="store_true",
                           help="run workers under heartbeat supervision: "
                                "hung or stalled workers are killed, "
                                "requeued with backoff, and quarantined "
                                "instead of blocking the campaign")
    replicate.add_argument("--deadline", type=float, default=300.0,
                           metavar="SECONDS",
                           help="wall-clock budget per supervised attempt "
                                "(default: 300)")
    replicate.add_argument("--stall-timeout", type=float, default=60.0,
                           metavar="SECONDS",
                           help="max heartbeat silence before a supervised "
                                "worker is declared wedged (default: 60)")
    replicate.add_argument("--hang-seeds", type=int, nargs="*", default=None,
                           metavar="SEED",
                           help="chaos: inject a worker hang for these "
                                "seeds (every attempt; the supervisor must "
                                "kill and quarantine them -- requires "
                                "--supervise)")

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
    chaos.add_argument("--seeds", type=int, default=3,
                       help="replication seeds per (severity, network)")
    chaos.add_argument("--base-seed", type=int, default=1)
    chaos.add_argument("--days", type=float, default=0.25,
                       help="virtual days per campaign")
    chaos.add_argument("--scale", type=float, default=0.5,
                       help="population scale factor")
    chaos.add_argument("--workers", type=int, default=1,
                       help="campaign processes per replication cell")
    chaos.add_argument("--sanitize", action="store_true",
                       help="arm the determinism sanitizer inside every "
                            "faulted campaign")
    chaos.add_argument("--quick", action="store_true",
                       help="CI smoke preset: one seed, 0.1 days, scale "
                            "0.35, severities off+moderate")

    telemetry = subparsers.add_parser(
        "telemetry",
        help="run an instrumented campaign and dump metrics, spans and "
             "the run journal")
    telemetry.add_argument("--network",
                           choices=("limewire", "openft", "both"),
                           default="limewire")
    telemetry.add_argument("--days", type=float, default=1.0,
                           help="virtual days to measure")
    telemetry.add_argument("--seed", type=int, default=2)
    telemetry.add_argument("--out", type=Path,
                           default=Path("telemetry_output"),
                           help="directory for <network>_metrics.prom, "
                                "<network>_spans.jsonl and "
                                "<network>_journal.jsonl")
    telemetry.add_argument("--journal-interval", type=float, default=None,
                           help="virtual seconds between journal snapshots "
                                "(default: horizon/100 clamped to "
                                "[1s, 3600s]; pass 3600 for the fixed "
                                "hourly cadence of earlier runs)")
    telemetry.add_argument("--sample-every", type=int, default=64,
                           help="sample one in N event callbacks for "
                                "wall-time histograms")
    telemetry.add_argument("--serve-port", type=int, default=None,
                           help="also expose the campaign(s) live over "
                                "HTTP while they run (0 = ephemeral port)")

    serve = subparsers.add_parser(
        "serve",
        help="run an instrumented campaign with the live observability "
             "plane: HTML dashboard, /metrics, journal tail, trace and "
             "hotspot endpoints")
    serve.add_argument("--network", choices=("limewire", "openft"),
                       default="limewire")
    serve.add_argument("--days", type=float, default=1.0,
                       help="virtual days to measure")
    serve.add_argument("--seed", type=int, default=2)
    serve.add_argument("--scale", type=float, default=1.0,
                       help="population scale factor")
    serve.add_argument("--port", type=int, default=8000,
                       help="HTTP port (0 = ephemeral)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--out", type=Path, default=Path("serve_output"),
                       help="directory for the journal and final outputs")
    serve.add_argument("--journal-interval", type=float, default=None,
                       help="virtual seconds between journal snapshots "
                            "(default: horizon/100 clamped to [1s, 3600s])")
    serve.add_argument("--sample-every", type=int, default=64,
                       help="sample one in N event callbacks for "
                            "wall-time histograms")
    serve.add_argument("--linger", type=float, default=0.0,
                       help="keep serving this many wall seconds after "
                            "the campaign finishes (browse the final "
                            "state; ctrl-C to stop early)")
    serve.add_argument("--verify", action="store_true",
                       help="prove the server is off the hot path: scrape "
                            "/healthz and /metrics from a background "
                            "thread mid-run, then re-run server-off and "
                            "assert the event digest and store sha256 "
                            "are identical")

    hotspots = subparsers.add_parser(
        "hotspots",
        help="per-label kernel hotspot report from the sampled callback "
             "wall-time histograms (run a campaign, or read a saved "
             "registry snapshot)")
    hotspots.add_argument("--network", choices=("limewire", "openft"),
                          default="limewire")
    hotspots.add_argument("--days", type=float, default=0.1,
                          help="virtual days to simulate")
    hotspots.add_argument("--seed", type=int, default=2)
    hotspots.add_argument("--scale", type=float, default=0.35,
                          help="population scale factor")
    hotspots.add_argument("--sample-every", type=int, default=64,
                          help="sample one in N event callbacks")
    hotspots.add_argument("--top", type=int, default=15,
                          help="hotspot rows to print")
    hotspots.add_argument("--json", type=Path, default=None,
                          help="also write the machine-readable report "
                               "here")
    hotspots.add_argument("--snapshot", type=Path, default=None,
                          help="build the report from a saved registry "
                               "snapshot JSON (e.g. a served "
                               "/snapshot.json body) instead of running "
                               "a campaign")

    lint = subparsers.add_parser(
        "lint",
        help="run detlint: determinism rules (DET001-DET008), the "
             "layer-DAG check (LAY001/LAY002), the twin-drift check "
             "(TWN001) and the concurrency lint (CONC001-CONC003) "
             "over src/")
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
                           "untracked); cross-file twin checks and "
                           "unused-baseline strictness are skipped on "
                           "the subset walk")
    lint.add_argument("--no-cache", action="store_true",
                      help="bypass the .detlint-cache/ result cache "
                           "(the cache never changes output, only "
                           "speed)")

    selfcheck = subparsers.add_parser(
        "selfcheck",
        help="prove determinism at runtime: same-seed campaigns must "
             "produce identical event-stream digests under the armed "
             "entropy sanitizer")
    selfcheck.add_argument("--network", choices=("limewire", "openft"),
                           default="limewire")
    selfcheck.add_argument("--seeds", type=int, default=2,
                           help="number of seeds to twin-run")
    selfcheck.add_argument("--base-seed", type=int, default=1)
    selfcheck.add_argument("--days", type=float, default=0.1,
                           help="virtual days per campaign (small: the "
                                "check runs 2 campaigns per seed)")
    selfcheck.add_argument("--scale", type=float, default=0.35,
                           help="population scale factor for the check "
                                "worlds")
    selfcheck.add_argument("--no-sanitize", action="store_true",
                           help="compare digests without arming the "
                                "entropy sanitizer")
    selfcheck.add_argument("--shard-equivalence", action="store_true",
                           help="additionally prove the sharded kernel's "
                                "contract for every seed: shards=1 (plain "
                                "and forced through the window loop) is "
                                "bit-identical to the single-process "
                                "kernel, and N-shard stores are invariant "
                                "in N")
    selfcheck.add_argument("--lock-order", action="store_true",
                           help="instead of the digest check, record "
                                "every lock acquisition while a "
                                "telemetry server is scraped during a "
                                "tiny campaign and fail on lock-order "
                                "cycles")

    profile = subparsers.add_parser(
        "profile",
        help="run one campaign under cProfile and print the top "
             "cumulative hotspots")
    profile.add_argument("network", choices=("limewire", "openft"))
    profile.add_argument("--days", type=float, default=0.1,
                         help="virtual days to simulate")
    profile.add_argument("--seed", type=int, default=2)
    profile.add_argument("--scale", type=float, default=0.35,
                         help="population scale factor")
    profile.add_argument("--top", type=int, default=25,
                         help="hotspot rows to print")
    profile.add_argument("--out", type=Path, default=None,
                         help="also dump the raw pstats data here "
                              "(loadable with pstats.Stats)")

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


def _cmd_run(args: argparse.Namespace) -> int:
    config = CampaignConfig(seed=args.seed, duration_days=args.days)
    args.out.mkdir(parents=True, exist_ok=True)
    campaigns = []
    if args.network in ("limewire", "both"):
        campaigns.append(("limewire", run_limewire_campaign))
    if args.network in ("openft", "both"):
        campaigns.append(("openft", run_openft_campaign))
    for name, runner in campaigns:
        print(f"running {name} campaign "
              f"({args.days:g} virtual days, seed {args.seed})...")
        result = runner(config)
        path = args.out / f"{name}.jsonl"
        count = result.store.save(path)
        print(f"  {count} responses -> {path}")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from .core.experiments import run_replications
    from .core.parallel import resolve_workers

    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    if args.serve_port is not None and args.telemetry_dir is None:
        print("error: --serve-port requires --telemetry-dir",
              file=sys.stderr)
        return 2
    if args.hang_seeds and not args.supervise:
        print("error: --hang-seeds requires --supervise (an unsupervised "
              "pool would hang forever)", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    seeds = tuple(range(args.base_seed, args.base_seed + args.seeds))
    workers = resolve_workers(args.workers, len(seeds))
    config = CampaignConfig(duration_days=args.days, shards=args.shards)
    supervision = None
    if args.supervise:
        from .resilience import SupervisionPolicy
        supervision = SupervisionPolicy(
            deadline_s=args.deadline,
            stall_timeout_s=args.stall_timeout,
            heartbeat_s=min(1.0, args.stall_timeout / 2.0))
    if args.hang_seeds:
        from .faults import FaultPlan, WorkerHang
        # attempts=2: the retry hangs too, forcing the quarantine path
        config = replace(config, fault_plan=FaultPlan(
            worker_hang=WorkerHang(seeds=tuple(args.hang_seeds),
                                   attempts=2)))
    print(f"replicating {args.network} over seeds {list(seeds)} "
          f"({args.days:g} virtual days each, {workers} worker"
          f"{'s' if workers != 1 else ''}"
          f"{', supervised' if supervision else ''}"
          + (f", {args.shards} kernel shards" if args.shards > 1 else "")
          + ")...")
    kills = []
    report = run_replications(args.network, seeds, config,
                              workers=workers,
                              telemetry_dir=args.telemetry_dir,
                              sanitize=args.sanitize,
                              checkpoint=args.checkpoint,
                              journal_interval_s=args.journal_interval,
                              serve_port=args.serve_port,
                              on_serve=lambda url: print(
                                  f"observability endpoint: {url}"),
                              supervision=supervision,
                              on_kill=kills.append,
                              shard_executor=args.shard_executor)
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

    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
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
                                scale=scale, workers=args.workers,
                                sanitize=args.sanitize)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from .telemetry import CampaignTelemetry

    config = CampaignConfig(seed=args.seed, duration_days=args.days)
    campaigns = []
    if args.network in ("limewire", "both"):
        campaigns.append(("limewire", run_limewire_campaign))
    if args.network in ("openft", "both"):
        campaigns.append(("openft", run_openft_campaign))
    bundles = {
        name: CampaignTelemetry.for_directory(
            args.out, name, journal_interval_s=args.journal_interval,
            sample_every=args.sample_every)
        for name, _runner in campaigns}
    server = None
    if args.serve_port is not None:
        from .telemetry.httpd import ObservatoryHub, TelemetryServer
        hub = ObservatoryHub(title=f"telemetry ({args.network})")
        hub.set_status(seed=args.seed, days=args.days)
        for name, telemetry in bundles.items():
            hub.add_campaign(name, telemetry)
        server = TelemetryServer(hub, port=args.serve_port).start()
        print(f"observability endpoint: {server.url}")
    try:
        for name, runner in campaigns:
            telemetry = bundles[name]
            print(f"running instrumented {name} campaign "
                  f"({args.days:g} virtual days, seed {args.seed})...")
            print(f"  journal: tail -f {telemetry.journal.path}")
            result = runner(config, telemetry=telemetry)
            written = telemetry.write_outputs(args.out, name)
            registry, tracer = telemetry.registry, telemetry.tracer
            events = registry.get("sim_events_total")
            print(f"  {len(result.store)} responses, "
                  f"{int(events.value) if events else 0} kernel events, "
                  f"{result.engine.cache_hit_rate:.1%} scan cache hit rate")
            print(f"  {len(registry.metric_names())} metrics, "
                  f"{len(tracer)} spans "
                  f"({len(tracer.spans('query'))} query chains)")
            for kind, path in sorted(written.items()):
                print(f"  {kind}: {path}")
    finally:
        if server is not None:
            server.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading
    import urllib.request

    from .core.measure.campaign import default_profile
    from .telemetry import CampaignTelemetry
    from .telemetry.httpd import ObservatoryHub, TelemetryServer

    runner = (run_limewire_campaign if args.network == "limewire"
              else run_openft_campaign)
    population = default_profile(args.network, args.scale)
    config = CampaignConfig(seed=args.seed, duration_days=args.days)
    telemetry = CampaignTelemetry.for_directory(
        args.out, args.network, journal_interval_s=args.journal_interval,
        sample_every=args.sample_every)
    digest = None
    if args.verify:
        # deferred on purpose: devtools sits above core in the layer
        # DAG and only opt-in verification reaches up into it
        from .devtools.selfcheck import EventDigest
        digest = EventDigest()
        telemetry.kernel.on_event = digest.on_event

    hub = ObservatoryHub(title=f"{args.network} campaign")
    hub.set_status(network=args.network, seed=args.seed, days=args.days,
                   scale=args.scale)
    hub.add_campaign(args.network, telemetry)
    server = TelemetryServer(hub, host=args.host, port=args.port).start()
    print(f"serving {server.url} (dashboard; /metrics, /healthz, "
          f"/snapshot.json, /journal, /trace.json, /hotspots.json)")

    scraped = {"healthz": 0, "metrics": 0}
    stop_scraping = threading.Event()

    def scrape_loop() -> None:
        # the --verify scraper: hammer the endpoints while the campaign
        # runs so the digest comparison below covers concurrent reads
        while not stop_scraping.is_set():
            for route in ("healthz", "metrics"):
                try:
                    with urllib.request.urlopen(server.url + route,
                                                timeout=5) as response:
                        if response.status == 200:
                            scraped[route] += 1
                except OSError:
                    pass
            stop_scraping.wait(0.2)

    scraper = None
    if args.verify:
        scraper = threading.Thread(target=scrape_loop, daemon=True)
        scraper.start()
    try:
        print(f"running {args.network} campaign ({args.days:g} virtual "
              f"days, seed {args.seed}, scale {args.scale:g})...")
        result = runner(config, profile=population, telemetry=telemetry)
        written = telemetry.write_outputs(args.out, args.network)
        print(f"  {len(result.store)} responses collected")
        for kind, path in sorted(written.items()):
            print(f"  {kind}: {path}")
        if args.linger > 0:
            print(f"serving final state for {args.linger:g}s more "
                  f"at {server.url} ...")
            try:
                threading.Event().wait(args.linger)
            except KeyboardInterrupt:
                pass
    finally:
        stop_scraping.set()
        if scraper is not None:
            scraper.join(timeout=5)
        server.stop()

    if not args.verify:
        return 0
    print(f"verify: scraped /healthz x{scraped['healthz']}, "
          f"/metrics x{scraped['metrics']} during the run")
    if not scraped["healthz"] or not scraped["metrics"]:
        print("error: verify run finished before both endpoints were "
              "scraped; use a longer --days", file=sys.stderr)
        return 1
    from .devtools.selfcheck import EventDigest
    baseline_digest = EventDigest()
    baseline_telemetry = CampaignTelemetry.for_directory(
        args.out, f"{args.network}_serveroff",
        journal_interval_s=args.journal_interval,
        sample_every=args.sample_every)
    baseline_telemetry.kernel.on_event = baseline_digest.on_event
    print("verify: re-running the same campaign with the server off...")
    baseline = runner(config, profile=population,
                      telemetry=baseline_telemetry)
    digest_ok = digest.hexdigest() == baseline_digest.hexdigest()
    store_ok = (result.store.content_digest()
                == baseline.store.content_digest())
    print(f"  event digest: {'identical' if digest_ok else 'DIVERGED'}")
    print(f"  store sha256: {'identical' if store_ok else 'DIVERGED'}")
    return 0 if digest_ok and store_ok else 1


def _cmd_hotspots(args: argparse.Namespace) -> int:
    from .telemetry.profiler import HotspotReport

    if args.snapshot is not None:
        import json as _json
        if not args.snapshot.exists():
            print(f"error: snapshot {args.snapshot} does not exist",
                  file=sys.stderr)
            return 2
        report = HotspotReport.from_snapshot(
            _json.loads(args.snapshot.read_text(encoding="utf-8")))
    else:
        from .core.measure.campaign import default_profile
        from .telemetry import CampaignTelemetry
        runner = (run_limewire_campaign if args.network == "limewire"
                  else run_openft_campaign)
        population = default_profile(args.network, args.scale)
        config = CampaignConfig(seed=args.seed, duration_days=args.days)
        telemetry = CampaignTelemetry(sample_every=args.sample_every)
        print(f"profiling {args.network} campaign ({args.days:g} virtual "
              f"days, seed {args.seed}, scale {args.scale:g}, 1-in-"
              f"{args.sample_every} callback sampling)...")
        runner(config, profile=population, telemetry=telemetry)
        report = HotspotReport.from_registry(telemetry.registry)
    print(report.render(top=args.top))
    if args.json is not None:
        report.to_json(args.json)
        print(f"\nmachine-readable report -> {args.json}")
    return 0


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
    from .devtools.detlint import (BaselineError, lint_repo, load_config,
                                   render_sarif)

    root = args.root if args.root is not None else _find_repo_root()
    paths = [Path(p) for p in args.paths] or None
    if args.changed_only:
        changed = _changed_python_files(root)
        if changed is None:
            print("error: --changed-only needs a git checkout",
                  file=sys.stderr)
            return 2
        # only files the full walk would cover (src/<package>/): tests
        # and tooling scripts are out of scope for detlint
        config = load_config(root)
        package_root = root / config.src / config.package
        changed = [path for path in changed
                   if package_root in path.parents]
        if not changed:
            print("detlint: no python files changed vs HEAD, "
                  "nothing to lint")
            return 0
        paths = changed
    try:
        result = lint_repo(root, paths=paths,
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


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from .devtools.selfcheck import run_selfcheck

    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    if args.lock_order:
        from .devtools.selfcheck import run_lock_order_check

        report = run_lock_order_check(network=args.network,
                                      seed=args.base_seed,
                                      days=min(args.days, 0.05),
                                      scale=args.scale)
        print(report.render())
        return 0 if report.ok else 1
    seeds = tuple(range(args.base_seed, args.base_seed + args.seeds))
    print(f"selfcheck: {args.network}, seeds {list(seeds)}, "
          f"{args.days:g} virtual days per run, sanitizer "
          f"{'off' if args.no_sanitize else 'armed'}...")
    report = run_selfcheck(network=args.network, seeds=seeds,
                           days=args.days, scale=args.scale,
                           sanitize=not args.no_sanitize)
    print(report.render())
    ok = report.ok
    if args.shard_equivalence:
        from .devtools.selfcheck import run_shard_equivalence_check
        print("\nsharded kernel vs plain kernel equivalence:")
        for seed in seeds:
            shard_check = run_shard_equivalence_check(
                network=args.network, seed=seed,
                days=min(args.days, 0.05), scale=args.scale,
                sanitize=not args.no_sanitize)
            print(shard_check.render())
            ok = ok and shard_check.ok
    return 0 if ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import pstats

    from .core.measure.campaign import default_profile

    if args.network == "limewire":
        runner = run_limewire_campaign
    else:
        runner = run_openft_campaign
    population = default_profile(args.network, args.scale)
    config = CampaignConfig(seed=args.seed, duration_days=args.days)
    print(f"profiling {args.network} campaign ({args.days:g} virtual "
          f"days, seed {args.seed}, scale {args.scale:g})...")
    profiler = cProfile.Profile()
    result = profiler.runcall(runner, config, profile=population)
    print(f"  {len(result.store)} responses collected\n")
    stats = pstats.Stats(profiler)
    rows = []
    for func, (_cc, ncalls, tottime, cumtime, _callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        rows.append((cumtime, tottime, ncalls,
                     pstats.func_std_string(func)))
    # primary key: cumulative time, descending.  Ties (and there are
    # many at 0.000) break on the qualified function name so the
    # listing is stable run to run.
    rows.sort(key=lambda row: (-row[0], row[3]))
    total = sum(row[1] for row in rows)
    print(f"{'cumtime':>10} {'tottime':>10} {'ncalls':>10}  function "
          f"(total {total:.3f}s, top {args.top} by cumulative time)")
    for cumtime, tottime, ncalls, name in rows[:args.top]:
        print(f"{cumtime:>10.4f} {tottime:>10.4f} {ncalls:>10d}  {name}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(str(args.out))
        print(f"\nraw pstats dump -> {args.out}")
    return 0


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
    handlers = {"run": _cmd_run, "analyze": _cmd_analyze,
                "replicate": _cmd_replicate, "chaos": _cmd_chaos,
                "filter-eval": _cmd_filter_eval, "export": _cmd_export,
                "telemetry": _cmd_telemetry, "profile": _cmd_profile,
                "serve": _cmd_serve, "hotspots": _cmd_hotspots,
                "lint": _cmd_lint, "selfcheck": _cmd_selfcheck,
                "doctor": _cmd_doctor}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
