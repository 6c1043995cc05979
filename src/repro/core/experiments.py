"""Multi-seed experiment runner: reproducibility across worlds.

One campaign is one random world; the reproduction's claims should hold
across worlds.  :func:`run_replications` runs the same configuration
under several seeds, collects every headline metric per seed, and
aggregates mean / min / max -- the numbers EXPERIMENTS.md quotes as
"seed-dependent" ranges.
"""

from __future__ import annotations

import functools
import hashlib
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults import InjectedWorkerCrash
from ..resilience import (DurableAppender, HostIntervention,
                          SupervisionPolicy, atomic_write_text,
                          recover_frames, resolve_workers, supervised_map)
from ..telemetry.registry import MetricRegistry
from ..telemetry.runtime import CampaignTelemetry
from .analysis.concentration import top_n_share
from .analysis.prevalence import compute_prevalence
from .analysis.sources import address_breakdown
from .measure.campaign import CampaignConfig, CampaignResult, campaign_runner

__all__ = ["MetricSummary", "ReplicationReport", "HEADLINE_METRICS",
           "SeedFailure", "CheckpointJournal", "replicate_one",
           "run_replications"]

MetricFn = Callable[[CampaignResult], float]

#: The headline metrics, by network.
HEADLINE_METRICS: Dict[str, Dict[str, MetricFn]] = {
    "limewire": {
        "prevalence": lambda result: compute_prevalence(
            result.store).fraction,
        "top3_share": lambda result: top_n_share(result.store, 3),
        "private_share": lambda result: address_breakdown(
            result.store).fraction("private"),
    },
    "openft": {
        "prevalence": lambda result: compute_prevalence(
            result.store).fraction,
        "top3_share": lambda result: top_n_share(result.store, 3),
    },
}


@dataclass(frozen=True)
class MetricSummary:
    """One metric across replications."""

    name: str
    values: tuple

    @property
    def mean(self) -> float:
        """Average across seeds."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def low(self) -> float:
        """Worst-case low across seeds."""
        return min(self.values) if self.values else 0.0

    @property
    def high(self) -> float:
        """Worst-case high across seeds."""
        return max(self.values) if self.values else 0.0

    def within(self, low: float, high: float) -> bool:
        """True when every replication landed inside [low, high]."""
        return all(low <= value <= high for value in self.values)


@dataclass(frozen=True)
class SeedFailure:
    """One replication seed that failed its attempt *and* its retry."""

    seed: int
    attempts: int
    error: str


@dataclass(frozen=True)
class ReplicationReport:
    """All metrics for one network across seeds."""

    network: str
    seeds: tuple
    metrics: Dict[str, MetricSummary]
    #: merged per-worker telemetry (set when telemetry_dir was given)
    registry: Optional[MetricRegistry] = None
    #: where the merged Prometheus textfile was written, if anywhere
    telemetry_path: Optional[Path] = None
    #: seeds whose campaigns actually completed (== ``seeds`` unless
    #: the run degraded)
    completed_seeds: tuple = ()
    #: True when at least one seed was quarantined after its retry;
    #: the metrics then summarize the surviving seeds only
    degraded: bool = False
    failures: Tuple[SeedFailure, ...] = ()

    def render(self) -> str:
        """Text table of the replication results."""
        lines = [f"replications ({self.network}, seeds {list(self.seeds)})",
                 f"{'metric':<15s} {'mean':>7s} {'min':>7s} {'max':>7s}"]
        for name, summary in self.metrics.items():
            lines.append(f"{name:<15s} {summary.mean:7.1%} "
                         f"{summary.low:7.1%} {summary.high:7.1%}")
        if self.degraded:
            dead = [failure.seed for failure in self.failures]
            lines.append(f"DEGRADED: seeds {dead} quarantined after retry; "
                         f"metrics cover {len(self.completed_seeds)}/"
                         f"{len(self.seeds)} seeds")
        return "\n".join(lines)


def replicate_one(network: str, config: CampaignConfig, profile,
                  seed: int, telemetry_dir: Optional[Path] = None,
                  attempt: int = 0):
    """Run one seed's campaign and return its headline metric values.

    Top-level (and therefore picklable) on purpose: this is the unit of
    work the parallel runner ships to worker processes.  Only the small
    metric dict crosses the process boundary -- campaign results hold a
    live simulator full of closures and never need to be pickled.

    With ``telemetry_dir`` the campaign runs fully instrumented: the
    journal/spans/metrics for this seed land in that directory (named
    ``<network>_seed<seed>_*``), and the return value becomes a
    ``(metrics, registry_snapshot)`` pair so the parent process can
    merge every worker's registry.
    """
    if network not in HEADLINE_METRICS:
        raise ValueError(f"unknown network {network!r}")
    crash = config.fault_plan.worker_crash if config.fault_plan else None
    if crash is not None and crash.should_crash(seed, attempt):
        raise InjectedWorkerCrash(
            f"injected worker crash: seed {seed}, attempt {attempt}")
    runner = campaign_runner(network)
    telemetry = None
    if telemetry_dir is not None:
        telemetry = CampaignTelemetry.for_directory(
            Path(telemetry_dir), f"{network}_seed{seed}")
    result = runner(replace(config, seed=seed), profile=profile,
                    telemetry=telemetry)
    metrics = {name: metric(result)
               for name, metric in HEADLINE_METRICS[network].items()}
    if telemetry is None:
        return metrics
    telemetry.write_outputs(Path(telemetry_dir), f"{network}_seed{seed}")
    return metrics, telemetry.registry.snapshot()


@dataclass(frozen=True)
class _SeedOutcome:
    """What one guarded replication attempt reported back.

    Plain picklable fields only: outcomes cross the process boundary.
    """

    seed: int
    attempt: int
    ok: bool
    metrics: Optional[dict] = None
    snapshot: Optional[dict] = None
    error: str = ""


def _guarded_replicate(network: str, config: CampaignConfig, profile,
                       seed_attempt, telemetry_dir=None) -> _SeedOutcome:
    """Run one seed, converting any crash into a reportable outcome.

    Top-level and picklable, like :func:`replicate_one`.  A worker
    exception must never take the whole campaign down with it -- it
    comes back as ``ok=False`` with the traceback, and the parent
    decides whether to retry or quarantine the seed.
    """
    seed, attempt = seed_attempt
    try:
        result = replicate_one(network, config, profile, seed,
                               telemetry_dir=telemetry_dir,
                               attempt=attempt)
    except Exception:
        return _SeedOutcome(seed=seed, attempt=attempt, ok=False,
                            error=traceback.format_exc())
    if telemetry_dir is not None:
        metrics, snapshot = result
    else:
        metrics, snapshot = result, None
    return _SeedOutcome(seed=seed, attempt=attempt, ok=True,
                        metrics=metrics, snapshot=snapshot)


def _experiment_fingerprint(network: str, config: CampaignConfig,
                            profile) -> str:
    """Identity a checkpoint journal is only valid for.

    Built from everything that shapes a seed's *measured* result --
    network, config (with the fault plan reduced to its simulated
    clauses via ``scientific_key``) and profile.  Worker-crash chaos is
    excluded on purpose: a checkpoint written under pipeline chaos
    stays valid when resuming without it, and vice versa.
    """
    plan = config.fault_plan
    # a clause-less plan (or worker-crash-only chaos) measures the same
    # results as no plan at all, so both map to the empty key
    science = plan.scientific_key() if plan and plan.clauses else ""
    bare = replace(config, fault_plan=None)
    raw = f"{network}|{bare!r}|faults:{science}|{profile!r}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


class CheckpointJournal:
    """Crash-safe journal of completed replication seeds.

    First record is a header binding the journal to one experiment
    fingerprint; every further record is one completed seed with its
    metrics (and registry snapshot when telemetry is on).  Rerunning
    ``run_replications`` with the same ``checkpoint`` path skips the
    recorded seeds and completes the rest, producing a report identical
    to an uninterrupted run.

    Records are CRC32-framed and fsynced per append (see
    :mod:`repro.resilience.store`).  A SIGKILL mid-append leaves a
    torn final line, which :meth:`_load` truncates away on the next
    open -- the torn record was never acknowledged, so nothing
    committed is lost.  ``io`` accepts a chaotic-IO hook
    (:class:`repro.faults.injectors.HostIOFaults`); injected write
    failures degrade journaling (counted in ``write_errors``) instead
    of killing the run.
    """

    def __init__(self, path: Path, fingerprint: str, io=None) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        self._io = io
        #: seed -> journal entry for every recorded completion
        self.completed: Dict[int, dict] = {}
        #: appends that failed (and were survived) this run
        self.write_errors = 0
        self._appender = DurableAppender(self.path, framed=True, io=io)
        if self.path.exists():
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._appender.append({"kind": "header",
                                   "fingerprint": fingerprint})

    def _load(self) -> None:
        # repair=True truncates a torn tail (a crash mid-append) and
        # quarantines corrupt interior records before we append after
        # them -- appending onto a torn fragment would weld two records
        # into one corrupt line
        scan = recover_frames(self.path, repair=True)
        entries = [entry for entry in scan.records
                   if isinstance(entry, dict)]
        if not entries:
            # empty or torn-before-the-header-committed: nothing was
            # ever recorded, so start the journal fresh
            self._appender.append({"kind": "header",
                                   "fingerprint": self.fingerprint})
            return
        if entries[0].get("kind") != "header":
            raise ValueError(f"{self.path}: not a replication checkpoint")
        found = entries[0].get("fingerprint")
        if found != self.fingerprint:
            raise ValueError(
                f"{self.path}: checkpoint was written by a different "
                f"experiment configuration (its fingerprint "
                f"{str(found)[:12]}... does not match this run's "
                f"{self.fingerprint[:12]}...).  If that journal belongs "
                f"to another experiment, point --checkpoint somewhere "
                f"else; if you changed the configuration on purpose, "
                f"delete the file and rerun from scratch.  "
                f"`repro-study doctor {self.path}` shows what it holds.")
        for entry in entries[1:]:
            if entry.get("kind") == "seed":
                self.completed[int(entry["seed"])] = entry

    def record(self, seed: int, metrics: dict,
               snapshot: Optional[dict]) -> None:
        """Persist one completed seed (re-recording a seed is a no-op)."""
        if seed in self.completed:
            return
        entry = {"kind": "seed", "seed": seed, "metrics": metrics,
                 "snapshot": snapshot}
        self.completed[seed] = entry
        try:
            self._appender.append(entry)
        except OSError:
            # a full or injected-chaotic disk must degrade journaling,
            # not kill the campaign: the seed stays completed in memory
            # and simply is not resumable.  Clean the torn bytes the
            # failed append may have left so the next one lands whole.
            self.write_errors += 1
            self._repair_tail()

    def _repair_tail(self) -> None:
        self._appender.close()
        try:
            recover_frames(self.path, repair=True)
        except OSError:
            pass
        self._appender = DurableAppender(self.path, framed=True,
                                         io=self._io)

    def close(self) -> None:
        self._appender.close()


def run_replications(network: str, seeds: Sequence[int],
                     config: CampaignConfig, profile=None,
                     workers: Optional[int] = 1,
                     telemetry_dir: Optional[Path] = None,
                     checkpoint: Optional[Path] = None,
                     serve_port: Optional[int] = None,
                     serve_host: str = "127.0.0.1",
                     on_serve: Optional[Callable[[str], None]] = None,
                     supervision: Optional[SupervisionPolicy] = None,
                     on_kill: Optional[Callable] = None,
                     ) -> ReplicationReport:
    """Run one campaign per seed and summarize the headline metrics.

    ``workers`` fans seeds out over watched worker processes (``None``
    = one per CPU; see below); each seed's campaign is fully
    determined by its seed, so the report is bit-identical to
    ``workers=1``, which runs every seed in the calling process -- the
    merge happens in seed order, not completion order.

    ``telemetry_dir`` instruments every replication: per-seed journals,
    spans and metrics land there, the per-worker registries merge (in
    seed order, so deterministically) into ``report.registry``, and the
    merged Prometheus textfile is written as
    ``<network>_merged_metrics.prom``.

    The run self-heals: a seed whose worker crashes is retried once,
    and a seed that fails its retry too is quarantined -- the report
    then carries the surviving seeds' metrics with ``degraded=True``
    and the per-seed errors in ``failures``.  Only a campaign where
    *every* seed dies raises.  ``checkpoint`` names a
    :class:`CheckpointJournal` file: completed seeds are persisted as
    they land (in completion order with two or more workers) and
    skipped on the next invocation, so an interrupted campaign resumes
    instead of recomputing.

    ``serve_port`` (requires ``telemetry_dir``) exposes the fan-out
    live on one aggregated observability endpoint: every seed's
    journal is tailed and every finished worker's registry snapshot
    merges into ``/metrics`` in seed order.  ``port=0`` binds an
    ephemeral port; ``on_serve(url)`` fires once the server is up.
    The server is read-only -- results are bit-identical with it on
    or off.

    The worker count is resolved once per run (capped by the seed
    count).  At two or more, every attempt, retries included, runs in
    a worker process under :func:`repro.resilience.supervised_map`:
    workers heartbeat, hung or stalled workers are killed and requeued
    once, and a worker whose requeue dies too degrades into the same
    retry-then-quarantine path a crashing worker takes -- a wedged
    host can slow the campaign but never hang it.  ``supervision``
    sets the watchdog thresholds, and ``on_kill`` observes every
    watchdog intervention.  Worker-hang/-stall clauses in the fault
    plan are enforced only in worker processes (an in-process run
    must not be able to wedge itself).
    """
    if network not in HEADLINE_METRICS:
        raise ValueError(f"unknown network {network!r}")
    if serve_port is not None and telemetry_dir is None:
        raise ValueError("serve_port requires telemetry_dir (the served "
                         "journals and snapshots live there)")
    seeds = list(seeds)
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct and at least one, "
                         f"got {seeds}")
    metric_fns = HEADLINE_METRICS[network]
    # resolved once, so a retry round of one seed stays in a watched
    # worker process
    workers = resolve_workers(workers, len(seeds))
    plan = config.fault_plan
    journal = None
    if checkpoint is not None:
        journal_io = None
        if plan and plan.io_clauses:
            from ..faults.injectors import HostIOFaults
            journal_io = HostIOFaults(plan, seed=config.seed)
        journal = CheckpointJournal(
            Path(checkpoint),
            _experiment_fingerprint(network, config, profile),
            io=journal_io)
    completed: Dict[int, tuple] = {}
    if journal is not None:
        for seed in seeds:
            entry = journal.completed.get(seed)
            if entry is not None:
                completed[seed] = (entry["metrics"], entry.get("snapshot"))

    server = None
    hub = None
    if serve_port is not None:
        # deferred on purpose: the server is opt-in and pulls in the
        # whole HTTP stack; replications without it never pay for it
        from ..telemetry.httpd import ObservatoryHub, TelemetryServer
        hub = ObservatoryHub(title=f"{network} replications")
        hub.set_status(network=network, seeds=list(seeds),
                       workers=workers)
        for seed in seeds:
            hub.add_journal(
                f"{network}_seed{seed}",
                Path(telemetry_dir) / f"{network}_seed{seed}_journal.jsonl")
        for seed, (_metrics, snapshot) in sorted(completed.items()):
            if snapshot:
                hub.record_snapshot(seed, snapshot)
        server = TelemetryServer(hub, host=serve_host,
                                 port=serve_port).start()
        if on_serve is not None:
            on_serve(server.url)

    def on_result(seed_attempt, outcome: _SeedOutcome) -> None:
        if journal is not None and outcome.ok:
            journal.record(outcome.seed, outcome.metrics, outcome.snapshot)
        if hub is not None and outcome.ok and outcome.snapshot:
            hub.record_snapshot(outcome.seed, outcome.snapshot)

    worker = functools.partial(_guarded_replicate, network, config, profile,
                               telemetry_dir=telemetry_dir)

    hang = plan.worker_hang if plan else None
    stall = plan.worker_stall if plan else None

    def intervention(seed_attempt) -> Optional[HostIntervention]:
        seed, attempt = seed_attempt
        if hang is not None and hang.should_hang(seed, attempt):
            return HostIntervention(kind="hang", seconds=hang.hang_s)
        if stall is not None and stall.should_stall(seed, attempt):
            return HostIntervention(kind="stall", seconds=stall.stall_s)
        return None

    def supervised_failure(seed_attempt, reason: str) -> _SeedOutcome:
        seed, attempt = seed_attempt
        return _SeedOutcome(seed=seed, attempt=attempt, ok=False,
                            error=f"supervision: {reason}")

    def fan_out(items):
        return supervised_map(
            worker, items, workers=workers, policy=supervision,
            intervention=intervention, failure=supervised_failure,
            on_result=on_result, on_kill=on_kill)

    pending = [seed for seed in seeds if seed not in completed]
    try:
        outcomes = fan_out([(seed, 0) for seed in pending])
        to_retry: List[int] = []
        for outcome in outcomes:
            if outcome.ok:
                completed[outcome.seed] = (outcome.metrics, outcome.snapshot)
            else:
                to_retry.append(outcome.seed)
        failures: Dict[int, _SeedOutcome] = {}
        if to_retry:
            retried = fan_out([(seed, 1) for seed in to_retry])
            for outcome in retried:
                if outcome.ok:
                    completed[outcome.seed] = (outcome.metrics,
                                               outcome.snapshot)
                else:
                    failures[outcome.seed] = outcome
    finally:
        if server is not None:
            server.stop()
        if journal is not None:
            journal.close()
    survivors = [seed for seed in seeds if seed in completed]
    if not survivors:
        first = failures[seeds[0]] if seeds[0] in failures else (
            next(iter(failures.values())))
        raise RuntimeError(
            f"every replication seed failed; first error:\n{first.error}")

    registry = None
    telemetry_path = None
    if telemetry_dir is not None:
        # counters and histograms sum, gauges keep the max, folded in
        # seed order: the same registry whichever worker finished first
        registry = MetricRegistry()
        for seed in survivors:
            registry.merge_snapshot(completed[seed][1])
        telemetry_path = (Path(telemetry_dir)
                          / f"{network}_merged_metrics.prom")
        atomic_write_text(telemetry_path, registry.render_prometheus())
    per_metric: Dict[str, List[float]] = {name: [] for name in metric_fns}
    for seed in survivors:
        metrics = completed[seed][0]
        for name in metric_fns:
            per_metric[name].append(metrics[name])
    return ReplicationReport(
        network=network, seeds=tuple(seeds),
        metrics={name: MetricSummary(name=name, values=tuple(values))
                 for name, values in per_metric.items()},
        registry=registry, telemetry_path=telemetry_path,
        completed_seeds=tuple(survivors),
        degraded=bool(failures),
        failures=tuple(SeedFailure(seed=seed, attempts=2,
                                   error=failures[seed].error)
                       for seed in seeds if seed in failures))
