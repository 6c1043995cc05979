"""The benchmark's three workloads: what each runs and what it outputs.

Each workload is one thing a researcher runs, generated in one process
with one busy core (no sharding, no process pool); why each was chosen
is recorded in ``BENCHMARK.json``:

* ``lw-study``: ``repro-study run --network limewire`` on the canonical
  scale-1 profile for 1.5 virtual days, then ``repro-study analyze`` of
  the saved store (all 14 tables, C1-C6).  At this horizon set-up is
  ~10% of a world's wall time, near its share in the long campaigns the
  workload stands for.
* ``oft-study``: the same for ``--network openft`` over 1 virtual day.
* ``lw-sweep``: ``run_replications`` over two seeds of a 2x Limewire
  population for 0.25 virtual days, with telemetry, a checkpoint
  journal and the ``moderate`` fault envelope.

Every workload has a pool of worlds whose outputs are pinned in
``reference.json``; a run covers the pool worlds its seed picks
(:func:`worlds`), so every world a run simulates is checked against
exact digests, and the worlds depend on the arguments only.
``world_s`` is what one world took on a 2-vCPU Xeon VM, and only sets
how many worlds fit a run.

A workload's ``run`` executes inside the timed region and returns raw
results; ``outputs`` turns them, after timing, into the JSON-able values
the check compares (store and report digests, headline metrics).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Tuple

__all__ = ["Workload", "WORKLOADS", "REFERENCE_SEED", "pool",
           "sweep_seeds", "worlds"]

#: the default ``--seed``
REFERENCE_SEED = 1
#: the first world of every pool
POOL_BASE = 1000

STUDY_DAYS = {"limewire": 1.5, "openft": 1.0}
SWEEP_SCALE = 2.0
SWEEP_DAYS = 0.25
SWEEP_SEEDS = 2


def sweep_seeds(seed: int) -> Tuple[int, ...]:
    """The replication seeds an ``lw-sweep`` world ``seed`` covers; no
    two worlds share one."""
    return tuple(range(SWEEP_SEEDS * seed, SWEEP_SEEDS * (seed + 1)))


def _cli(argv, stdout: io.StringIO, call=None) -> None:
    from repro.cli import main

    with contextlib.redirect_stdout(stdout):
        code = (call or main)(argv)
    if code != 0:
        raise RuntimeError(f"repro-study {argv[0]} exited with {code}")


def _study(network: str) -> Callable:
    days = repr(STUDY_DAYS[network])

    def run(seed: int, workdir: Path, probes) -> dict:
        from repro.cli import main

        out = workdir / "stores"
        _cli(["run", "--network", network, "--days", days,
              "--seed", str(seed), "--out", str(out)], io.StringIO())
        store = out / f"{network}.jsonl"
        # `repro-study analyze` starts without the campaign's world: the
        # collection its cyclic garbage owes is paid here, not at some
        # point inside the analysis
        gc.collect()
        report = io.StringIO()
        _cli(["analyze", str(store), "--days", days], report,
             call=probes.analysis("analyze", main))
        return {"store": store, "report": report.getvalue()}

    return run


def _study_outputs(network: str) -> Callable:
    def outputs(raw: dict) -> dict:
        from repro.core.experiments import HEADLINE_METRICS
        from repro.core.measure import MeasurementStore
        from repro.core.measure.campaign import CampaignResult

        data = raw["store"].read_bytes()
        store = MeasurementStore.load(raw["store"])
        # the headline functions only read result.store
        result = CampaignResult(store=store, world=None, config=None)
        return {
            "store_sha256": hashlib.sha256(data).hexdigest(),
            "analyze_sha256": hashlib.sha256(
                raw["report"].encode("utf-8")).hexdigest(),
            "responses": len(store),
            "headline": {name: metric(result) for name, metric
                         in HEADLINE_METRICS[network].items()},
        }
    return outputs


def _sweep(seed: int, workdir: Path, probes) -> object:
    from repro.core.experiments import run_replications
    from repro.core.measure import CampaignConfig
    from repro.core.measure.campaign import default_profile
    from repro.faults import FaultPlan
    from repro.simnet.clock import days

    horizon = days(SWEEP_DAYS)
    config = CampaignConfig(duration_days=SWEEP_DAYS,
                            fault_plan=FaultPlan.envelope("moderate",
                                                          horizon))
    return run_replications("limewire", sweep_seeds(seed), config,
                            profile=default_profile("limewire", SWEEP_SCALE),
                            workers=1, telemetry_dir=workdir / "telemetry",
                            checkpoint=workdir / "checkpoint.jsonl")


def _sweep_outputs(report) -> dict:
    per_seed: Dict[str, Dict[str, float]] = {
        str(seed): {} for seed in report.completed_seeds}
    for name, summary in report.metrics.items():
        for seed, value in zip(report.completed_seeds, summary.values):
            per_seed[str(seed)][name] = value
    return {"degraded": report.degraded,
            "failed_seeds": [failure.seed for failure in report.failures],
            "headline": per_seed}


#: wrappers of the traced run, by key ``"<layer>:<name>"``
_STUDY_COMMON = frozenset({
    "files:SharedFile.make", "files:SharedLibrary.add", "files:tokenize",
    "simnet:Simulator.run_until", "simnet:Transport.send",
    "simnet:Transport.send_many", "core.measure:MeasurementStore.save",
    "core.measure:MeasurementStore.load",
    "core.measure:Downloader.enqueue", "core.measure:timer:query",
    "core.measure:timer:download", "peers:timer:churn",
    "peers:timer:infect", "scanner:ScanEngine.scan",
    "core.analysis:analyze", "python:gc"})
_GNUTELLA = frozenset({
    "peers:build_gnutella_world", "gnutella:sync_leaf_qrt",
    "gnutella:QueryRouteTable.to_messages",
    "gnutella:QueryRouteTable.from_messages", "gnutella:qrp_hash",
    "gnutella:on_message", "transfer:GnutellaNetwork.fetch",
    "core.measure:run_limewire_campaign",
    "core.measure:LimewireCollector._on_hit"})
#: ``OpenFTNode.sync_shares`` is left out: it runs only when a user is
#: infected while online, which some worlds (e.g. world 0) never see
_OPENFT = frozenset({
    "peers:build_openft_world", "openft:on_message",
    "openft:OpenFTNode.sync_shares_to",
    "transfer:OpenFTNetwork.fetch", "core.measure:run_openft_campaign",
    "core.measure:OpenFTCollector._on_result", "peers:timer:parent-drop"})
_SWEEP_ONLY = frozenset({
    "telemetry:CampaignTelemetry.write_outputs",
    "faults:FaultInjector.install", "faults:FetchFaults.on_fetch",
    "faults:timer:fault", "telemetry:timer:journal",
    "resilience:CheckpointJournal.record"})


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    network: str
    run: Callable
    outputs: Callable
    #: campaigns per world (the unit an operation failure counts)
    campaigns: int
    #: wall seconds one world took on the reference VM; sizes the list
    #: of worlds a run covers, never read from a clock
    world_s: float
    #: worlds in the pinned pool runs draw from
    pool_size: int
    #: wrappers that must fire in a traced run (a silent one would make
    #: its layer look free)
    must_fire: FrozenSet[str]
    #: wrappers that must not fire (their layer does not run here)
    must_not_fire: FrozenSet[str]


def pool(workload: Workload) -> List[int]:
    """The world seeds whose outputs ``reference.json`` pins."""
    return list(range(POOL_BASE, POOL_BASE + workload.pool_size))


def worlds(workload: Workload, seed: int, seconds: float) -> List[int]:
    """The pool worlds a run with ``--seed seed --seconds seconds``
    covers: as many as fit ``seconds``, picked by ``seed``, the same on
    every commit and every host."""
    count = min(workload.pool_size, max(1, round(seconds / workload.world_s)))

    def rank(world: int) -> bytes:
        return hashlib.sha256(f"{seed}/{world}".encode("ascii")).digest()

    return sorted(pool(workload), key=rank)[:count]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="lw-study", network="limewire", run=_study("limewire"),
            outputs=_study_outputs("limewire"), campaigns=1, world_s=12.5,
            pool_size=8,
            must_fire=_STUDY_COMMON | _GNUTELLA,
            must_not_fire=_OPENFT | _SWEEP_ONLY),
        Workload(
            name="oft-study", network="openft", run=_study("openft"),
            outputs=_study_outputs("openft"), campaigns=1, world_s=5.0,
            pool_size=15,
            must_fire=_STUDY_COMMON | _OPENFT,
            must_not_fire=_GNUTELLA | _SWEEP_ONLY),
        Workload(
            name="lw-sweep", network="limewire", run=_sweep,
            outputs=_sweep_outputs, campaigns=SWEEP_SEEDS, world_s=13.0,
            pool_size=8,
            must_fire=(_GNUTELLA | _SWEEP_ONLY
                       | {"files:SharedLibrary.add", "files:tokenize",
                          "simnet:Simulator.run_until",
                          "simnet:Transport.send",
                          "core.measure:Downloader.enqueue",
                          "core.measure:timer:query",
                          "core.measure:timer:download",
                          "peers:timer:churn",
                          "scanner:ScanEngine.scan", "python:gc",
                          "core.analysis:headline.prevalence"}),
            must_not_fire=_OPENFT | {"core.analysis:analyze",
                                     "core.measure:MeasurementStore.save",
                                     "core.measure:MeasurementStore.load"}),
    )
}
