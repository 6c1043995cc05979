"""Campaign driver: run the whole measurement end to end.

One private driver, :func:`_run_campaign`, reproduces the paper's data
collection for either network: build the world, attach the instrumented
client, issue the query workload on a fixed cadence for the configured
number of virtual days, download and scan every response, and return the
filled :class:`MeasurementStore` (plus the built world for ground-truth
tests).  ``run_limewire_campaign`` / ``run_openft_campaign`` are its two
entry points; each passes in its network's parts (profile, strain
corpus, world builder, collector class and settle segments).
:func:`campaign_runner` picks one by network name.

The entry points stay separate module-level names, and each looks up
its world builder and collector class at call time, because the
campaign benchmark (``perfbench/``) rebinds the entry points and the
world builders by name, and replaces each collector's ``__init__``, to
time the set-up and the world build.  A per-network table built at
import would keep the unwrapped functions.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Tuple

from ...faults import FaultInjector, FaultPlan, FetchFaults
from ...malware.corpus import limewire_strains, openft_strains
from ...malware.strain import MalwareStrain
from ...peers.population import (BuiltWorld, build_gnutella_world,
                                 build_openft_world)
from ...peers.profiles import GnutellaProfile, OpenFTProfile
from ...scanner.database import database_for_strains
from ...scanner.engine import ScanEngine
from ...simnet.clock import days
from ...simnet.kernel import Simulator
from ...telemetry.runtime import CampaignTelemetry
from .collector import LimewireCollector, OpenFTCollector
from .download import Downloader, DownloadPolicy
from .queries import QueryWorkload
from .store import MeasurementStore

__all__ = ["CampaignConfig", "CampaignResult", "campaign_runner",
           "default_profile", "run_limewire_campaign", "run_openft_campaign"]

#: generation-0 collection threshold while a built world runs (CPython's
#: default is 700); the run allocates little cyclic garbage per event
RUN_GC_THRESHOLD0 = 20_000


def default_profile(network: str, scale: float = 1.0):
    """The stock population profile for ``network``, optionally scaled.

    Lets callers above the ``peers`` layer (the CLI, devtools) pick a
    population by network name without importing ``peers`` themselves.
    """
    if network == "limewire":
        profile = GnutellaProfile()
    elif network == "openft":
        profile = OpenFTProfile()
    else:
        raise ValueError(f"unknown network {network!r}")
    return profile.scaled(scale) if scale != 1.0 else profile


def campaign_runner(network: str) -> Callable[..., CampaignResult]:
    """The campaign entry point for ``network``, as bound right now.

    Reads the module global on every call, so a caller that picks a
    runner by network name reaches whatever the name is bound to
    (perfbench wraps both entry points by name).
    """
    if network == "limewire":
        return run_limewire_campaign
    elif network == "openft":
        return run_openft_campaign
    raise ValueError(f"unknown network {network!r}")


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs shared by both campaigns.

    Defaults run a scaled 3-virtual-day campaign in seconds of wall time;
    the paper's "over a month" corresponds to ``duration_days=35`` with a
    denser population (see ``profile.scaled``).
    """

    seed: int = 1
    duration_days: float = 3.0
    query_interval_s: float = 600.0
    popular_works: int = 40
    download_policy: DownloadPolicy = field(default_factory=DownloadPolicy)
    #: fraction of the strain corpus the ground-truth scanner knows; 1.0
    #: reproduces the paper, lower values are for ablations
    scanner_coverage: float = 1.0
    #: virtual seconds granted after the horizon so in-flight downloads
    #: and retries complete
    drain_s: float = 7200.0
    #: declarative fault schedule; None (the default) runs the campaign
    #: bit-identically to a build without the chaos harness
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        # written so nan fails too; inf would never reach its horizon
        if not 0 < self.duration_days < math.inf:
            raise ValueError("duration_days must be positive")
        if not 0 < self.query_interval_s < math.inf:
            raise ValueError("query_interval_s must be positive")


@dataclass
class CampaignResult:
    """A finished campaign: the data plus the world it ran against."""

    store: MeasurementStore
    world: BuiltWorld
    config: CampaignConfig
    #: the scan engine used by the downloader (exposes scans_performed,
    #: cache_hits/cache_misses for throughput benchmarks)
    engine: Optional[ScanEngine] = None
    #: the run's telemetry bundle (registry/tracer/journal) when enabled
    telemetry: Optional[CampaignTelemetry] = None
    #: the transport fault injector when a plan was armed (exposes the
    #: per-kind injection tallies)
    faults: Optional[FaultInjector] = None

    @property
    def sim(self) -> Simulator:
        """The simulator the campaign ran on."""
        return self.world.sim


def _top_malware_probe(downloader: Downloader, n: int = 3):
    """Journal probe: the top-n malware names seen so far.

    Ranks the downloader's per-name tally, which counts every verdict
    as it lands on its record, instead of walking the whole store at
    every snapshot.
    """
    def probe():
        ranked = sorted(downloader.malware_counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return [{"name": name, "responses": count}
                for name, count in ranked[:n]]
    return probe


def _install_journal(telemetry: CampaignTelemetry, sim: Simulator,
                     store: MeasurementStore, engine: ScanEngine,
                     downloader: Downloader, until: float) -> None:
    """Wire the live-progress probes and start the periodic snapshots."""
    journal = telemetry.journal
    if journal is None:
        return
    in_flight = telemetry.registry.gauge("downloader_in_flight")
    journal.add_probe("responses_collected", lambda: len(store))
    journal.add_probe("queries_issued", lambda: store.queries_issued)
    journal.add_probe("downloads_in_flight", lambda: in_flight.value)
    journal.add_probe("download_successes", lambda: downloader.successes)
    journal.add_probe("scan_cache_hit_rate", lambda: engine.cache_hit_rate)
    journal.add_probe("top_malware", _top_malware_probe(downloader))
    journal.install(sim, until=until)


def _arm_faults(config: CampaignConfig, world: BuiltWorld, registry):
    """Install the plan's injectors on a freshly built world.

    Returns ``(transport_injector, fetch_faults)``; both None when the
    plan has no simulated clauses (including the worker-crash-only
    case, which never touches the simulator).
    """
    plan = config.fault_plan
    if plan is None or not plan.clauses:
        return None, None
    injector = None
    if plan.transport_clauses:
        injector = FaultInjector(world.sim, world.transport, plan,
                                 registry=registry)
        injector.install()
    fetch_faults = None
    if plan.fetch_clauses:
        fetch_faults = FetchFaults(world.sim, plan, registry=registry)
    return injector, fetch_faults


def _export_transport(registry, transport) -> None:
    """Fold the transport's delivery tallies into the run's registry."""
    dropped = registry.counter(
        "transport_dropped_total",
        "Messages dropped by the transport, by cause.",
        labels=("cause",))
    for cause in sorted(transport.drop_causes):
        count = transport.drop_causes[cause]
        if count:
            dropped.labels(cause).inc(count)
    registry.counter(
        "transport_delivered_total",
        "Messages delivered by the transport.").inc(transport.delivered)


@contextmanager
def _frozen_world(build: Callable[..., BuiltWorld],
                  *args) -> Iterator[BuiltWorld]:
    """``build(*args)`` in a freshly collected heap, then run it frozen.

    The collection before the build frees the previous campaign's world:
    its cycles would otherwise wait for a full collection that the
    frozen run postpones, and two worlds would share the heap.  After
    the build every live object moves to the permanent generation, so
    the run's collections scan only what the run allocates, and
    generation 0 waits for :data:`RUN_GC_THRESHOLD0` allocations.  On
    the way out, also when the campaign raises, the caller's thresholds
    come back and the frozen objects return to the oldest generation.
    Collection timing cannot change results: the package defines no
    finalizer and holds no weak reference.
    """
    gc.collect()
    world = build(*args)
    thresholds = gc.get_threshold()
    gc.freeze()
    gc.set_threshold(RUN_GC_THRESHOLD0, *thresholds[1:])
    try:
        yield world
    finally:
        gc.set_threshold(*thresholds)
        gc.unfreeze()


def _run(config: CampaignConfig, world: BuiltWorld, collector,
         workload: QueryWorkload,
         telemetry: Optional[CampaignTelemetry] = None) -> None:
    sim = world.sim
    horizon = days(config.duration_days)
    sim.every(config.query_interval_s,
              lambda: collector.issue_query(workload.next_query()),
              label="query", jitter=sim.stream("campaign:jitter"),
              until=horizon)
    sim.run_until(horizon + config.drain_s)
    if telemetry is not None:
        # run_until already flushed the kernel counters; settle the rest
        _export_transport(telemetry.registry, world.transport)
        telemetry.tracer.close_open(sim.now)
        if telemetry.journal is not None:
            telemetry.journal.close(sim)


def _run_campaign(network: str, config: Optional[CampaignConfig],
                  profile, strains: Sequence[MalwareStrain],
                  build: Callable[..., BuiltWorld], collector_cls,
                  telemetry: Optional[CampaignTelemetry],
                  settle_s: Optional[Tuple[float, float]] = None,
                  ) -> CampaignResult:
    """Run one campaign from its network's parts.

    ``settle_s`` is ``(until_s, after_s)``: run the world to ``until_s``
    before the crawler bootstraps, and ``after_s`` more once it has
    (OpenFT's child adoption and share sync need both); None measures
    right after the build.
    """
    config = config or CampaignConfig()
    registry = telemetry.registry if telemetry is not None else None
    tracer = telemetry.tracer if telemetry is not None else None
    sim = Simulator(seed=config.seed,
                    telemetry=telemetry.kernel if telemetry else None)
    horizon = days(config.duration_days)
    with _frozen_world(build, sim, profile, strains, horizon) as world:
        injector, fetch_faults = _arm_faults(config, world, registry)
        if settle_s:
            sim.run_until(settle_s[0])
        crawler = world.network.bootstrap_crawler("crawler",
                                                  _crawler_address(world))
        if settle_s:
            sim.run_until(sim.now + settle_s[1])
        store = MeasurementStore(network)
        engine = ScanEngine(database_for_strains(strains,
                                                 config.scanner_coverage),
                            registry=registry)
        downloader = Downloader(sim, engine, config.download_policy,
                                registry=registry, tracer=tracer,
                                faults=fetch_faults)
        collector = collector_cls(sim, world.network, crawler, store,
                                  downloader, registry=registry,
                                  tracer=tracer)
        workload = QueryWorkload.from_catalog(
            world.catalog, sim.stream("campaign:workload"),
            popular_works=config.popular_works)

        if telemetry is not None:
            _install_journal(telemetry, sim, store, engine, downloader,
                             until=horizon + config.drain_s)
        _run(config, world, collector, workload, telemetry)
    return CampaignResult(store=store, world=world, config=config,
                          engine=engine, telemetry=telemetry,
                          faults=injector)


def run_limewire_campaign(config: Optional[CampaignConfig] = None,
                          profile: Optional[GnutellaProfile] = None,
                          telemetry: Optional[CampaignTelemetry] = None,
                          ) -> CampaignResult:
    """Reproduce the Limewire side of the measurement.

    ``telemetry`` threads one :class:`CampaignTelemetry` bundle through
    the kernel, scanner, downloader and collector; results are
    bit-identical with or without it (the journal only reads state).
    """
    return _run_campaign("limewire", config, profile or GnutellaProfile(),
                         limewire_strains(), build_gnutella_world,
                         LimewireCollector, telemetry)


def run_openft_campaign(config: Optional[CampaignConfig] = None,
                        profile: Optional[OpenFTProfile] = None,
                        telemetry: Optional[CampaignTelemetry] = None,
                        ) -> CampaignResult:
    """Reproduce the OpenFT side of the measurement.

    The world runs 300 s for child adoption and the initial share syncs
    before the crawler bootstraps, then 60 s more for its node-list
    discovery and adoption.  ``telemetry`` works as in
    :func:`run_limewire_campaign`.
    """
    return _run_campaign("openft", config, profile or OpenFTProfile(),
                         openft_strains(), build_openft_world,
                         OpenFTCollector, telemetry, settle_s=(300.0, 60.0))


def _crawler_address(world: BuiltWorld):
    """A public address for the measurement host (it was well-connected)."""
    from ...simnet.addresses import AddressAllocator

    allocator = AddressAllocator(world.sim.stream("crawler:addr"))
    return allocator.allocate_public()
