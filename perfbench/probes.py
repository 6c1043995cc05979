"""The wrappers the benchmark installs into ``repro``, layer by layer.

Nothing under ``src/`` is edited.  A module-level function is replaced
in every loaded ``repro`` module that binds it by name (six modules
import ``tokenize`` by name, ``peers.population`` imports
``sync_leaf_qrt`` and ``gnutella.topology`` aliases it as ``_sync_qrp``);
a method is replaced on its class.  Protocol handlers are wrapped as they
are passed to ``Transport.attach``, which endpoints call during world
build -- so :meth:`Probes.install` must run before the workload starts.

Callbacks the kernel fires from its queue, other than message
deliveries, are wrapped as they are scheduled (``Simulator.at``/``after``/
``every``) and charged to a layer by their timer label (:data:`TIMERS`):
query issue and download attempts to ``core.measure``, churn and
infection activations to ``peers``.  Without that, their time would read
as the kernel's own.  The collectors' response handlers run inside the
crawler's ``on_message`` and get ``core.measure`` spans of their own.

Two modes share one install:

* stamps only (``recorder=None``, the untraced run): the campaign
  runners, the collector constructors and the headline-metric functions
  get a clock read each, which is all ``setup_s`` and ``analyze_s`` need;
* traced: every wrapper in :data:`SPANS`, :data:`COUNTERS` and
  :data:`TIMERS` as well, plus instance harvesting for the counters the
  program keeps itself (events processed, deliveries, drops, download
  attempts, cache hits, injected faults), read once per campaign.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from tracer import Fold, Recorder

__all__ = ["Probes", "LAYERS", "combine", "per_layer", "replace_function",
           "replace_method", "timer_span"]

#: imported before patching, so every by-name binding of a wrapped
#: function already exists when :func:`replace_function` sweeps them
MODULES = (
    "repro.cli", "repro.core.experiments", "repro.core.measure.campaign",
    "repro.core.measure.collector", "repro.core.measure.download",
    "repro.core.measure.store", "repro.peers.population",
    "repro.gnutella.topology", "repro.gnutella.qrp",
    "repro.gnutella.servent", "repro.gnutella.network",
    "repro.openft.nodes", "repro.openft.network", "repro.files.names",
    "repro.files.library", "repro.simnet.kernel", "repro.simnet.transport",
    "repro.scanner.engine", "repro.telemetry.runtime",
    "repro.faults.injectors", "repro.core.analysis.categories",
    "repro.core.filtering.existing", "repro.malware.naming",
)

#: (layer, module, owner class or None for a function, attribute)
SPANS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("peers", "repro.peers.population", None, "build_gnutella_world"),
    ("peers", "repro.peers.population", None, "build_openft_world"),
    ("files", "repro.files.library", "SharedFile", "make"),
    ("files", "repro.files.library", "SharedLibrary", "add"),
    ("gnutella", "repro.gnutella.topology", None, "sync_leaf_qrt"),
    ("gnutella", "repro.gnutella.qrp", "QueryRouteTable", "to_messages"),
    ("gnutella", "repro.gnutella.qrp", "QueryRouteTable", "from_messages"),
    ("openft", "repro.openft.nodes", "OpenFTNode", "sync_shares"),
    ("openft", "repro.openft.nodes", "OpenFTNode", "sync_shares_to"),
    ("simnet", "repro.simnet.kernel", "Simulator", "run_until"),
    ("simnet", "repro.simnet.transport", "Transport", "send"),
    ("simnet", "repro.simnet.transport", "Transport", "send_many"),
    ("transfer", "repro.gnutella.network", "GnutellaNetwork", "fetch"),
    ("transfer", "repro.openft.network", "OpenFTNetwork", "fetch"),
    ("core.measure", "repro.core.measure.collector", "LimewireCollector",
     "_on_hit"),
    ("core.measure", "repro.core.measure.collector", "OpenFTCollector",
     "_on_result"),
    ("core.measure", "repro.core.measure.store", "MeasurementStore", "save"),
    ("core.measure", "repro.core.measure.store", "MeasurementStore", "load"),
    ("scanner", "repro.scanner.engine", "ScanEngine", "scan"),
    ("telemetry", "repro.telemetry.runtime", "CampaignTelemetry",
     "write_outputs"),
    ("faults", "repro.faults.injectors", "FaultInjector", "install"),
    ("faults", "repro.faults.injectors", "FetchFaults", "on_fetch"),
    ("resilience", "repro.core.experiments", "CheckpointJournal", "record"),
)

#: count-only leaves, same tuple shape as :data:`SPANS`
COUNTERS = (
    ("files", "repro.files.names", None, "tokenize"),
    ("gnutella", "repro.gnutella.qrp", None, "qrp_hash"),
    ("core.measure", "repro.core.measure.download", "Downloader", "enqueue"),
)

#: classes whose instances are read once per campaign (traced run only)
HARVESTED = (
    ("repro.simnet.kernel", "Simulator"),
    ("repro.simnet.transport", "Transport"),
    ("repro.core.measure.download", "Downloader"),
    ("repro.scanner.engine", "ScanEngine"),
    ("repro.faults.injectors", "FaultInjector"),
    ("repro.faults.injectors", "FetchFaults"),
)

#: handler layer by the module of the object that owns ``on_message``
HANDLER_LAYERS = (("repro.gnutella.", "gnutella"),
                  ("repro.openft.", "openft"))

#: scheduled callbacks by timer-label prefix: (prefix, layer, span name).
#: Message deliveries ("deliver") go through the queue directly and stay
#: the kernel's; a label matching no prefix is charged to ``simnet``
TIMERS = (
    ("query", "core.measure", "timer:query"),
    ("download", "core.measure", "timer:download"),
    ("churn", "peers", "timer:churn"),
    ("parent-drop", "peers", "timer:parent-drop"),
    ("infect:", "peers", "timer:infect"),
    ("dynamic-query", "gnutella", "timer:dynamic-query"),
    ("bootstrap-retry", "openft", "timer:bootstrap-retry"),
    ("fault:", "faults", "timer:fault"),
    ("journal", "telemetry", "timer:journal"),
)

#: layers whose ``<layer>.self_s`` metrics, with ``unattributed_s``, add
#: up to ``trace.wall_s``
LAYERS = ("peers", "files", "gnutella", "openft", "simnet", "transfer",
          "core.measure", "scanner", "core.analysis", "telemetry", "faults",
          "resilience", "python")


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def timer_span(label: str) -> Optional[Tuple[str, str]]:
    """(layer, span name) for a callback scheduled under ``label``."""
    if label == "deliver":
        return None
    for prefix, layer, name in TIMERS:
        if label.startswith(prefix):
            return layer, name
    return "simnet", "timer:other"


def replace_function(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module attribute bound to ``original``."""
    rebound = 0
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                rebound += 1
    if not rebound:
        raise RuntimeError(f"{original!r} is bound in no repro module")
    return rebound


def replace_method(cls: type, attr: str,
                   make: Callable[[Callable], Callable]) -> None:
    """Replace ``cls.attr`` by ``make(original function)``.

    Static methods stay static; the attribute must be defined on ``cls``
    itself, not inherited.
    """
    raw = vars(cls)[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _resolve(module: str, owner: Optional[str]):
    target = importlib.import_module(module)
    if owner is not None:
        target = getattr(target, owner)
    return target


def _patch(module: str, owner: Optional[str], attr: str,
           make: Callable[[Callable], Callable]) -> None:
    target = _resolve(module, owner)
    if owner is None:
        original = getattr(target, attr)
        replace_function(original, make(original))
    else:
        replace_method(target, attr, make)


def rss_mb() -> float:
    """Current resident set of this process, in MB (Linux ``statm``)."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


class Probes:
    """Installs the wrappers into ``repro`` and keeps what they saw."""

    def __init__(self, recorder: Optional[Recorder] = None) -> None:
        self.recorder = recorder
        #: campaign calls seen
        self.campaigns = 0
        #: ``(start, end)`` clock readings of each campaign's set-up and
        #: each analysis call
        self.setup_windows: List[Tuple[float, float]] = []
        self.analyze_windows: List[Tuple[float, float]] = []
        #: largest resident-set growth across one world build
        self.build_rss_mb = 0.0
        #: program-kept counters, summed over campaigns
        self.harvest: Dict[str, int] = {}
        self._called_at = 0.0
        self._instances: Dict[str, List[object]] = {}

    # -- install ------------------------------------------------------------
    def install(self) -> None:
        """Import every wrapped module, then patch; run before the workload."""
        for module in MODULES:
            importlib.import_module(module)
        self._stamp_campaigns()
        self._stamp_collectors()
        self._stamp_headline_metrics()
        if self.recorder is not None:
            self._trace()

    def _stamp_campaigns(self) -> None:
        campaign = importlib.import_module("repro.core.measure.campaign")
        for name in ("run_limewire_campaign", "run_openft_campaign"):
            original = getattr(campaign, name)
            inner = (original if self.recorder is None
                     else self.recorder.span("core.measure", name, original))
            replace_function(original, self._campaign_wrapper(inner))

    def _campaign_wrapper(self, inner: Callable) -> Callable:
        def campaign(*args, **kwargs):
            self._called_at = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.campaigns += 1
                self._harvest()
        return campaign

    def _stamp_collectors(self) -> None:
        collector = importlib.import_module("repro.core.measure.collector")

        def make(original: Callable) -> Callable:
            def init(obj, *args, **kwargs):
                # measurement starts once the collector exists
                self.setup_windows.append((self._called_at,
                                           time.perf_counter()))
                return original(obj, *args, **kwargs)
            return init

        for name in ("LimewireCollector", "OpenFTCollector"):
            replace_method(getattr(collector, name), "__init__", make)

    def _stamp_headline_metrics(self) -> None:
        experiments = importlib.import_module("repro.core.experiments")
        for metrics in experiments.HEADLINE_METRICS.values():
            for name, metric in list(metrics.items()):
                metrics[name] = self.analysis(f"headline.{name}", metric)

    def analysis(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed into ``analyze_s`` (and a ``core.analysis`` span)."""
        inner = (fn if self.recorder is None
                 else self.recorder.span("core.analysis", name, fn))

        def analysed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.analyze_windows.append((started, time.perf_counter()))
        return analysed

    @property
    def setup_s(self) -> float:
        """Set-up time summed over the campaigns, in clock seconds."""
        return sum(end - start for start, end in self.setup_windows)

    @property
    def analyze_s(self) -> float:
        """Analysis time summed over its calls, in clock seconds."""
        return sum(end - start for start, end in self.analyze_windows)

    def _trace(self) -> None:
        recorder = self.recorder
        for layer, module, owner, attr in SPANS:
            name = attr if owner is None else f"{owner}.{attr}"
            make = (lambda fn, layer=layer, name=name:
                    recorder.span(layer, name, fn))
            if attr.startswith("build_"):
                make = (lambda fn, make=make: self._measure_build(make(fn)))
            _patch(module, owner, attr, make)
        for layer, module, owner, attr in COUNTERS:
            name = attr if owner is None else f"{owner}.{attr}"
            _patch(module, owner, attr,
                   lambda fn, key=f"{layer}:{name}": recorder.counter(key, fn))
        for module, owner in HARVESTED:
            replace_method(_resolve(module, owner), "__init__",
                           lambda fn, kind=owner: self._collect(kind, fn))
        _patch("repro.simnet.transport", "Transport", "attach",
               self._wrap_handlers)
        for attr in ("at", "after", "every"):
            _patch("repro.simnet.kernel", "Simulator", attr,
                   self._wrap_timers)

    def _measure_build(self, inner: Callable) -> Callable:
        def build(*args, **kwargs):
            before = rss_mb()
            try:
                return inner(*args, **kwargs)
            finally:
                self.build_rss_mb = max(self.build_rss_mb, rss_mb() - before)
        return build

    def _collect(self, kind: str, init: Callable) -> Callable:
        live = self._instances.setdefault(kind, [])

        def collecting(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            live.append(obj)
        return collecting

    def _wrap_handlers(self, attach: Callable) -> Callable:
        recorder = self.recorder

        def attaching(transport, endpoint_id, on_message):
            module = type(getattr(on_message, "__self__", None)).__module__
            for prefix, layer in HANDLER_LAYERS:
                if module.startswith(prefix):
                    on_message = recorder.span(layer, "on_message",
                                               on_message)
                    break
            return attach(transport, endpoint_id, on_message)
        return attaching

    def _wrap_timers(self, schedule: Callable) -> Callable:
        span = self.recorder.span

        def scheduling(sim, when, callback, label="", *rest, **kwargs):
            found = timer_span(label)
            if found is not None:
                callback = span(found[0], found[1], callback)
            return schedule(sim, when, callback, label, *rest, **kwargs)
        return scheduling

    def _harvest(self) -> None:
        """Add the finished campaign's program-kept counters, then let
        its objects go (holding worlds would grow the heap and GC)."""
        found = self._instances
        tally = self.harvest

        def add(key: str, value) -> None:
            tally[key] = tally.get(key, 0) + int(value)

        for sim in found.get("Simulator", ()):
            add("events", sim.events_processed)
        for transport in found.get("Transport", ()):
            add("delivered", transport.delivered)
            add("dropped", transport.dropped)
        for downloader in found.get("Downloader", ()):
            add("attempts", downloader.attempts)
            add("successes", downloader.successes)
        for engine in found.get("ScanEngine", ()):
            add("scan_requests", engine.scan_requests)
            add("cache_hits", engine.cache_hits)
        for kind in ("FaultInjector", "FetchFaults"):
            for injector in found.get(kind, ()):
                add("injected", sum(injector.injected.values()))
        for live in found.values():
            live.clear()

    # -- results ------------------------------------------------------------
    def fired(self, fold: Fold) -> Dict[str, int]:
        """Calls seen per wrapper key (``"<layer>:<name>"``)."""
        calls = dict(fold.name_calls)
        for key, cell in self.recorder.cells.items():
            calls[key] = cell[0]
        return calls

    def layer_totals(self, fold: Fold) -> Dict[str, float]:
        """This repetition's share of every per-layer metric, in a form
        :func:`combine` can add up across a run's worlds: counts and
        times, plus the numerators and denominators of the fractions."""
        calls = self.fired(fold)
        inclusive = fold.name_inclusive
        own = fold.name_self
        tally = self.harvest.get

        def total(table: Dict, *keys: str):
            return sum(table.get(key, 0) for key in keys)

        attempts = tally("attempts", 0)
        totals = {
            "peers.build_s": total(inclusive, "peers:build_gnutella_world",
                                   "peers:build_openft_world"),
            "peers.build_rss_mb": self.build_rss_mb,
            "files.library_files": calls.get("files:SharedLibrary.add", 0),
            "files.libraries_s": total(inclusive, "files:SharedFile.make",
                                       "files:SharedLibrary.add"),
            "files.tokenize_calls": calls.get("files:tokenize", 0),
            "gnutella.qrp_syncs": calls.get("gnutella:sync_leaf_qrt", 0),
            "gnutella.qrp_sync_s": inclusive.get("gnutella:sync_leaf_qrt",
                                                 0.0),
            "gnutella.qrp_hash_calls": calls.get("gnutella:qrp_hash", 0),
            "gnutella.deliveries": calls.get("gnutella:on_message", 0),
            "gnutella.handler_self_s": own.get("gnutella:on_message", 0.0),
            "openft.deliveries": calls.get("openft:on_message", 0),
            "openft.handler_self_s": own.get("openft:on_message", 0.0),
            "openft.share_syncs": total(calls, "openft:OpenFTNode.sync_shares",
                                        "openft:OpenFTNode.sync_shares_to"),
            "simnet.events": tally("events", 0),
            "simnet.kernel_self_s": own.get("simnet:Simulator.run_until", 0.0),
            "simnet.sends": calls.get("simnet:Transport.send", 0),
            "simnet.send_self_s": total(own, "simnet:Transport.send",
                                        "simnet:Transport.send_many"),
            "simnet.dropped": tally("dropped", 0),
            "simnet.delivered": tally("delivered", 0),
            "transfer.fetches": total(calls, "transfer:GnutellaNetwork.fetch",
                                      "transfer:OpenFTNetwork.fetch"),
            "transfer.fetch_s": total(inclusive,
                                      "transfer:GnutellaNetwork.fetch",
                                      "transfer:OpenFTNetwork.fetch"),
            "core.measure.download_attempts": attempts,
            "core.measure.download_retries": (
                attempts - calls.get("core.measure:Downloader.enqueue", 0)),
            "core.measure.download_successes": tally("successes", 0),
            "core.measure.store_io_s": total(
                inclusive, "core.measure:MeasurementStore.save",
                "core.measure:MeasurementStore.load"),
            "scanner.scans": calls.get("scanner:ScanEngine.scan", 0),
            "scanner.scan_s": inclusive.get("scanner:ScanEngine.scan", 0.0),
            "scanner.scan_requests": tally("scan_requests", 0),
            "scanner.cache_hits": tally("cache_hits", 0),
            # the analysis step minus re-reading the saved store
            "core.analysis.render_s": (
                sum(value for key, value in inclusive.items()
                    if key.startswith("core.analysis:"))
                - inclusive.get("core.measure:MeasurementStore.load", 0.0)),
            "telemetry.write_s": inclusive.get(
                "telemetry:CampaignTelemetry.write_outputs", 0.0),
            "faults.injected": tally("injected", 0),
            "resilience.journal_records": calls.get(
                "resilience:CheckpointJournal.record", 0),
            "resilience.journal_s": inclusive.get(
                "resilience:CheckpointJournal.record", 0.0),
            "python.gc_s": inclusive.get("python:gc", 0.0),
            "python.gc_collections": calls.get("python:gc", 0),
            "unattributed_s": fold.unattributed_s,
            "trace.wall_s": fold.root_s,
            "trace.spans": sum(fold.name_calls.values()),
        }
        for layer in LAYERS:
            totals[f"{layer}.self_s"] = fold.layer_self.get(layer, 0.0)
        return totals


def combine(shares: List[Dict[str, float]]) -> Dict[str, float]:
    """Add up :meth:`Probes.layer_totals` of a run's repetitions; a
    resident-set growth is the largest one seen, not a sum."""
    combined: Dict[str, float] = {}
    for share in shares:
        for key, value in share.items():
            if key.endswith("_rss_mb"):
                combined[key] = max(combined.get(key, value), value)
            else:
                combined[key] = combined.get(key, 0) + value
    return combined


def per_layer(totals: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric but ``trace.overhead_frac``, from
    :func:`combine`'s totals (the fractions are taken last, over the
    summed counts)."""
    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = dict(totals)
    delivered = metrics.pop("simnet.delivered")
    metrics["simnet.delivered_frac"] = ratio(
        delivered, delivered + metrics["simnet.dropped"])
    metrics["core.measure.download_ok_frac"] = ratio(
        metrics.pop("core.measure.download_successes"),
        metrics["core.measure.download_attempts"])
    metrics["scanner.cache_hit_frac"] = ratio(
        metrics.pop("scanner.cache_hits"),
        metrics.pop("scanner.scan_requests"))
    return metrics
