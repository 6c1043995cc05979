"""First-class observability for campaigns, kernels and benchmarks.

The telemetry layer sits beside ``simnet`` at the bottom of the stack
(stdlib only, no repro imports except within this package) and offers
four pieces:

* :mod:`~repro.telemetry.registry` -- typed metric instruments
  (:class:`Counter`, :class:`Gauge`, :class:`Histogram`) in a
  :class:`MetricRegistry` with Prometheus text export and
  deterministic cross-process snapshot merging;
* :mod:`~repro.telemetry.spans` -- explicit-parent span tracing for
  query->response->download->scan chains across virtual time;
* :mod:`~repro.telemetry.journal` -- periodic JSONL progress
  snapshots (``tail -f`` a running campaign);
* :mod:`~repro.telemetry.kernel` / :mod:`~repro.telemetry.runtime` --
  the simulator hook and the per-run bundle campaigns thread through
  their layers;
* :mod:`~repro.telemetry.httpd` -- the live observability plane: a
  read-only HTTP server (``/metrics``, ``/healthz``, ``/snapshot.json``,
  ``/journal``, an HTML dashboard at ``/``) over one or many bundles,
  imported on first use of one of its names, since ``http.server``
  loads ``email``, ``html``, ``http.client`` and ``ssl``, which no
  campaign needs;
* :mod:`~repro.telemetry.tracer` -- span chains rendered as Chrome
  trace-event JSON (Perfetto-loadable, infection -> query causality);
* :mod:`~repro.telemetry.profiler` -- per-label kernel hotspot reports
  from the sampled callback wall-time histograms.
"""

from .journal import RunJournal
from .kernel import KernelTelemetry
from .profiler import Hotspot, HotspotReport
from .registry import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                       MetricRegistry, get_registry, set_registry)
from .runtime import CampaignTelemetry
from .spans import Span, SpanTracer
from .tracer import build_trace, chain_roots, infected_roots, write_trace

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricRegistry", "DEFAULT_BUCKETS",
    "get_registry", "set_registry",
    "Span", "SpanTracer",
    "RunJournal",
    "KernelTelemetry",
    "CampaignTelemetry",
    "ObservatoryHub", "TelemetryServer", "tail_journal",
    "Hotspot", "HotspotReport",
    "build_trace", "chain_roots", "infected_roots", "write_trace",
]

_HTTPD_NAMES = ("ObservatoryHub", "TelemetryServer", "tail_journal")


def __getattr__(name: str):
    """Import :mod:`~repro.telemetry.httpd` when one of its names is
    first read (PEP 562)."""
    if name in _HTTPD_NAMES:
        from . import httpd
        return getattr(httpd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
