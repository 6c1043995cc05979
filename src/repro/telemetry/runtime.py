"""The per-run telemetry bundle campaigns thread through their layers.

One :class:`CampaignTelemetry` owns everything observable about one
campaign run: a private :class:`MetricRegistry` (never shared between
replications, so per-seed numbers stay per-seed), a :class:`SpanTracer`
for query->response->download->scan chains, the kernel hook, and an
optional :class:`RunJournal`.  ``for_directory`` builds the
conventional on-disk layout::

    <dir>/<name>_journal.jsonl   written live during the run
    <dir>/<name>_metrics.prom    written by write_outputs()
    <dir>/<name>_spans.jsonl     written by write_outputs()
    <dir>/<name>_trace.json      written by write_outputs()

The bundle is cheap to construct and safe to ignore: every campaign
entry point takes ``telemetry=None`` and skips all of this when unset.
:meth:`CampaignTelemetry.serve` additionally exposes the bundle live
over HTTP (read-only; see :mod:`~repro.telemetry.httpd`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from .journal import RunJournal
from .kernel import KernelTelemetry
from .registry import MetricRegistry
from .spans import SpanTracer

__all__ = ["CampaignTelemetry"]


@dataclass
class CampaignTelemetry:
    """Registry + tracer + kernel hook + optional journal for one run."""

    registry: MetricRegistry = field(default_factory=MetricRegistry)
    tracer: SpanTracer = field(default_factory=SpanTracer)
    journal: Optional[RunJournal] = None
    kernel: KernelTelemetry = field(init=False)

    def __post_init__(self) -> None:
        self.kernel = KernelTelemetry(self.registry)

    @classmethod
    def for_directory(cls, directory: Path, name: str) -> "CampaignTelemetry":
        """A bundle whose journal lives at ``<directory>/<name>_journal.jsonl``.

        The journal derives its snapshot cadence from the run horizon
        at install time (see :class:`RunJournal`).
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        registry = MetricRegistry()
        journal = RunJournal(directory / f"{name}_journal.jsonl",
                             registry=registry)
        return cls(registry=registry, journal=journal)

    def write_outputs(self, directory: Path, name: str) -> Dict[str, Path]:
        """Dump metrics + spans + trace under ``directory``; returns the paths."""
        from .tracer import write_trace
        from ..resilience import atomic_write_text
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        metrics_path = directory / f"{name}_metrics.prom"
        atomic_write_text(metrics_path, self.registry.render_prometheus())
        spans_path = directory / f"{name}_spans.jsonl"
        self.tracer.to_jsonl(spans_path)
        trace_path = directory / f"{name}_trace.json"
        write_trace(self.tracer, trace_path, process_name=name)
        written = {"metrics": metrics_path, "spans": spans_path,
                   "trace": trace_path}
        if self.journal is not None:
            written["journal"] = self.journal.path
        return written

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              name: str = "campaign"):
        """Expose this bundle live over HTTP; returns the started server.

        The server is read-only and off the hot path (see
        :mod:`~repro.telemetry.httpd`); callers own ``stop()``.
        """
        from .httpd import ObservatoryHub, TelemetryServer
        hub = ObservatoryHub(title=name)
        hub.add_campaign(name, self)
        return TelemetryServer(hub, host=host, port=port).start()
