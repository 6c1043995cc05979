"""Kernel hotspot report from the sampled callback wall-time histograms.

The kernel hook (:mod:`repro.telemetry.kernel`) times one in
``sample_every`` event callbacks with a ``perf_counter()`` pair and
buckets the readings into ``sim_callback_wall_seconds{label}``; the
simulator separately counts *every* event per label in
``sim_events_total{label}``.  A :class:`HotspotReport` combines the
two: the sampled mean per label, scaled by that label's full event
count, estimates where the campaign's wall time actually went -- a
per-label profile that costs ~1/64th of a real profiler and is always
on.

The report is a pure function of a :class:`MetricRegistry`, so it
works on live runs and merged replication registries alike.
``repro-study run --telemetry-dir`` prints it after each campaign, and
the observability plane serves it as ``/hotspots.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from .registry import Histogram, MetricRegistry

__all__ = ["Hotspot", "HotspotReport"]

#: metric names the report is built from
CALLBACK_HISTOGRAM = "sim_callback_wall_seconds"
EVENTS_COUNTER = "sim_events_total"
SAMPLE_INTERVAL_GAUGE = "sim_callback_sample_interval"


@dataclass(frozen=True)
class Hotspot:
    """One schedule label's sampled wall-time profile."""

    label: str
    #: callbacks actually timed (1-in-N sampled)
    sampled: int
    #: wall seconds across the sampled callbacks
    sampled_total_s: float
    #: mean wall seconds per sampled callback
    mean_s: float
    #: bucket-interpolated percentiles of the sampled distribution
    p50_s: float
    p95_s: float
    #: every event the kernel ran under this label (not just sampled)
    events: int
    #: ``mean_s * events``: estimated total wall time attributed
    estimated_total_s: float
    #: share of the summed estimate across all labels
    share: float

    def to_dict(self) -> dict:
        """JSON-able row for the machine-readable dump."""
        return {
            "label": self.label, "sampled": self.sampled,
            "sampled_total_s": self.sampled_total_s,
            "mean_s": self.mean_s, "p50_s": self.p50_s,
            "p95_s": self.p95_s, "events": self.events,
            "estimated_total_s": self.estimated_total_s,
            "share": self.share,
        }


def _percentile(bounds: Tuple[float, ...], counts: List[int],
                count: int, q: float) -> float:
    """Quantile ``q`` from per-bucket counts (+Inf bucket last).

    Linear interpolation inside the winning bucket; the +Inf bucket
    reports the last finite boundary (there is nothing to interpolate
    toward).
    """
    if count <= 0:
        return 0.0
    target = q * count
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        previous = cumulative
        cumulative += bucket_count
        if cumulative >= target:
            if index >= len(bounds):  # +Inf bucket
                return bounds[-1]
            low = bounds[index - 1] if index > 0 else 0.0
            high = bounds[index]
            if bucket_count == 0:
                return high
            return low + (high - low) * (target - previous) / bucket_count
    return bounds[-1]


@dataclass(frozen=True)
class HotspotReport:
    """Per-label hotspots, heaviest estimated wall time first."""

    hotspots: Tuple[Hotspot, ...]
    sample_every: int
    #: sum of the per-label estimates (the denominator of ``share``)
    estimated_total_s: float

    @classmethod
    def from_registry(cls, registry: MetricRegistry) -> "HotspotReport":
        """Build the report from a registry holding the kernel metrics."""
        histogram = registry.get(CALLBACK_HISTOGRAM)
        events_counter = registry.get(EVENTS_COUNTER)
        interval_gauge = registry.get(SAMPLE_INTERVAL_GAUGE)
        sample_every = (int(interval_gauge.value)
                        if interval_gauge is not None
                        and interval_gauge.value >= 1 else 64)
        events_by_label: Dict[str, int] = {}
        if events_counter is not None and events_counter.label_names:
            for label_values, leaf in events_counter.samples():
                events_by_label[label_values[0]] = int(leaf._value)
        rows: List[Hotspot] = []
        if histogram is not None and histogram.label_names:
            for label_values, leaf in histogram.samples():
                assert isinstance(leaf, Histogram)
                label = label_values[0]
                sampled = leaf._count
                if not sampled:
                    continue
                total_s = leaf._sum
                mean_s = total_s / sampled
                counts = list(leaf._counts)
                events = events_by_label.get(label, 0)
                rows.append(Hotspot(
                    label=label, sampled=sampled,
                    sampled_total_s=total_s, mean_s=mean_s,
                    p50_s=_percentile(leaf.buckets, counts, sampled, 0.50),
                    p95_s=_percentile(leaf.buckets, counts, sampled, 0.95),
                    events=events,
                    estimated_total_s=mean_s * events,
                    share=0.0))
        total = sum(row.estimated_total_s for row in rows)
        rows = [replace(row, share=(row.estimated_total_s / total
                                    if total else 0.0))
                for row in rows]
        rows.sort(key=lambda row: (-row.estimated_total_s, row.label))
        return cls(hotspots=tuple(rows), sample_every=sample_every,
                   estimated_total_s=total)

    def top(self, n: int) -> Tuple[Hotspot, ...]:
        """The ``n`` heaviest labels."""
        return self.hotspots[:n]

    def render(self, top: int = 15) -> str:
        """Fixed-width top-N table."""
        lines = [
            f"kernel hotspots (1-in-{self.sample_every} sampled callback "
            f"wall time, estimated total "
            f"{self.estimated_total_s:.3f}s)",
            f"{'label':<22s} {'events':>10s} {'sampled':>8s} "
            f"{'mean us':>9s} {'p50 us':>8s} {'p95 us':>8s} "
            f"{'est s':>8s} {'share':>6s}",
        ]
        for row in self.top(top):
            lines.append(
                f"{row.label:<22s} {row.events:>10d} {row.sampled:>8d} "
                f"{row.mean_s * 1e6:>9.1f} {row.p50_s * 1e6:>8.1f} "
                f"{row.p95_s * 1e6:>8.1f} {row.estimated_total_s:>8.3f} "
                f"{row.share:>6.1%}")
        if len(self.hotspots) > top:
            lines.append(f"... {len(self.hotspots) - top} more label(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Machine-readable dump (the ``/hotspots.json`` body)."""
        return {
            "sample_every": self.sample_every,
            "estimated_total_s": self.estimated_total_s,
            "hotspots": [row.to_dict() for row in self.hotspots],
        }
