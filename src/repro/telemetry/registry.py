"""Typed metric instruments and the registry that owns them.

Three instrument kinds, deliberately mirroring the Prometheus data
model so the export is a straight rendering:

* :class:`Counter` -- monotonically increasing totals;
* :class:`Gauge` -- point-in-time values (queue depth, virtual time);
* :class:`Histogram` -- observations bucketed at fixed boundaries
  (callback wall time, download delays).

Every instrument may declare label names; ``labels(*values)`` returns a
cached child so the hot path is one dict lookup plus a float add --
cheap enough to leave enabled everywhere (the telemetry leg of
``benchmarks/overhead.py`` gates what it costs a campaign).  A
:class:`MetricRegistry` get-or-creates instruments by name
(re-registration with a different kind or label set is an error, and
the first registration must carry help text so every exported family
renders ``# HELP`` + ``# TYPE``), renders the Prometheus text format,
and round-trips through plain-dict snapshots so per-worker registries
from a process pool can be merged deterministically into a parent
(counters and histograms sum; gauges keep the max).

A process-global default registry is available through
:func:`get_registry` / :func:`set_registry` for code that wants metrics
without threading a registry around; campaign runs use their own
registry per run so replications never share instruments.
"""

from __future__ import annotations

import re
import warnings
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricRegistry",
           "DEFAULT_BUCKETS", "OVERFLOW_LABEL", "get_registry",
           "set_registry"]

#: Label value that absorbs samples past an instrument's cardinality cap.
OVERFLOW_LABEL = "_overflow_"

#: Default histogram boundaries (seconds): microseconds through 1s,
#: tuned for event-callback and scan wall times.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1,
    0.5, 1.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape per the Prometheus text exposition format."""
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    """Render ints without a trailing ``.0`` (matches promtool output)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Instrument:
    """Shared name/help/label plumbing; subclasses define the value."""

    kind = "untyped"

    #: per-instrument cap on distinct label-value children; set by the
    #: owning :class:`MetricRegistry`, None means unbounded.  A metric
    #: whose label values track population identifiers would otherwise
    #: grow without limit (the failure mode the constant delivery label
    #: in :mod:`repro.simnet.transport` exists to prevent).
    max_cardinality: Optional[int] = None

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._children: Dict[Tuple[str, ...], "_Instrument"] = {}

    def labels(self, *values: str) -> "_Instrument":
        """The cached child for one label-value combination.

        Once an instrument holds :attr:`max_cardinality` distinct
        children, further *new* combinations collapse into a single
        ``_overflow_`` child (existing combinations keep resolving to
        their own child), and a RuntimeWarning fires once per
        instrument -- the totals stay right while the label explosion
        is both bounded and loud.
        """
        if not self.label_names:
            raise ValueError(f"{self.name} declares no labels")
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} wants {len(self.label_names)} label "
                f"value(s), got {len(values)}")
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            limit = self.max_cardinality
            if limit is not None and len(self._children) >= limit:
                key = (OVERFLOW_LABEL,) * len(self.label_names)
                child = self._children.get(key)
                if child is None:
                    warnings.warn(
                        f"metric {self.name} exceeded its label "
                        f"cardinality cap ({limit}); new label "
                        f"combinations are folded into "
                        f"{OVERFLOW_LABEL!r}", RuntimeWarning,
                        stacklevel=2)
                    child = self._make_child()
                    self._children[key] = child
                return child
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self) -> "_Instrument":
        raise NotImplementedError

    def _check_unlabelled(self) -> None:
        if self.label_names:
            raise ValueError(
                f"{self.name} is labelled; use .labels(...) first")

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], "_Instrument"]]:
        """(label values, leaf instrument) pairs, children sorted."""
        if self.label_names:
            for key in sorted(self._children):
                yield key, self._children[key]
        else:
            yield (), self


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._check_unlabelled()
        self._value += amount

    @property
    def value(self) -> float:
        """Current total (sum of children for labelled counters)."""
        if self.label_names:
            return sum(child._value for child in self._children.values())
        return self._value


class Gauge(_Instrument):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        """Replace the current value."""
        self._check_unlabelled()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the current value by ``amount``."""
        self._check_unlabelled()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Adjust the current value by ``-amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current value (labelled gauges have per-child values only)."""
        if self.label_names:
            raise ValueError(f"{self.name} is labelled; read a child")
        return self._value


class Histogram(_Instrument):
    """Observations counted into fixed, ascending bucket boundaries.

    Boundaries are upper-inclusive (Prometheus ``le`` semantics): an
    observation exactly on a boundary lands in that boundary's bucket.
    An implicit ``+Inf`` bucket catches everything beyond the last
    boundary.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"{name}: buckets must be non-empty, ascending, unique")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.buckets)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._check_unlabelled()
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        """Number of observations."""
        if self.label_names:
            return sum(child._count for child in self._children.values())
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observed values."""
        if self.label_names:
            return sum(child._sum for child in self._children.values())
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts, +Inf last."""
        self._check_unlabelled()
        return list(self._counts)


class MetricRegistry:
    """Named instruments with get-or-create semantics and export.

    ``max_label_cardinality`` caps how many distinct label-value
    children each labelled instrument may grow (see
    :meth:`_Instrument.labels`); pass None to disable the guard.
    """

    def __init__(self,
                 max_label_cardinality: Optional[int] = 1000) -> None:
        if max_label_cardinality is not None and max_label_cardinality < 1:
            raise ValueError(
                f"max_label_cardinality must be positive or None, "
                f"got {max_label_cardinality!r}")
        self.max_label_cardinality = max_label_cardinality
        self._metrics: Dict[str, _Instrument] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[_Instrument]:
        return iter(self._metrics.values())

    def get(self, name: str) -> Optional[_Instrument]:
        """The instrument registered under ``name``, if any."""
        return self._metrics.get(name)

    def _get_or_create(self, cls, name: str, help: str,
                       label_names: Sequence[str], **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if (type(existing) is not cls
                    or existing.label_names != tuple(label_names)):
                raise ValueError(
                    f"{name} already registered as {existing.kind} with "
                    f"labels {existing.label_names}")
            return existing
        if not help:
            # every registered family must render a # HELP line, so the
            # /metrics body always parses under the Prometheus text
            # format; looking up an existing instrument needs no help
            raise ValueError(
                f"{name}: help text is required when registering a new "
                f"instrument")
        instrument = cls(name, help, label_names, **kwargs)
        instrument.max_cardinality = self.max_label_cardinality
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        """Get-or-create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        """Get-or-create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get-or-create a :class:`Histogram` with fixed ``buckets``."""
        histogram = self._get_or_create(Histogram, name, help, labels,
                                        buckets=buckets)
        if histogram.buckets != tuple(float(b) for b in buckets):
            raise ValueError(f"{name} already registered with different "
                             f"buckets {histogram.buckets}")
        return histogram

    # -- export -------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, metrics sorted by name."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            # every family emits both comment lines unconditionally:
            # registration rejects empty help, so the body is always
            # parseable under the Prometheus text-format rules
            lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for label_values, leaf in metric.samples():
                pairs = ", ".join(
                    f'{label}="{_escape_label_value(value)}"'
                    for label, value in zip(metric.label_names,
                                            label_values))
                suffix = "{" + pairs + "}" if pairs else ""
                if isinstance(leaf, Histogram):
                    lines.extend(self._render_histogram(
                        name, metric.label_names, label_values, leaf))
                else:
                    lines.append(
                        f"{name}{suffix} {_format_value(leaf.value)}")
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _render_histogram(name: str, label_names: Tuple[str, ...],
                          label_values: Tuple[str, ...],
                          histogram: Histogram) -> List[str]:
        pairs = [f'{label}="{_escape_label_value(value)}"'
                 for label, value in zip(label_names, label_values)]

        def with_le(bound: str) -> str:
            return "{" + ", ".join(pairs + [f'le="{bound}"']) + "}"

        suffix = "{" + ", ".join(pairs) + "}" if pairs else ""
        lines = []
        cumulative = 0
        for bound, count in zip(histogram.buckets,
                                histogram.bucket_counts()):
            cumulative += count
            lines.append(f"{name}_bucket{with_le(_format_value(bound))} "
                         f"{cumulative}")
        lines.append(f"{name}_bucket{with_le('+Inf')} {histogram._count}")
        lines.append(f"{name}_sum{suffix} "
                     f"{_format_value(histogram._sum)}")
        lines.append(f"{name}_count{suffix} {histogram._count}")
        return lines

    # -- snapshots and merging ---------------------------------------------
    def snapshot(self) -> dict:
        """A plain-dict (picklable, JSON-able) copy of every value."""
        metrics = []
        for name, metric in self._metrics.items():
            entry: dict = {"name": name, "kind": metric.kind,
                           "help": metric.help,
                           "labels": list(metric.label_names)}
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            samples = []
            for label_values, leaf in metric.samples():
                if isinstance(leaf, Histogram):
                    value: object = {"counts": list(leaf._counts),
                                     "sum": leaf._sum,
                                     "count": leaf._count}
                else:
                    value = leaf._value
                samples.append([list(label_values), value])
            entry["samples"] = samples
            metrics.append(entry)
        return {"metrics": metrics}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histograms add; gauges keep the maximum (there is
        no meaningful sum of point-in-time values across workers).
        Merging the same snapshots in the same order always produces
        the same registry, which is what makes parallel replication
        telemetry deterministic.
        """
        for entry in snapshot["metrics"]:
            kind, name = entry["kind"], entry["name"]
            labels = entry["labels"]
            if kind == "counter":
                metric: _Instrument = self.counter(name, entry["help"],
                                                   labels)
            elif kind == "gauge":
                metric = self.gauge(name, entry["help"], labels)
            elif kind == "histogram":
                metric = self.histogram(name, entry["help"], labels,
                                        buckets=entry["buckets"])
            else:
                raise ValueError(f"unknown instrument kind {kind!r}")
            for label_values, value in entry["samples"]:
                leaf = metric.labels(*label_values) if labels else metric
                if kind == "counter":
                    leaf._value += value
                elif kind == "gauge":
                    leaf._value = max(leaf._value, value)
                else:
                    assert isinstance(leaf, Histogram)
                    if len(value["counts"]) != len(leaf._counts):
                        raise ValueError(
                            f"{name}: bucket count mismatch in snapshot")
                    for index, count in enumerate(value["counts"]):
                        leaf._counts[index] += count
                    leaf._sum += value["sum"]
                    leaf._count += value["count"]


_default_registry = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-global default registry."""
    return _default_registry


def set_registry(registry: MetricRegistry) -> MetricRegistry:
    """Swap the process-global default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
