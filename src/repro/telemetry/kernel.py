"""Kernel instrumentation: what the event loop does with its time.

:class:`KernelTelemetry` is the object a :class:`~repro.simnet.kernel.
Simulator` accepts via its ``telemetry=`` argument.  The contract is
deliberately minimal so the simulator never imports this package:

* the simulator bumps ``label_counts[event.label]`` for **every**
  event -- a plain dict get/set, the cheapest possible hot path;
* every ``sample_every``-th event it wraps the callback in a
  ``perf_counter()`` pair and calls :meth:`observe_callback`, so
  per-label wall-time histograms cost almost nothing on average;
* at the end of each ``run_until`` it calls :meth:`flush`, which folds
  the raw dict into the registry's labelled counter and refreshes the
  queue and virtual-time gauges.

``label_counts`` holds cumulative totals; ``flush`` pushes deltas, so
flushing twice never double-counts.
"""

from __future__ import annotations

from typing import Dict, Optional

from .registry import MetricRegistry, get_registry

__all__ = ["KernelTelemetry"]

#: Histogram boundaries for sampled callback wall time (seconds).
CALLBACK_BUCKETS = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.1)


class KernelTelemetry:
    """Counters, sampled timings and gauges for one simulator."""

    def __init__(self, registry: Optional[MetricRegistry] = None,
                 sample_every: int = 64) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every!r}")
        self.registry = registry if registry is not None else get_registry()
        self.sample_every = sample_every
        #: cumulative events per schedule label, written by the simulator
        self.label_counts: Dict[str, int] = {}
        #: simulator-owned sampling phase (events since the last sample)
        self.since_sample = 0
        self._flushed: Dict[str, int] = {}
        self._events = self.registry.counter(
            "sim_events_total",
            "Events processed by the kernel, per schedule label.",
            labels=("label",))
        self._callback_seconds = self.registry.histogram(
            "sim_callback_wall_seconds",
            "Sampled wall-clock time spent inside event callbacks.",
            labels=("label",), buckets=CALLBACK_BUCKETS)
        self._queue_depth = self.registry.gauge(
            "sim_queue_depth", "Live events waiting in the queue.")
        self._queue_dead = self.registry.gauge(
            "sim_queue_dead_events",
            "Cancelled events still occupying the scheduler.")
        self._cancelled = self.registry.gauge(
            "sim_queue_cancelled_total",
            "Events ever cancelled through the queue (monotonic).")
        self._virtual_time = self.registry.gauge(
            "sim_virtual_time_seconds", "Current virtual clock reading.")
        self.registry.gauge(
            "sim_callback_sample_interval",
            "Denominator N of the 1-in-N callback wall-time sampling "
            "(hotspot reports scale sampled means by it).",
        ).set(sample_every)

    @property
    def events_seen(self) -> int:
        """Total events counted so far (live, mid-run accurate)."""
        return sum(self.label_counts.values())

    def observe_callback(self, label: str, seconds: float) -> None:
        """Record one sampled callback duration."""
        self._callback_seconds.labels(label).observe(seconds)

    def flush(self, sim) -> None:
        """Fold raw counts into the registry and refresh the gauges."""
        flushed = self._flushed
        for label, total in self.label_counts.items():
            delta = total - flushed.get(label, 0)
            if delta:
                self._events.labels(label).inc(delta)
                flushed[label] = total
        queue = sim.queue
        self._queue_depth.set(len(queue))
        self._queue_dead.set(queue.dead_events)
        self._cancelled.set(queue.cancelled_total)
        self._virtual_time.set(sim.now)
