"""The run journal: periodic JSONL progress snapshots for a live run.

The paper's authors could watch their instrumented clients collect
responses for a month; a :class:`RunJournal` gives a campaign the same
property.  Installed on a simulator it appends one JSON line per
virtual ``interval_s`` -- virtual time, wall time, events processed,
events/sec since the previous snapshot, plus whatever ``probes`` the
campaign wires in (responses collected, downloads in flight, scan
cache hit rate, top malware so far) -- flushed and fsynced after every
write (a :class:`~repro.resilience.store.DurableAppender`) so ``tail
-f`` on the file shows live progress, a SIGKILL costs at most the
snapshot being written, and the finished file is a machine-readable
record of how the run unfolded.  Rows stay bare JSON objects (not
CRC32 frames): the dashboard's journal tailer reads fields at the top
level, and a torn final line is already tolerated on every read path.

Probe callables must never kill a campaign: a raising probe records
``None`` for its field and bumps the journal's error counter instead.

The snapshot cadence defaults to *auto*: ``interval_s=None`` resolves
at :meth:`RunJournal.install` time to horizon/100 clamped to [1s,
3600s], so a 0.1-virtual-day run still journals ~100 lines instead of
two.  Pass ``interval_s=3600.0`` explicitly to reproduce the fixed
hourly cadence of pre-auto runs (journal snapshots are scheduler
events, so the cadence is part of a run's event digest).
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from ..resilience import DurableAppender
from .registry import MetricRegistry

__all__ = ["RunJournal"]

Probe = Callable[[], object]


class RunJournal:
    """Periodic JSONL snapshots of a running simulation."""

    #: clamp bounds for the auto-derived snapshot interval (seconds)
    AUTO_MIN_S = 1.0
    AUTO_MAX_S = 3600.0
    #: horizon divisor for the auto interval: ~100 lines per run
    AUTO_DIVISOR = 100.0

    def __init__(self, path: Path, interval_s: Optional[float] = None,
                 probes: Optional[Dict[str, Probe]] = None,
                 registry: Optional[MetricRegistry] = None) -> None:
        # written so nan fails too; inf would overflow the scheduler
        if interval_s is not None and not 0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be finite and positive, got "
                f"{interval_s!r}")
        self.path = Path(path)
        #: None = auto (resolved against the horizon at install time)
        self.interval_s = interval_s
        self.probes: Dict[str, Probe] = dict(probes or {})
        self.snapshots_written = 0
        self.probe_errors = 0
        self._appender: Optional[DurableAppender] = None
        self._started_wall: Optional[float] = None
        self._last_wall: Optional[float] = None
        self._last_events = 0
        self._snapshot_counter = None
        if registry is not None:
            self._snapshot_counter = registry.counter(
                "journal_snapshots_total",
                "Journal snapshot lines written for this run.")

    def add_probe(self, name: str, probe: Probe) -> None:
        """Add one named field computed at every snapshot."""
        self.probes[name] = probe

    def resolve_interval(self, horizon_s: Optional[float] = None) -> float:
        """The effective snapshot cadence in virtual seconds.

        An explicit ``interval_s`` wins unchanged; in auto mode the
        cadence is ``horizon_s / AUTO_DIVISOR`` clamped to
        ``[AUTO_MIN_S, AUTO_MAX_S]`` (hourly when no horizon is known).
        """
        if self.interval_s is not None:
            return self.interval_s
        if horizon_s is None or horizon_s <= 0:
            return self.AUTO_MAX_S
        return min(self.AUTO_MAX_S,
                   max(self.AUTO_MIN_S, horizon_s / self.AUTO_DIVISOR))

    def install(self, sim, until: Optional[float] = None) -> None:
        """Schedule periodic snapshots on ``sim`` (label ``journal``).

        ``until`` bounds the schedule the same way ``Simulator.every``
        does; campaigns pass their drain horizon so the journal never
        keeps an otherwise-finished queue alive.  In auto mode the
        cadence resolves here against ``until - sim.now`` and is pinned
        on ``interval_s`` so later readers see the value actually
        scheduled.
        """
        self._open()
        horizon = until - sim.now if until is not None else None
        self.interval_s = self.resolve_interval(horizon)
        sim.every(self.interval_s, lambda: self.snapshot(sim),
                  label="journal", until=until)

    def _open(self) -> None:
        if self._appender is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # a fresh journal per run (the appender itself only ever
            # appends, so a re-run must clear the previous run's rows)
            try:
                self.path.unlink()
            except OSError:
                pass
            self._appender = DurableAppender(self.path, framed=False)
            self._started_wall = time.perf_counter()
            self._last_wall = self._started_wall

    def _events_processed(self, sim) -> int:
        # mid-run, sim.events_processed lags (it accumulates when
        # run_until returns); the kernel telemetry's live dict does not
        telemetry = getattr(sim, "telemetry", None)
        if telemetry is not None:
            return telemetry.events_seen
        return sim.events_processed

    def snapshot(self, sim, final: bool = False) -> dict:
        """Write one snapshot line and return the row."""
        self._open()
        now_wall = time.perf_counter()
        events = self._events_processed(sim)
        wall_delta = now_wall - (self._last_wall or now_wall)
        event_delta = events - self._last_events
        row: Dict[str, object] = {
            "virtual_time": sim.now,
            "wall_time_s": round(now_wall - (self._started_wall
                                             or now_wall), 6),
            "events_processed": events,
            "events_per_sec": (event_delta / wall_delta
                               if wall_delta > 0 else 0.0),
            "queue_depth": len(sim.queue),
        }
        if final:
            row["final"] = True
        for name, probe in self.probes.items():
            try:
                row[name] = probe()
            except Exception:  # a broken probe must not kill the run
                row[name] = None
                self.probe_errors += 1
        assert self._appender is not None
        self._appender.append(row)
        self.snapshots_written += 1
        if self._snapshot_counter is not None:
            self._snapshot_counter.inc()
        self._last_wall = now_wall
        self._last_events = events
        return row

    def close(self, sim=None) -> None:
        """Write a final snapshot (when ``sim`` given) and close the file."""
        if sim is not None:
            self.snapshot(sim, final=True)
        if self._appender is not None:
            self._appender.close()
            self._appender = None
