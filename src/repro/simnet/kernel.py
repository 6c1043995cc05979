"""The discrete-event simulation kernel.

A :class:`Simulator` owns the virtual clock, the event queue and the stream
registry.  Protocol nodes schedule callbacks (timers, message deliveries)
and the kernel advances virtual time event by event until a stop condition.

The kernel is deliberately tiny -- the complexity of the reproduction lives
in the protocol and ecosystem layers -- but it enforces the two invariants
everything else depends on: time never runs backwards, and same-seed runs
replay identically.
"""

from __future__ import annotations

from typing import Callable, Optional

from .clock import VirtualClock
from .events import Event
from .rng import SeededStream, StreamRegistry
from .sched import TieredEventQueue

__all__ = ["Simulator"]


class Simulator:
    """Event loop + clock + seeded randomness for one campaign."""

    def __init__(self, seed: int = 0, start_time: float = 0.0,
                 telemetry=None) -> None:
        self.clock = VirtualClock(start_time)
        #: calendar-queue + timer-wheel scheduler (see simnet.sched)
        self.queue = TieredEventQueue()
        self.streams = StreamRegistry(seed)
        self.seed = seed
        self.events_processed = 0
        self._halted = False
        #: optional :class:`repro.telemetry.KernelTelemetry` (duck-typed
        #: so this bottom layer never imports the telemetry package): the
        #: loop bumps ``telemetry.label_counts`` per event, wraps every
        #: ``telemetry.sample_every``-th callback in a wall-time sample,
        #: and calls ``telemetry.flush(self)`` when run_until returns
        self.telemetry = telemetry

    # -- time -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.clock.now

    # -- randomness ---------------------------------------------------------
    def stream(self, name: str) -> SeededStream:
        """Named deterministic random stream (see :mod:`repro.simnet.rng`)."""
        return self.streams.stream(name)

    # -- scheduling ---------------------------------------------------------
    def at(self, time: float, callback: Callable[[], None],
           label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual ``time``.

        Scheduling in the past is a programming error and raises.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time!r}, clock already at {self.now!r}")
        return self.queue.push(time, callback, label)

    def after(self, delay: float, callback: Callable[[], None],
              label: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.queue.push(self.now + delay, callback, label)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (safe to call any number of times)."""
        self.queue.cancel(event)

    def every(self, interval: float, callback: Callable[[], None],
              label: str = "", jitter: Optional[SeededStream] = None,
              until: Optional[float] = None) -> None:
        """Run ``callback`` periodically until ``until`` (or forever).

        With a ``jitter`` stream, each period is uniformly perturbed by up to
        +/-10% so that periodic behaviours across thousands of simulated
        peers do not phase-lock -- the same reason real servents jitter their
        keepalives.
        """
        if interval <= 0:
            raise ValueError(f"non-positive interval {interval!r}")

        def tick() -> None:
            if until is not None and self.now > until:
                return
            callback()
            delay = interval
            if jitter is not None:
                delay *= jitter.uniform(0.9, 1.1)
            next_time = self.now + delay
            if until is None or next_time <= until:
                self.queue.push(next_time, tick, label)

        first = interval if jitter is None else interval * jitter.uniform(0.0, 1.0)
        self.queue.push(self.now + first, tick, label)

    # -- running ------------------------------------------------------------
    def halt(self) -> None:
        """Stop the run loop after the current event returns."""
        self._halted = True

    def _drain_windowed(self, end_time: float, limit: float) -> int:
        """Drain loops riding the tiered scheduler's window.

        ``TieredEventQueue._head`` leaves the cursor on a live head of
        the activated (tombstone-filtered, sorted) window; between
        ``_head`` calls these loops consume the window list by index --
        two list indexings and an integer bump per event instead of a
        ``pop_ready`` method call.  The riding is exact: events fire in
        ``pop_ready`` order.

        The clock advances by direct assignment behind an explicit
        monotonicity guard (the invariant ``VirtualClock.advance_to``
        enforces, without a method call per event), and args-carrying
        events dispatch without a closure: ``callback(*args)``.  Also:

        * the queue cursor/counters (``_pos``/``_live`` and the home
          cell's live count) are synced *before* every callback, so a
          callback observes the same queue state ``pop_ready`` would
          have left (``len(queue)``, gauges, ``peek_time``);
        * a callback pushing into the active window bisect-inserts at
          an index >= the synced cursor (its time is >= now), so the
          re-read ``entries[pos]`` picks it up in (time, seq) order;
        * cancels only flip tombstone flags, handled by the in-loop
          skip (a cancelled head is discarded even beyond the horizon);
        * ``halt()`` and ``max_events`` are honoured per event.
        """
        queue, clock = self.queue, self.clock
        telemetry = self.telemetry
        head = queue._head
        processed = 0
        if telemetry is None:
            while not self._halted and processed < limit:
                entry = head()
                if entry is None or entry[0] > end_time:
                    break
                entries = queue._entries
                pos = queue._pos
                while True:
                    event = entry[2]
                    if event.cancelled:
                        pos += 1
                        if queue._dead > 0:
                            queue._dead -= 1
                    else:
                        time = entry[0]
                        if time > end_time:
                            queue._pos = pos
                            break
                        if time < clock._now:
                            raise ValueError(
                                f"clock cannot run backwards: "
                                f"now={clock._now!r}, target={time!r}")
                        pos += 1
                        queue._pos = pos
                        queue._live -= 1
                        home = event._home
                        home.live -= 1
                        event._home = None
                        clock._now = time
                        args = event.args
                        if args:
                            event.callback(*args)
                        else:
                            event.callback()
                        processed += 1
                        if self._halted or processed >= limit:
                            break
                    if pos < len(entries):
                        entry = entries[pos]
                    else:
                        queue._pos = pos
                        break
        else:
            # instrumented twin of the loop above: one dict get/set per
            # event, plus a perf_counter pair around every Nth callback.
            # ``on_event`` is the optional per-event hook of the
            # telemetry duck type (the determinism selfcheck hangs its
            # event-stream digest here); the standard KernelTelemetry
            # has none.
            from time import perf_counter

            counts = telemetry.label_counts
            counts_get = counts.get
            sample_every = telemetry.sample_every
            since_sample = telemetry.since_sample
            on_event = getattr(telemetry, "on_event", None)
            while not self._halted and processed < limit:
                entry = head()
                if entry is None or entry[0] > end_time:
                    break
                entries = queue._entries
                pos = queue._pos
                while True:
                    event = entry[2]
                    if event.cancelled:
                        pos += 1
                        if queue._dead > 0:
                            queue._dead -= 1
                    else:
                        time = entry[0]
                        if time > end_time:
                            queue._pos = pos
                            break
                        if time < clock._now:
                            raise ValueError(
                                f"clock cannot run backwards: "
                                f"now={clock._now!r}, target={time!r}")
                        pos += 1
                        queue._pos = pos
                        queue._live -= 1
                        home = event._home
                        home.live -= 1
                        event._home = None
                        clock._now = time
                        label = event.label
                        counts[label] = counts_get(label, 0) + 1
                        if on_event is not None:
                            on_event(time, label)
                        args = event.args
                        since_sample += 1
                        if since_sample >= sample_every:
                            since_sample = 0
                            started = perf_counter()
                            if args:
                                event.callback(*args)
                            else:
                                event.callback()
                            telemetry.observe_callback(
                                label, perf_counter() - started)
                        elif args:
                            event.callback(*args)
                        else:
                            event.callback()
                        processed += 1
                        if self._halted or processed >= limit:
                            break
                    if pos < len(entries):
                        entry = entries[pos]
                    else:
                        queue._pos = pos
                        break
            telemetry.since_sample = since_sample
        return processed

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Process events up to and including virtual ``end_time``.

        Returns the number of events processed by this call.  Events
        scheduled beyond ``end_time`` remain queued, so the simulation can be
        resumed (the campaign driver uses this to take daily snapshots).
        """
        self._halted = False
        queue, telemetry = self.queue, self.telemetry
        limit = float("inf") if max_events is None else max_events
        processed = self._drain_windowed(end_time, limit)
        remaining = queue.peek_time()
        if not self._halted and (remaining is None or remaining > end_time):
            # drain reached the horizon; move the clock to it so callers can
            # rely on now == end_time after the call
            if end_time > self.clock.now:
                self.clock.advance_to(end_time)
        self.events_processed += processed
        if telemetry is not None:
            # after the horizon advance, so gauges reflect the final state
            telemetry.flush(self)
        return processed

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Process every queued event (bounded by ``max_events``)."""
        return self.run_until(float("inf"), max_events=max_events)
