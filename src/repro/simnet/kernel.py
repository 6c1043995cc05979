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
from .sched import EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Event loop + clock + seeded randomness for one campaign."""

    def __init__(self, seed: int = 0, start_time: float = 0.0,
                 telemetry=None) -> None:
        self.clock = VirtualClock(start_time)
        #: binary-heap event queue (see simnet.sched)
        self.queue = EventQueue()
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

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Process events up to and including virtual ``end_time``.

        Returns the number of events processed by this call.  Events
        scheduled beyond ``end_time`` remain queued, so the simulation can be
        resumed (the campaign driver uses this to take daily snapshots).

        One loop pops each event with ``queue.pop_ready`` and fires it
        as ``callback(*args)``; ``halt()`` and ``max_events`` are
        honoured per event.  The clock advances by direct assignment
        behind the monotonicity guard ``VirtualClock.advance_to``
        enforces, without a method call per event.  With telemetry
        attached the loop also bumps one dict entry per event, calls
        the optional ``on_event(time, label)`` hook of the telemetry
        duck type (the golden fixtures and replay tests hang their
        event-stream digest there; the standard KernelTelemetry has
        none), and times every ``sample_every``-th callback.
        """
        self._halted = False
        queue, clock, telemetry = self.queue, self.clock, self.telemetry
        pop_ready = queue.pop_ready
        limit = float("inf") if max_events is None else max_events
        if telemetry is not None:
            from time import perf_counter

            counts = telemetry.label_counts
            counts_get = counts.get
            sample_every = telemetry.sample_every
            since_sample = telemetry.since_sample
            on_event = getattr(telemetry, "on_event", None)
        processed = 0
        while not self._halted and processed < limit:
            event = pop_ready(end_time)
            if event is None:
                break
            time = event.time
            if time < clock._now:
                raise ValueError(
                    f"clock cannot run backwards: "
                    f"now={clock._now!r}, target={time!r}")
            clock._now = time
            args = event.args
            if telemetry is None:
                if args:
                    event.callback(*args)
                else:
                    event.callback()
            else:
                label = event.label
                counts[label] = counts_get(label, 0) + 1
                if on_event is not None:
                    on_event(time, label)
                since_sample += 1
                if since_sample >= sample_every:
                    since_sample = 0
                    started = perf_counter()
                    event.callback(*args)
                    telemetry.observe_callback(
                        label, perf_counter() - started)
                elif args:
                    event.callback(*args)
                else:
                    event.callback()
            processed += 1
        remaining = queue.peek_time()
        if not self._halted and (remaining is None or remaining > end_time):
            # drain reached the horizon; move the clock to it so callers can
            # rely on now == end_time after the call
            if end_time > clock.now:
                clock.advance_to(end_time)
        self.events_processed += processed
        if telemetry is not None:
            telemetry.since_sample = since_sample
            # after the horizon advance, so gauges reflect the final state
            telemetry.flush(self)
        return processed

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Process every queued event (bounded by ``max_events``)."""
        return self.run_until(float("inf"), max_events=max_events)
