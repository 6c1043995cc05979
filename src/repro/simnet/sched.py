"""The kernel's event queue: a binary heap with lazy deletion.

Entries are ``(time, seq, event)`` tuples in a :mod:`heapq` list, so
events pop in exact ``(time, seq)`` order: ``seq`` is the scheduling
order and unique, which makes ties at one instant fire
first-scheduled-first and means the tuple comparison never reaches the
event itself.

``cancel`` only flags the event: the entry stays in the heap as a
tombstone and is discarded when it reaches the top, so a cancel costs
no search and no sift.  Tombstones are the heap entries that are not
pending, which is what :attr:`EventQueue.dead_events` reports.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .events import Event

__all__ = ["EventQueue"]

_INF = float("inf")


class EventQueue:
    """Deterministic ``(time, seq)``-ordered queue of pending events.

    ``len(queue)`` counts pending events.  Cancelling an event that
    already fired, or cancelling twice, marks nothing new and leaves
    ``len``, :attr:`dead_events` and :attr:`cancelled_total` alone.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        #: events ever cancelled while pending (monotonic gauge)
        self.cancelled_total = 0

    def __len__(self) -> int:
        return self._live

    @property
    def dead_events(self) -> int:
        """Cancelled events still held in the heap (telemetry gauge)."""
        return len(self._heap) - self._live

    def push(self, time: float, callback: Callable[..., Any],
             label: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time!r}")
        seq = next(self._counter)
        event = Event(time, seq, callback, label, False, args, True)
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def cancel(self, event: Event) -> None:
        """Tombstone a pending ``event`` (idempotent)."""
        if event.cancelled:
            return
        event.cancelled = True
        if event.pending:
            event.pending = False
            self._live -= 1
            self.cancelled_total += 1

    def pop_ready(self, end_time: float) -> Optional[Event]:
        """Pop the earliest pending event with ``time <= end_time``."""
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heappop(heap)
            elif time > end_time:
                return None
            else:
                heappop(heap)
                event.pending = False
                self._live -= 1
                return event
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending event, or None."""
        return self.pop_ready(_INF)

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None
