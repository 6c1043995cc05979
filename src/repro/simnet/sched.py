"""The kernel's event queue: a binary heap of :class:`Event` tuples.

Each :class:`Event` is a ``(time, seq, callback, label, args)`` tuple
held directly in a :mod:`heapq` list, so events pop in exact
``(time, seq)`` order: ``seq`` is the scheduling order and unique, which
makes ties at one instant fire first-scheduled-first and means the
tuple comparison never reaches the callback.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from .events import Event

__all__ = ["EventQueue"]


class EventQueue:
    """Deterministic ``(time, seq)``-ordered queue of pending events."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callable[..., Any],
             label: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time!r}")
        event = Event(time, next(self._counter), callback, label, args)
        heappush(self._heap, event)
        return event

    def pop_ready(self, end_time: float) -> Optional[Event]:
        """Pop the earliest event with ``time <= end_time``."""
        heap = self._heap
        if heap and heap[0][0] <= end_time:
            return heappop(heap)
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest event, or None."""
        return heappop(self._heap) if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event without removing it."""
        heap = self._heap
        return heap[0][0] if heap else None
