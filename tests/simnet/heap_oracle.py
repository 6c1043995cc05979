"""A plain ``heapq`` event queue: the order oracle for the scheduler tests.

It pops in ``(time, seq)`` order by construction, and keeps the
scheduler's cancellation accounting: cancel is idempotent, and
cancelling an event that already fired leaves the counters alone.
"""

import heapq
import itertools

from repro.simnet.events import Event


class HeapOracle:
    def __init__(self):
        self._heap = []
        self._counter = itertools.count()
        self._live = 0
        self.cancelled_total = 0

    def __len__(self):
        return self._live

    def push(self, time, callback, label="", args=()):
        event = Event(time, next(self._counter), callback, label, False, args)
        event._home = self
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def cancel(self, event):
        if not event.cancelled:
            event.cancelled = True
            if event._home is self:
                event._home = None
                self._live -= 1
                self.cancelled_total += 1

    def _head(self):
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def peek_time(self):
        head = self._head()
        return None if head is None else head[0]

    def pop_ready(self, end_time):
        head = self._head()
        if head is None or head[0] > end_time:
            return None
        heapq.heappop(self._heap)
        event = head[2]
        event._home = None
        self._live -= 1
        return event

    def pop(self):
        return self.pop_ready(float("inf"))
