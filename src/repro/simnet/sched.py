"""Tiered event scheduler: calendar queue + hierarchical timer wheel.

The kernel's event queue.  A binary heap pays an O(log n) sift on
every push and pop, and the campaign workload is
*cancellation-heavy* -- churn sessions and download retries cancel
more timers than they fire -- so a heap keeps sifting over dead
entries.  This scheduler makes insert, pop and cancel O(1) amortized:

* **Near band -- calendar queue.**  The bottom tier is one sorted run
  of ``(time, seq, event)`` entries covering the current window
  ``[origin, origin + NEAR_SPAN)``.  The calendar proper is wheel
  level 0: ``NEAR_SPAN``-wide, grid-aligned buckets that inserts reach
  with one index computation and a ``list.append``.  When the window
  drains, the ladder *re-anchors* at the next occupied bucket -- empty
  stretches of virtual time are skipped in one jump -- and because
  level-0 buckets coincide exactly with the window grid, the next
  bucket is absorbed **wholesale**: one ``list.extend``, one
  tombstone-filter pass (a C-speed comprehension) and one Timsort.  No
  per-event sifting, ever; a sort touches each event once per window.

* **Far band -- hierarchical timer wheel.**  Timers beyond level 0's
  reach land in geometrically coarser levels (each ``WHEEL_SLOTS``
  times wider), dict-keyed by absolute slot number so sparse horizons
  cost nothing.  As the ladder re-anchors, slots overlapping the new
  window **cascade** down: each entry is re-bucketed at most once per
  level.  Timers beyond the top level wait in an overflow bucket with
  a tracked lower bound, re-examined only when the ladder catches up.

* **O(1) cancellation.**  ``cancel`` flips the event's tombstone flag
  and decrements the live count of the *cell* (bucket, slot or window)
  holding it -- the event records its cell in ``Event._home``.  No
  search, no sift, no compaction on the cancel path.  A cell whose
  live count hits zero is discarded *wholesale* when the scheduler
  reaches it: its tombstones are never individually examined, which is
  what makes churn-heavy workloads (cancel >> fire) cheap.

**Determinism.**  Events pop in exact ``(time, seq)`` order, as a
binary heap would pop them: entries are ``(time, seq, event)`` tuples,
the window sorts by that tuple, and every far entry is strictly later
than every window entry (placement happens against the current
horizon, and re-anchoring pulls in everything below the new horizon).
Late schedules landing inside the active window are merged into its
sorted remainder by bisection.  The randomized differential test in
``tests/simnet/test_sched.py`` checks the order event by event against
a ``heapq`` oracle.

All widths are powers of two, so the float arithmetic quantizing times
into buckets and slots is exact -- no platform-dependent rounding can
move an event across a bucket boundary.
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import Event

__all__ = ["TieredEventQueue", "NEAR_WIDTH", "NEAR_SPAN", "WHEEL_SLOTS",
           "LEVEL_WIDTHS"]

#: Window-origin quantization grain, seconds.  A power of two:
#: quantization is exact float arithmetic.
NEAR_WIDTH = 0.03125
#: Span of the bottom window and width of a level-0 calendar bucket.
NEAR_SPAN = 8.0
#: Slots each wheel level reaches past the horizon before the next
#: (64x coarser) level takes over.  Deliberately generous: a wide
#: level-0 reach means minutes-scale timers land directly in their
#: final calendar bucket and are absorbed wholesale at re-anchor time,
#: never paying a per-entry cascade.  Slots live in dicts keyed by
#: absolute slot number, so width costs no memory -- only the re-anchor
#: scan sees the extra occupied keys.
WHEEL_SLOTS = 512
#: Slot width per wheel level (seconds): 8 s, 512 s, 32768 s.  Level l
#: accepts deltas up to LEVEL_WIDTHS[l] * WHEEL_SLOTS past the horizon
#: (~68 min / ~3 days / ~194 days); anything later waits in the
#: overflow.
LEVEL_WIDTHS = (NEAR_SPAN, NEAR_SPAN * 64, NEAR_SPAN * 64 * 64)

_INV_NEAR_WIDTH = 1.0 / NEAR_WIDTH
#: Cursor sentinel while the window is unsorted: compares above any
#: real list length, so the pop fast path falls through to activation.
_UNSORTED = 1 << 60

# Unrolled per-level constants for the push hot path: reach past the
# horizon and reciprocal width per level (widths are powers of two, so
# multiplying by the reciprocal is exact and cheaper than dividing).
_REACH0 = LEVEL_WIDTHS[0] * WHEEL_SLOTS
_REACH1 = LEVEL_WIDTHS[1] * WHEEL_SLOTS
_REACH2 = LEVEL_WIDTHS[2] * WHEEL_SLOTS
_INV_W0 = 1.0 / LEVEL_WIDTHS[0]
_INV_W1 = 1.0 / LEVEL_WIDTHS[1]
_INV_W2 = 1.0 / LEVEL_WIDTHS[2]


class _Cell:
    """One calendar bucket, wheel slot or window: entries + live count.

    ``live`` counts non-tombstoned entries; cancel decrements it in
    O(1) via ``Event._home``.  ``live == 0`` with entries present means
    the whole cell is dead weight and gets dropped without ever
    iterating the tombstones.
    """

    __slots__ = ("entries", "live")

    def __init__(self) -> None:
        self.entries: list = []
        self.live = 0


class TieredEventQueue:
    """Deterministic calendar-queue + timer-wheel scheduler.

    ``push`` / ``cancel`` / ``pop`` / ``peek_time`` / ``pop_ready`` /
    ``__len__``, plus gauges for the kernel telemetry:
    ``dead_events``, ``cancelled_total``, the per-tier depths
    :attr:`near_depth` / :attr:`wheel_depth`, and ``compactions``,
    which counts bulk tombstone purges (whole-cell drops and filter
    passes that removed dead entries).  The kernel's drain loops ride
    ``_entries``/``_pos`` directly between ``_head`` calls instead of
    paying a ``pop_ready`` call per event (see
    ``Simulator._drain_windowed``).
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._live = 0
        self._dead = 0  # tombstoned entries still held by some cell
        self.compactions = 0
        self.cancelled_total = 0
        # -- bottom tier: the current window --------------------------------
        self._origin = 0.0
        self._horizon = NEAR_SPAN
        #: entries of the current window; append-only until first
        #: consumption, then tombstone-filtered, sorted once and read
        #: out through ``_pos`` (bisection-merged inserts thereafter)
        self._entries: list = []
        self._pos = _UNSORTED
        self._sorted = False
        #: home cell for events pushed straight into the window
        self._window_cell = _Cell()
        #: every cell whose live count contributes to the window --
        #: the window cell plus calendar buckets absorbed wholesale
        self._absorbed: List[_Cell] = [self._window_cell]
        # -- far tiers: wheel levels + overflow -----------------------------
        #: per level: absolute slot number -> _Cell
        self._levels: Tuple[Dict[int, _Cell], ...] = tuple(
            {} for _ in LEVEL_WIDTHS)
        self._overflow = _Cell()
        #: lower bound on every overflow entry's time (tracked on push,
        #: rebuilt when the overflow is drained); lets re-anchoring
        #: skip the overflow entirely while it lies beyond reach
        self._overflow_min = float("inf")

    # -- sizing / gauges ----------------------------------------------------
    def __len__(self) -> int:
        return self._live

    @property
    def dead_events(self) -> int:
        """Tombstoned events still occupying some cell (telemetry gauge)."""
        return self._dead

    @property
    def near_depth(self) -> int:
        """Live events waiting in the current calendar window."""
        return sum(cell.live for cell in self._absorbed)

    @property
    def wheel_depth(self) -> int:
        """Live events waiting in the wheel levels or the overflow."""
        return self._live - self.near_depth

    def iter_entries(self):
        """Yield every queued ``(time, seq, event)`` entry, unordered.

        Introspection for tests and debugging only.  Tombstoned
        entries are included; the window's already-consumed prefix is
        not.
        """
        yield from self._entries[self._pos if self._sorted else 0:]
        for slots in self._levels:
            for cell in slots.values():
                yield from cell.entries
        yield from self._overflow.entries

    # -- scheduling ---------------------------------------------------------
    def push(self, time: float, callback: Callable[..., Any],
             label: str = "", args: tuple = ()) -> Event:
        """Schedule ``callback`` at absolute virtual ``time`` (O(1)).

        The far branch is the level-placement logic of :meth:`_push_far`
        unrolled inline: pushes are the single hottest queue operation
        and a per-call loop over the levels costs more than the
        placement itself.
        """
        if time < 0:
            raise ValueError(f"cannot schedule at negative time {time!r}")
        seq = next(self._counter)
        event = Event(time, seq, callback, label, False, args)
        self._live += 1
        horizon = self._horizon
        if time < horizon:
            cell = self._window_cell
            if self._sorted:
                # active window: merge into the sorted remainder --
                # tuple order lands it exactly in (time, seq) order,
                # stragglers included
                insort(self._entries, (time, seq, event), self._pos)
            else:
                self._entries.append((time, seq, event))
        elif time < horizon + _REACH0:
            slots = self._levels[0]
            key = int(time * _INV_W0)
            cell = slots.get(key)
            if cell is None:
                cell = slots[key] = _Cell()
            cell.entries.append((time, seq, event))
        elif time < horizon + _REACH1:
            slots = self._levels[1]
            key = int(time * _INV_W1)
            cell = slots.get(key)
            if cell is None:
                cell = slots[key] = _Cell()
            cell.entries.append((time, seq, event))
        elif time < horizon + _REACH2:
            slots = self._levels[2]
            key = int(time * _INV_W2)
            cell = slots.get(key)
            if cell is None:
                cell = slots[key] = _Cell()
            cell.entries.append((time, seq, event))
        else:
            cell = self._overflow
            cell.entries.append((time, seq, event))
            if time < self._overflow_min:
                self._overflow_min = time
        cell.live += 1
        event._home = cell
        return event

    def _push_far(self, time: float, seq: int, event: Event) -> None:
        """Place an event beyond the window: calendar bucket, coarser
        wheel slot, or overflow.  Cascade-path twin of the unrolled
        placement in :meth:`push` -- same level rule, same results.
        """
        horizon = self._horizon
        for width, slots in zip(LEVEL_WIDTHS, self._levels):
            if time < horizon + width * WHEEL_SLOTS:
                key = int(time / width)
                cell = slots.get(key)
                if cell is None:
                    cell = slots[key] = _Cell()
                cell.entries.append((time, seq, event))
                cell.live += 1
                event._home = cell
                return
        cell = self._overflow
        cell.entries.append((time, seq, event))
        cell.live += 1
        event._home = cell
        if time < self._overflow_min:
            self._overflow_min = time

    # -- cancellation -------------------------------------------------------
    def cancel(self, event: Event) -> None:
        """Tombstone ``event`` in O(1) -- no sift, no search (idempotent).

        Cancelling an event that already fired marks it but leaves the
        counters alone.
        """
        if event.cancelled:
            return
        event.cancelled = True
        home = event._home
        if home is None:
            return
        event._home = None
        home.live -= 1
        self.cancelled_total += 1
        self._live -= 1
        self._dead += 1

    # -- consumption --------------------------------------------------------
    def pop_ready(self, end_time: float) -> Optional[Event]:
        """Pop the earliest live event with ``time <= end_time``.

        The kernel's hot-path primitive: the common case is two list
        indexings and an integer bump -- no heap sift, no comparison
        cascade.
        """
        pos = self._pos
        entries = self._entries
        if pos < len(entries):
            entry = entries[pos]
            event = entry[2]
            if not event.cancelled:
                if entry[0] > end_time:
                    return None
                self._pos = pos + 1
                self._live -= 1
                home = event._home
                home.live -= 1
                event._home = None
                return event
        entry = self._head()
        if entry is None or entry[0] > end_time:
            return None
        self._pos += 1
        self._live -= 1
        event = entry[2]
        home = event._home
        home.live -= 1
        event._home = None
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None when drained."""
        return self.pop_ready(float("inf"))

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        pos = self._pos
        entries = self._entries
        if pos < len(entries):
            entry = entries[pos]
            if not entry[2].cancelled:
                return entry[0]
        entry = self._head()
        return entry[0] if entry is not None else None

    def _head(self) -> Optional[tuple]:
        """Position the cursor on the head entry and return it.

        Activates the window on first touch (bulk tombstone filter +
        one sort), skips tombstones cancelled since, and re-anchors
        the ladder from the wheel when the window drains.  Returns
        None only when no live event remains.
        """
        while True:
            entries = self._entries
            if self._sorted:
                pos = self._pos
                length = len(entries)
                while pos < length:
                    entry = entries[pos]
                    if entry[2].cancelled:
                        pos += 1
                        if self._dead > 0:
                            self._dead -= 1
                        continue
                    self._pos = pos
                    return entry
                self._pos = pos
            elif entries:
                # activation: one bulk filter pass (never a per-entry
                # sift) and one Timsort over the survivors
                survivors = [e for e in entries if not e[2].cancelled]
                dropped = len(entries) - len(survivors)
                if dropped:
                    self._dead -= dropped
                    self.compactions += 1
                survivors.sort()
                self._entries = survivors
                self._sorted = True
                self._pos = 0
                continue
            if not self._refill():
                return None

    def _refill(self) -> bool:
        """Re-anchor the ladder at the next occupied instant.

        Finds the earliest live far cell (slot starts are lower bounds;
        the overflow keeps a tracked one), jumps the window there, and
        pulls every slot that starts before the new horizon: a level-0
        bucket that coincides with the window is absorbed wholesale
        (one ``extend``, no per-entry work), straddling coarser slots
        are split -- their tail cascades one level down.  Loops because
        a pulled coarse slot may only feed finer levels; each entry
        descends at most once per level, so the loop terminates.
        Returns False when nothing live remains anywhere.
        """
        while True:
            if self._live == 0:
                self._purge_far_dead()
                return False
            # -- find the earliest candidate instant -----------------------
            candidate = self._overflow_min if self._overflow.live else None
            for width, slots in zip(LEVEL_WIDTHS, self._levels):
                dead_keys = []
                best_key = None
                for key, cell in slots.items():
                    if cell.live:
                        if best_key is None or key < best_key:
                            best_key = key
                    else:
                        dead_keys.append(key)
                for key in dead_keys:
                    # whole bucket of tombstones: drop without sifting
                    dropped = slots.pop(key)
                    self._dead -= len(dropped.entries)
                    if dropped.entries:
                        self.compactions += 1
                if best_key is not None:
                    start = best_key * width
                    if candidate is None or start < candidate:
                        candidate = start
            if candidate is None:
                # _live > 0 yet nothing live far: stale counts can only
                # come from tombstoning around cancel(); report drained
                # rather than spin
                return False
            # -- jump the window there -------------------------------------
            origin = int(candidate * _INV_NEAR_WIDTH) * NEAR_WIDTH
            self._origin = origin
            self._horizon = horizon = origin + NEAR_SPAN
            window: list = []
            window_cell = _Cell()
            absorbed = [window_cell]
            self._entries = window
            self._window_cell = window_cell
            self._absorbed = absorbed
            self._sorted = False
            self._pos = _UNSORTED
            # -- pull everything that starts before the new horizon --------
            for width, slots in zip(LEVEL_WIDTHS, self._levels):
                pull = [key for key in slots if key * width < horizon]
                for key in pull:
                    cell = slots.pop(key)
                    entries = cell.entries
                    if not cell.live:
                        self._dead -= len(entries)
                        if entries:
                            self.compactions += 1
                        continue
                    if key * width >= origin and (key + 1) * width <= horizon:
                        # grid-aligned calendar bucket inside the
                        # window: absorb in bulk.  Entry homes stay on
                        # the old cell, which keeps counting its share
                        # of the window (see _absorbed).
                        window.extend(entries)
                        absorbed.append(cell)
                        continue
                    # straddling slot: head joins the window, tail
                    # cascades down the wheel
                    for entry in entries:
                        event = entry[2]
                        if event.cancelled:
                            if self._dead > 0:
                                self._dead -= 1
                            continue
                        if entry[0] < horizon:
                            window.append(entry)
                            window_cell.live += 1
                            event._home = window_cell
                        else:
                            self._push_far(entry[0], entry[1], event)
            if self._overflow.entries and self._overflow_min < horizon:
                entries = self._overflow.entries
                self._overflow = _Cell()
                self._overflow_min = float("inf")
                for entry in entries:
                    event = entry[2]
                    if event.cancelled:
                        if self._dead > 0:
                            self._dead -= 1
                        continue
                    if entry[0] < horizon:
                        window.append(entry)
                        window_cell.live += 1
                        event._home = window_cell
                    else:
                        self._push_far(entry[0], entry[1], event)
            if window_cell.live or len(absorbed) > 1:
                return True
            # pulled slots only cascaded into finer levels; go again
            # with the sharpened candidates

    def _purge_far_dead(self) -> None:
        """Drop every remaining (all-dead) far cell in bulk."""
        for slots in self._levels:
            for cell in slots.values():
                self._dead -= len(cell.entries)
            if slots:
                slots.clear()
        self._dead -= len(self._overflow.entries)
        self._overflow = _Cell()
        self._overflow_min = float("inf")
        if self._dead < 0:
            self._dead = 0
