"""Tests for the tiered scheduler (calendar queue + timer wheel).

The centrepiece is a randomized differential harness: arbitrary
schedule/cancel/pop/peek programs -- including past-horizon
re-laddering, overflow residency and mass cancellation -- executed
against a ``heapq`` oracle (:mod:`.heap_oracle`) and the tiered queue
in lockstep, asserting identical pop order and identical accounting at
every step.  The unit tests then pin the structural edges
individually: bucket overflow, wheel cascades, whole-bucket tombstone
skips, straggler merging and the windowed kernel drain.
"""

import random

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.sched import (LEVEL_WIDTHS, NEAR_SPAN, WHEEL_SLOTS,
                                TieredEventQueue)

from .heap_oracle import HeapOracle

#: past every wheel level's reach from time zero -- lands in overflow
BEYOND_WHEELS = NEAR_SPAN + LEVEL_WIDTHS[-1] * WHEEL_SLOTS + 1.0


def drain(queue):
    """Pop everything, returning the (time, seq) order."""
    order = []
    while True:
        event = queue.pop()
        if event is None:
            return order
        order.append((event.time, event.seq))


class TestDifferential:
    """Random programs against the heap oracle, step-for-step."""

    def _run_trial(self, seed):
        rng = random.Random(seed)
        heap, tier = HeapOracle(), TieredEventQueue()
        now = [0.0]
        pairs = []
        fired_h, fired_t = [], []

        def push(t):
            he = heap.push(t, lambda: None, "l")
            te = tier.push(t, lambda: None, "l")
            assert (he.time, he.seq) == (te.time, te.seq)
            pairs.append((he, te))

        for _ in range(rng.randrange(40, 250)):
            op = rng.random()
            if op < 0.5:
                r = rng.random()
                if r < 0.4:
                    push(now[0] + rng.uniform(0, NEAR_SPAN * 0.8))
                elif r < 0.7:
                    push(now[0] + rng.uniform(NEAR_SPAN, 600))
                elif r < 0.85:
                    push(now[0] + rng.uniform(600, 50_000))
                elif r < 0.95 and pairs:
                    # exact tie with an already-scheduled instant
                    push(max(pairs[rng.randrange(len(pairs))][0].time,
                             now[0]))
                else:
                    push(now[0] + rng.uniform(50_000, 3_000_000))
            elif op < 0.75 and pairs:
                k = rng.randrange(len(pairs))
                if rng.random() < 0.3 and len(pairs) > 5:
                    # mass cancellation burst (fired events included:
                    # cancel must stay counter-neutral for those)
                    for j in range(rng.randrange(3, 20)):
                        he, te = pairs[(k + j) % len(pairs)]
                        heap.cancel(he)
                        tier.cancel(te)
                else:
                    he, te = pairs[k]
                    heap.cancel(he)
                    tier.cancel(te)
            elif op < 0.9:
                horizon = now[0] + rng.uniform(0, 2000) * rng.choice(
                    [0.01, 1, 50])
                while True:
                    eh = heap.pop_ready(horizon)
                    et = tier.pop_ready(horizon)
                    assert (eh is None) == (et is None)
                    if eh is None:
                        break
                    assert (eh.time, eh.seq) == (et.time, et.seq)
                    now[0] = eh.time
                    fired_h.append(eh.seq)
                    fired_t.append(et.seq)
            else:
                assert heap.peek_time() == tier.peek_time()
            assert len(heap) == len(tier)
            assert heap.cancelled_total == tier.cancelled_total
        assert drain(heap) == drain(tier)
        assert fired_h == fired_t
        assert len(heap) == len(tier) == 0

    @pytest.mark.parametrize("seed", range(60))
    def test_random_program_matches_heap(self, seed):
        self._run_trial(seed)


class TestTierInvariant:
    """near + wheel == depth must hold at every step."""

    def test_tier_split_matches_depth(self):
        rng = random.Random(29)
        queue = TieredEventQueue()
        live = []
        for step in range(400):
            action = rng.random()
            if action < 0.55 or not live:
                # spread pushes across window, wheels and overflow
                when = rng.choice((
                    rng.uniform(0.0, NEAR_SPAN),
                    rng.uniform(NEAR_SPAN, NEAR_SPAN * 50),
                    BEYOND_WHEELS + rng.uniform(0.0, 100.0)))
                live.append(queue.push(when, lambda: None))
            elif action < 0.8:
                event = live.pop(rng.randrange(len(live)))
                queue.cancel(event)
            else:
                popped = queue.pop()
                if popped is not None:
                    live.remove(popped)
            assert (queue.near_depth + queue.wheel_depth
                    == len(queue)), f"invariant broke at step {step}"
        drain(queue)
        assert queue.near_depth + queue.wheel_depth == len(queue) == 0


class TestWheelEdges:
    def test_overflow_bucket_holds_beyond_top_level(self):
        queue = TieredEventQueue()
        far = queue.push(BEYOND_WHEELS, lambda: None)
        near = queue.push(1.0, lambda: None)
        assert queue.wheel_depth == 1
        assert queue.near_depth == 1
        assert queue.pop() is near
        # re-anchoring must reach into the overflow once the wheels
        # are empty
        assert queue.pop() is far
        assert queue.pop() is None

    def test_overflow_reentry_cascades_into_wheels(self):
        queue = TieredEventQueue()
        times = [BEYOND_WHEELS + delta for delta in
                 (0.0, 0.25, NEAR_SPAN * 3, 70_000.0)]
        events = [queue.push(t, lambda: None) for t in times]
        popped = [queue.pop() for _ in events]
        assert [e.time for e in popped] == sorted(times)
        assert queue.pop() is None

    def test_cascade_preserves_order_across_level_boundaries(self):
        queue = TieredEventQueue()
        # straddle every level boundary: entries in one coarse slot
        # must split between the window and finer levels on re-anchor
        reach0 = LEVEL_WIDTHS[0] * WHEEL_SLOTS
        times = [reach0 - 0.5, reach0 + 0.5,
                 reach0 + LEVEL_WIDTHS[1] - 0.5,
                 reach0 + LEVEL_WIDTHS[1] + 0.5]
        for t in times:
            queue.push(t, lambda: None)
        assert [queue.pop().time for _ in times] == sorted(times)

    def test_whole_dead_bucket_dropped_without_sifting(self):
        queue = TieredEventQueue()
        # a far bucket full of tombstones plus one live straggler
        dead = [queue.push(100.0 + i * 0.001, lambda: None)
                for i in range(50)]
        live = queue.push(500.0, lambda: None)
        for event in dead:
            queue.cancel(event)
        assert queue.dead_events == 50
        before = queue.compactions
        assert queue.pop() is live
        # the dead bucket was purged in bulk during re-anchoring
        assert queue.compactions > before
        assert queue.dead_events == 0
        assert len(queue) == 0

    def test_mass_cancellation_drains_to_empty(self):
        queue = TieredEventQueue()
        events = [queue.push(float(i % 97) + 0.5, lambda: None)
                  for i in range(300)]
        for event in events:
            queue.cancel(event)
        assert len(queue) == 0
        assert queue.cancelled_total == 300
        assert queue.pop() is None
        assert queue.dead_events == 0  # drained pops purge in bulk


class TestWindowEdges:
    def test_straggler_lands_in_active_window(self):
        queue = TieredEventQueue()
        queue.push(1.0, lambda: None)
        later = queue.push(5.0, lambda: None)
        first = queue.pop()
        assert first.time == 1.0
        # scheduled mid-consumption, earlier than the remaining window
        straggler = queue.push(2.0, lambda: None)
        assert queue.pop() is straggler
        assert queue.pop() is later

    def test_tie_at_now_fires_in_seq_order(self):
        queue = TieredEventQueue()
        a = queue.push(3.0, lambda: None)
        assert queue.pop() is a
        b = queue.push(3.0, lambda: None)
        c = queue.push(3.0, lambda: None)
        assert queue.pop() is b
        assert queue.pop() is c

    def test_pop_ready_horizon_is_inclusive(self):
        queue = TieredEventQueue()
        at = queue.push(2.0, lambda: None)
        beyond = queue.push(2.0000001, lambda: None)
        assert queue.pop_ready(2.0) is at
        assert queue.pop_ready(2.0) is None
        assert queue.peek_time() == beyond.time

    def test_reladdering_jumps_empty_stretches(self):
        queue = TieredEventQueue()
        sparse = [0.5, NEAR_SPAN * 50 + 0.25, NEAR_SPAN * 5000 + 0.125]
        for t in sparse:
            queue.push(t, lambda: None)
        assert [queue.pop().time for _ in sparse] == sparse
        assert queue.pop() is None

    def test_cancel_after_fire_leaves_counters_alone(self):
        # cancelling a fired event marks it but must not disturb
        # live/dead/cancelled accounting
        queue = TieredEventQueue()
        event = queue.push(1.0, lambda: None)
        assert queue.pop() is event
        queue.cancel(event)
        queue.cancel(event)
        assert queue.cancelled_total == 0
        assert len(queue) == 0
        assert queue.dead_events == 0

    def test_negative_time_rejected(self):
        queue = TieredEventQueue()
        with pytest.raises(ValueError):
            queue.push(-0.1, lambda: None)

    def test_iter_entries_spans_all_tiers(self):
        queue = TieredEventQueue()
        times = {1.0, 100.0, BEYOND_WHEELS}
        for t in times:
            queue.push(t, lambda: None, label="x")
        assert {entry[0] for entry in queue.iter_entries()} == times
        assert {entry[2].label for entry in queue.iter_entries()} == {"x"}


class TestWindowedKernelDrain:
    """The kernel rides the window by index; prove the semantics hold."""

    def _sim(self):
        sim = Simulator(seed=9)
        assert isinstance(sim.queue, TieredEventQueue)
        return sim

    def test_callback_scheduling_at_now_fires_in_order(self):
        sim = self._sim()
        log = []

        def first():
            log.append("first")
            # same instant as the queued 'second': must fire after it
            # (higher seq), before 'third'
            sim.at(sim.now, lambda: log.append("inserted"))

        sim.at(1.0, first)
        sim.at(1.0, lambda: log.append("second"))
        sim.at(2.0, lambda: log.append("third"))
        sim.run_all()
        assert log == ["first", "second", "inserted", "third"]

    def test_halt_stops_mid_window(self):
        sim = self._sim()
        log = []
        sim.at(1.0, lambda: (log.append(1), sim.halt()))
        sim.at(1.5, lambda: log.append(2))
        assert sim.run_until(10.0) == 1
        assert log == [1]
        assert len(sim.queue) == 1  # the second event is still queued
        assert sim.run_until(10.0) == 1
        assert log == [1, 2]

    def test_max_events_bounds_mid_window(self):
        sim = self._sim()
        for i in range(10):
            sim.at(1.0 + i * 0.1, lambda: None)
        assert sim.run_until(10.0, max_events=4) == 4
        assert len(sim.queue) == 6

    def test_cancel_during_drain_skips_in_window(self):
        sim = self._sim()
        log = []
        victim = sim.at(1.5, lambda: log.append("victim"))
        sim.at(1.0, lambda: sim.cancel(victim))
        sim.at(2.0, lambda: log.append("after"))
        sim.run_all()
        assert log == ["after"]
        assert sim.queue.cancelled_total == 1

    def test_run_until_advances_clock_to_horizon(self):
        sim = self._sim()
        sim.at(1.0, lambda: None)
        sim.at(20.0, lambda: None)
        sim.run_until(10.0)
        assert sim.now == 10.0
        assert len(sim.queue) == 1
