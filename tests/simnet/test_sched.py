"""Tests for the event queue and the kernel loop that drains it.

The centrepiece is a randomized differential harness: arbitrary
schedule/cancel/pop/peek programs -- near and far-future times, exact
ties and mass cancellation -- run against a plain list model
(:class:`ListModel`) and the queue in lockstep, asserting identical
pop order and identical accounting at every step.  The unit tests then
pin the order and accounting edges one by one, and
:class:`TestKernelDrain` drives ``Simulator.run_until`` with and
without telemetry attached.
"""

import random
from collections import namedtuple

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.sched import EventQueue
from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.registry import MetricRegistry

Entry = namedtuple("Entry", "time seq")


class ListModel:
    """The reference queue: live ``(time, seq)`` entries in a list.

    Pops take the ``min`` entry.  Cancel removes an entry only while it
    is live, so cancelling twice, or after the pop, counts nothing.
    """

    def __init__(self):
        self.live = []
        self.next_seq = 0
        self.cancelled_total = 0

    def __len__(self):
        return len(self.live)

    def push(self, time):
        entry = Entry(time, self.next_seq)
        self.next_seq += 1
        self.live.append(entry)
        return entry

    def cancel(self, entry):
        if entry in self.live:
            self.live.remove(entry)
            self.cancelled_total += 1

    def peek_time(self):
        return min(self.live).time if self.live else None

    def pop_ready(self, end_time):
        if not self.live or min(self.live).time > end_time:
            return None
        entry = min(self.live)
        self.live.remove(entry)
        return entry

    def pop(self):
        return self.pop_ready(float("inf"))


def drain(queue):
    """Pop everything, returning the (time, seq) order."""
    order = []
    while True:
        event = queue.pop()
        if event is None:
            return order
        order.append((event.time, event.seq))


class TestDifferential:
    """Random programs against the list model, step-for-step."""

    def _run_trial(self, seed):
        rng = random.Random(seed)
        model, queue = ListModel(), EventQueue()
        now = [0.0]
        pairs = []
        fired_m, fired_q = [], []

        def push(t):
            entry = model.push(t)
            event = queue.push(t, lambda: None, "l")
            assert entry == (event.time, event.seq)
            pairs.append((entry, event))

        for _ in range(rng.randrange(40, 250)):
            op = rng.random()
            if op < 0.5:
                r = rng.random()
                if r < 0.4:
                    push(now[0] + rng.uniform(0, 6.4))
                elif r < 0.7:
                    push(now[0] + rng.uniform(8.0, 600))
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
                        entry, event = pairs[(k + j) % len(pairs)]
                        model.cancel(entry)
                        queue.cancel(event)
                else:
                    entry, event = pairs[k]
                    model.cancel(entry)
                    queue.cancel(event)
            elif op < 0.9:
                horizon = now[0] + rng.uniform(0, 2000) * rng.choice(
                    [0.01, 1, 50])
                while True:
                    entry = model.pop_ready(horizon)
                    event = queue.pop_ready(horizon)
                    assert (entry is None) == (event is None)
                    if entry is None:
                        break
                    assert entry == (event.time, event.seq)
                    now[0] = entry.time
                    fired_m.append(entry.seq)
                    fired_q.append(event.seq)
            else:
                assert model.peek_time() == queue.peek_time()
            assert len(model) == len(queue)
            assert model.cancelled_total == queue.cancelled_total
            assert queue.dead_events >= 0
        assert drain(model) == drain(queue)
        assert fired_m == fired_q
        assert len(model) == len(queue) == 0
        assert queue.dead_events == 0

    @pytest.mark.parametrize("seed", range(60))
    def test_random_program_matches_heap(self, seed):
        self._run_trial(seed)


class TestWheelEdges:
    """Far-future times, far-apart ties and tombstone accounting."""

    def test_overflow_bucket_holds_beyond_top_level(self):
        queue = EventQueue()
        far = queue.push(16_777_225.0, lambda: None)
        near = queue.push(1.0, lambda: None)
        assert len(queue) == 2
        assert queue.pop() is near
        assert queue.pop() is far
        assert queue.pop() is None

    def test_overflow_reentry_cascades_into_wheels(self):
        queue = EventQueue()
        times = [16_777_225.0 + delta for delta in
                 (0.0, 0.25, 24.0, 70_000.0)]
        events = [queue.push(t, lambda: None) for t in times]
        popped = [queue.pop() for _ in events]
        assert [e.time for e in popped] == sorted(times)
        assert queue.pop() is None

    def test_cascade_preserves_order_across_level_boundaries(self):
        queue = EventQueue()
        times = [4095.5, 4096.5, 4607.5, 4608.5]
        for t in reversed(times):
            queue.push(t, lambda: None)
        assert [queue.pop().time for _ in times] == times

    def test_whole_dead_bucket_dropped_without_sifting(self):
        queue = EventQueue()
        # a run of tombstones ahead of one live event
        dead = [queue.push(100.0 + i * 0.001, lambda: None)
                for i in range(50)]
        live = queue.push(500.0, lambda: None)
        for event in dead:
            queue.cancel(event)
        assert queue.dead_events == 50
        assert queue.pop() is live
        assert queue.dead_events == 0
        assert len(queue) == 0

    def test_mass_cancellation_drains_to_empty(self):
        queue = EventQueue()
        events = [queue.push(float(i % 97) + 0.5, lambda: None)
                  for i in range(300)]
        for event in events:
            queue.cancel(event)
        assert len(queue) == 0
        assert queue.cancelled_total == 300
        assert queue.pop() is None
        assert queue.dead_events == 0  # the pop discarded every tombstone


class TestWindowEdges:
    """Pushes between pops, ties at now and the pop_ready horizon."""

    def test_straggler_lands_in_active_window(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        later = queue.push(5.0, lambda: None)
        first = queue.pop()
        assert first.time == 1.0
        # scheduled mid-consumption, earlier than what is left
        straggler = queue.push(2.0, lambda: None)
        assert queue.pop() is straggler
        assert queue.pop() is later

    def test_tie_at_now_fires_in_seq_order(self):
        queue = EventQueue()
        a = queue.push(3.0, lambda: None)
        assert queue.pop() is a
        b = queue.push(3.0, lambda: None)
        c = queue.push(3.0, lambda: None)
        assert queue.pop() is b
        assert queue.pop() is c

    def test_pop_ready_horizon_is_inclusive(self):
        queue = EventQueue()
        at = queue.push(2.0, lambda: None)
        beyond = queue.push(2.0000001, lambda: None)
        assert queue.pop_ready(2.0) is at
        assert queue.pop_ready(2.0) is None
        assert queue.peek_time() == beyond.time

    def test_reladdering_jumps_empty_stretches(self):
        queue = EventQueue()
        sparse = [0.5, 400.25, 40_000.125]
        for t in sparse:
            queue.push(t, lambda: None)
        assert [queue.pop().time for _ in sparse] == sparse
        assert queue.pop() is None

    def test_cancel_after_fire_leaves_counters_alone(self):
        # cancelling a fired event marks it but must not disturb
        # live/dead/cancelled accounting
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        assert queue.pop() is event
        queue.cancel(event)
        queue.cancel(event)
        assert queue.cancelled_total == 0
        assert len(queue) == 0
        assert queue.dead_events == 0

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-0.1, lambda: None)


class TestKernelDrain:
    """``run_until``'s one loop, without and with kernel telemetry."""

    @pytest.fixture(params=["plain", "telemetry"])
    def sim(self, request):
        telemetry = None
        if request.param == "telemetry":
            telemetry = KernelTelemetry(MetricRegistry(), sample_every=2)
        return Simulator(seed=9, telemetry=telemetry)

    @staticmethod
    def _assert_counted(sim, events):
        if sim.telemetry is not None:
            assert sim.telemetry.events_seen == events

    def test_callback_scheduling_at_now_fires_in_order(self, sim):
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
        self._assert_counted(sim, 4)

    def test_halt_stops_mid_window(self, sim):
        log = []
        sim.at(1.0, lambda: (log.append(1), sim.halt()))
        sim.at(1.5, lambda: log.append(2))
        assert sim.run_until(10.0) == 1
        assert log == [1]
        assert sim.now == 1.0  # a halted run leaves the clock put
        assert len(sim.queue) == 1  # the second event is still queued
        assert sim.run_until(10.0) == 1
        assert log == [1, 2]
        self._assert_counted(sim, 2)

    def test_max_events_bounds_mid_window(self, sim):
        for i in range(10):
            sim.at(1.0 + i * 0.1, lambda: None)
        assert sim.run_until(10.0, max_events=4) == 4
        assert len(sim.queue) == 6
        self._assert_counted(sim, 4)

    def test_cancel_during_drain_skips_in_window(self, sim):
        log = []
        victim = sim.at(1.5, lambda: log.append("victim"))
        sim.at(1.0, lambda: sim.cancel(victim))
        sim.at(2.0, lambda: log.append("after"))
        sim.run_all()
        assert log == ["after"]
        assert sim.queue.cancelled_total == 1
        assert sim.queue.dead_events == 0
        self._assert_counted(sim, 2)

    def test_run_until_advances_clock_to_horizon(self, sim):
        sim.at(1.0, lambda: None)
        sim.at(20.0, lambda: None)
        sim.run_until(10.0)
        assert sim.now == 10.0
        assert len(sim.queue) == 1

    def test_event_args_are_passed_to_the_callback(self, sim):
        seen = []
        sim.queue.push(1.0, lambda *args: seen.append(args), "args",
                       ("x", 42))
        sim.queue.push(1.0, lambda *args: seen.append(args), "bare")
        assert sim.run_until(5.0) == 2
        assert seen == [("x", 42), ()]
        self._assert_counted(sim, 2)
