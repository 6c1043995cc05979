"""Tests for the supervised worker pool (heartbeats, watchdogs, requeue)."""

import multiprocessing.process
import os
import time

import pytest

from repro.resilience import (HostIntervention, SupervisedKill,
                              SupervisionPolicy, supervised_map)

#: watchdog settings tight enough for fast tests but lax enough that a
#: loaded CI box never false-positives on a healthy worker
FAST = SupervisionPolicy(deadline_s=60.0, stall_timeout_s=2.0)


def square(x):
    return x * x


def slow_square(x):
    # longer than FAST.stall_timeout_s: proves heartbeats keep a
    # healthy-but-slow worker alive
    time.sleep(3.0)
    return x * x


def worker_pid(x):
    return os.getpid()


def boom(x):
    raise ValueError(f"boom on {x!r}")


def hang_item_two(item):
    if item == 2:
        return HostIntervention(kind="hang", seconds=60.0)
    return None


def stall_item_two(item):
    if item == 2:
        # shorter than the stall timeout: the worker must survive
        return HostIntervention(kind="stall", seconds=0.5)
    return None


def failure_marker(item, reason):
    return ("failed", item, reason)


class TestPolicy:
    def test_heartbeat_must_undercut_stall_timeout(self):
        # several beats must go missing before a healthy worker on a
        # loaded host reads as stalled
        for stall in (0.4, 2.0, 60.0, 3600.0):
            policy = SupervisionPolicy(stall_timeout_s=stall)
            assert 0 < policy.heartbeat_s <= stall / 4
            assert policy.heartbeat_s <= 1.0

    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(deadline_s=0.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(stall_timeout_s=-1.0)
        # the deadline is opt-in: by default an attempt may run as long
        # as it keeps beating
        assert SupervisionPolicy().deadline_s is None

    def test_intervention_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            HostIntervention(kind="explode", seconds=1.0)


class TestSupervisedMap:
    def test_results_in_input_order(self):
        assert supervised_map(square, [3, 1, 2], workers=3,
                              policy=FAST) == [9, 1, 4]

    def test_empty_items(self):
        assert supervised_map(square, [], policy=FAST) == []
        assert supervised_map(square, [], workers=2, policy=FAST) == []

    def test_one_worker_runs_in_the_calling_process(self):
        # no process starts, so the hang intervention is never applied
        assert supervised_map(worker_pid, [1, 2], workers=1, policy=FAST,
                              intervention=hang_item_two) == [
            os.getpid(), os.getpid()]
        # two workers: every task in a child process
        pids = supervised_map(worker_pid, [1, 2, 3], workers=2,
                              policy=FAST)
        assert os.getpid() not in pids

    def test_falls_back_when_process_cannot_start(self, monkeypatch):
        def no_fork(process):
            raise OSError("no fork for you")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_fork)
        assert supervised_map(square, [3, 1, 2], workers=2,
                              policy=FAST) == [9, 1, 4]

    def test_heartbeats_keep_slow_workers_alive(self):
        kills = []
        result = supervised_map(slow_square, [4], workers=2, policy=FAST,
                                on_kill=kills.append)
        assert result == [16] and kills == []

    def test_hang_is_killed_requeued_then_degraded(self):
        kills = []
        start = time.monotonic()
        results = supervised_map(square, [1, 2, 3], workers=3, policy=FAST,
                                 intervention=hang_item_two,
                                 failure=failure_marker,
                                 on_kill=kills.append)
        elapsed = time.monotonic() - start
        assert results[0] == 1 and results[2] == 9
        failed, item, reason = results[1]
        assert (failed, item) == ("failed", 2) and "heartbeat" in reason
        assert [k.requeued for k in kills] == [True, False]
        assert all(isinstance(k, SupervisedKill) and k.item == 2
                   for k in kills)
        # the whole point: a 60s hang never blocks the pool for 60s
        assert elapsed < 30.0

    def test_short_stall_survives(self):
        kills = []
        results = supervised_map(square, [1, 2], workers=2, policy=FAST,
                                 intervention=stall_item_two,
                                 failure=failure_marker,
                                 on_kill=kills.append)
        assert results == [1, 4] and kills == []

    def test_worker_exception_propagates_with_traceback(self):
        with pytest.raises(RuntimeError, match="boom on 5"):
            supervised_map(boom, [5], workers=2, policy=FAST)
        # in-process, the exception itself propagates
        with pytest.raises(ValueError, match="boom on 5"):
            supervised_map(boom, [5], workers=1, policy=FAST)

    def test_exhausted_requeues_without_failure_handler_raises(self):
        with pytest.raises(RuntimeError, match="killed"):
            supervised_map(square, [2], workers=2, policy=FAST,
                           intervention=hang_item_two)

    def test_on_result_fires_for_every_item(self):
        seen = {}
        supervised_map(square, [1, 2, 3], workers=2, policy=FAST,
                       on_result=lambda item, result: seen.__setitem__(
                           item, result))
        assert seen == {1: 1, 2: 4, 3: 9}
