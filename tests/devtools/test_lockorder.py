"""Lock-order recorder: observed acquisition edges and their cycles."""

import _thread
import threading

import pytest

from repro.devtools.lockorder import LockOrderRecorder


class TestLockOrderRecorder:
    def test_consistent_order_has_no_cycles(self):
        with LockOrderRecorder() as recorder:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with a:
                with b:
                    pass
        assert recorder.locks_created >= 2
        assert recorder.cycles() == []
        assert "no cycles" in recorder.render()

    def test_inverted_order_reports_a_cycle(self):
        with LockOrderRecorder() as recorder:
            a = threading.Lock()
            b = threading.Lock()
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        cycles = recorder.cycles()
        assert len(cycles) == 1
        assert len(cycles[0]) == 2
        assert "CYCLES" in recorder.render()

    def test_rlock_reentry_is_not_a_cycle(self):
        with LockOrderRecorder() as recorder:
            lock = threading.RLock()
            with lock:
                with lock:
                    pass
        assert recorder.cycles() == []

    def test_factories_restored_after_exit(self):
        with LockOrderRecorder():
            wrapped = threading.Lock()
            assert type(wrapped).__name__ == "_RecordingLock"
        plain = threading.Lock()
        assert isinstance(plain, type(_thread.allocate_lock()))

    def test_nested_recorders_rejected(self):
        with LockOrderRecorder():
            with pytest.raises(RuntimeError, match="already armed"):
                with LockOrderRecorder():
                    pass

    def test_cross_thread_edges_recorded(self):
        with LockOrderRecorder() as recorder:
            a = threading.Lock()
            b = threading.Lock()

            def worker():
                with a:
                    with b:
                        pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert any(count for count in recorder.edges.values())
        assert recorder.cycles() == []
