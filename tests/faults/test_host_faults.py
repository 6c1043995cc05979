"""Tests for host-level fault clauses and the chaotic-IO injector."""

import pytest

from repro.faults import (DiskFull, FaultPlan, HostIOFaults, SlowFsync,
                          TornWrite, WorkerHang, WorkerStall)

PAYLOAD = b'{"crc":"00000000","record":{"seed":1}}\n'


class TestHostClauses:
    def test_worker_hang_attempts(self):
        hang = WorkerHang(seeds=(3, 5), attempts=2)
        assert hang.should_hang(3, 0) and hang.should_hang(3, 1)
        assert not hang.should_hang(3, 2)
        assert not hang.should_hang(4, 0)

    def test_worker_stall_validation(self):
        with pytest.raises(ValueError):
            WorkerStall(seeds=(1,), stall_s=0.0)
        with pytest.raises(ValueError):
            WorkerHang(seeds=(1,), attempts=0)

    def test_io_clause_probability_validated(self):
        with pytest.raises(ValueError):
            TornWrite(probability=1.5)
        with pytest.raises(ValueError):
            SlowFsync(delay_s=-1.0)

    def test_plan_accepts_and_reports_host_clauses(self):
        plan = FaultPlan(worker_hang=WorkerHang(seeds=(2,)),
                         worker_stall=WorkerStall(seeds=(3,)),
                         io_clauses=(TornWrite(at_ops=(0,)),))
        assert bool(plan)
        assert plan.worker_hang == WorkerHang(seeds=(2,))
        assert plan.worker_stall == WorkerStall(seeds=(3,))
        assert plan.io_clauses == (TornWrite(at_ops=(0,)),)

    def test_plan_rejects_foreign_io_clause(self):
        with pytest.raises(TypeError, match="IO fault"):
            FaultPlan(io_clauses=(WorkerHang(seeds=(1,)),))

    def test_scientific_key_excludes_host_clauses(self):
        """The checkpoint-compatibility contract: host chaos never
        changes measured results, so it must not change the key."""
        bare = FaultPlan()
        chaotic = FaultPlan(worker_hang=WorkerHang(seeds=(1,)),
                            worker_stall=WorkerStall(seeds=(2,)),
                            io_clauses=(DiskFull(probability=0.5),))
        assert bare.scientific_key() == chaotic.scientific_key()


class TestHostIOFaults:
    def test_no_clauses_passes_through(self):
        io = HostIOFaults(FaultPlan(), seed=1)
        data, error = io.apply_write("p", PAYLOAD)
        assert data == PAYLOAD and error is None

    def test_at_ops_tears_exact_ordinal(self):
        plan = FaultPlan(io_clauses=(TornWrite(at_ops=(1,)),))
        io = HostIOFaults(plan, seed=7)
        first, _ = io.apply_write("p", PAYLOAD)
        second, _ = io.apply_write("p", PAYLOAD)
        third, _ = io.apply_write("p", PAYLOAD)
        assert first == PAYLOAD and third == PAYLOAD
        assert len(second) < len(PAYLOAD)
        assert PAYLOAD.startswith(second)  # a prefix, never scrambled
        assert io.injected == {"torn-write": 1}

    def test_disk_full_returns_partial_bytes_and_error(self):
        plan = FaultPlan(io_clauses=(DiskFull(at_ops=(0,)),))
        io = HostIOFaults(plan, seed=7)
        data, error = io.apply_write("p", PAYLOAD)
        assert len(data) < len(PAYLOAD)
        assert isinstance(error, OSError) and error.errno == 28

    def test_same_seed_same_carnage(self):
        plan = FaultPlan(io_clauses=(TornWrite(probability=0.4),))

        def run(seed):
            io = HostIOFaults(plan, seed=seed)
            return [io.apply_write("p", PAYLOAD)[0] for _ in range(50)]

        assert run(11) == run(11)
        assert run(11) != run(12)  # and the seed actually matters

    def test_at_ops_does_not_shift_probabilistic_draws(self):
        """Adding an explicit ordinal must not reshuffle later seeded
        tears -- the stream advances identically either way."""
        base = FaultPlan(io_clauses=(TornWrite(probability=0.4),))
        pinned = FaultPlan(io_clauses=(TornWrite(probability=0.4,
                                                 at_ops=(0,)),))

        def torn_ops(plan):
            io = HostIOFaults(plan, seed=3)
            return [len(io.apply_write("p", PAYLOAD)[0]) < len(PAYLOAD)
                    for _ in range(40)]

        assert torn_ops(base)[1:] == torn_ops(pinned)[1:]

    def test_slow_fsync_counts(self):
        plan = FaultPlan(io_clauses=(SlowFsync(probability=1.0,
                                               delay_s=0.0),))
        io = HostIOFaults(plan, seed=1)
        io.on_fsync("p")
        assert io.injected == {"slow-fsync": 1}
