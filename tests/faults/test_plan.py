"""Tests for the declarative fault-plan layer."""

import pickle

import pytest

from repro.faults import (SEVERITIES, FaultPlan, LatencyStorm, LossBurst,
                          Partition, PeerCrash, SlowServe, Tamper,
                          WorkerCrash)


class TestClauseValidation:
    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError):
            LossBurst(10.0, 10.0, 0.1)
        with pytest.raises(ValueError):
            LossBurst(-1.0, 10.0, 0.1)

    def test_loss_rate_bounded(self):
        with pytest.raises(ValueError):
            LossBurst(0.0, 10.0, 1.5)

    def test_latency_surcharge_ordered(self):
        with pytest.raises(ValueError):
            LatencyStorm(0.0, 10.0, 2.0, 1.0)

    def test_partition_fraction_bounded(self):
        with pytest.raises(ValueError):
            Partition(0.0, 10.0, fraction=1.2)

    def test_crash_instant_nonnegative(self):
        with pytest.raises(ValueError):
            PeerCrash(-5.0, 0.1)

    def test_slow_serve_stall_bounds(self):
        with pytest.raises(ValueError):
            SlowServe(0.0, 10.0, 0.5, 0.0, 5.0)  # zero min stall
        with pytest.raises(ValueError):
            SlowServe(0.0, 10.0, 0.5, 9.0, 5.0)  # min > max

    def test_tamper_probabilities_sum(self):
        with pytest.raises(ValueError):
            Tamper(0.0, 10.0, truncate_probability=0.6,
                   corrupt_probability=0.6)

    def test_worker_crash_attempts_positive(self):
        with pytest.raises(ValueError):
            WorkerCrash(seeds=(1,), attempts=0)


class TestWorkerCrash:
    def test_default_crashes_first_attempt_only(self):
        crash = WorkerCrash(seeds=(2, 5))
        assert crash.should_crash(2, 0)
        assert not crash.should_crash(2, 1)  # the retry heals
        assert not crash.should_crash(3, 0)  # unlisted seed untouched

    def test_two_attempts_kill_the_retry_too(self):
        crash = WorkerCrash(seeds=(2,), attempts=2)
        assert crash.should_crash(2, 0)
        assert crash.should_crash(2, 1)
        assert not crash.should_crash(2, 2)


class TestFaultPlan:
    def test_unknown_clause_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(clauses=("not a clause",))

    def test_truthiness(self):
        assert not FaultPlan()
        assert FaultPlan(clauses=(LossBurst(0.0, 1.0, 0.1),))
        assert FaultPlan(worker_crash=WorkerCrash(seeds=(1,)))

    def test_clause_split_by_surface(self):
        burst = LossBurst(0.0, 1.0, 0.1)
        stall = SlowServe(0.0, 1.0, 0.5, 1.0, 2.0)
        plan = FaultPlan(clauses=(burst, stall))
        assert plan.transport_clauses == (burst,)
        assert plan.fetch_clauses == (stall,)

    def test_scientific_key_excludes_worker_crash(self):
        burst = LossBurst(0.0, 1.0, 0.1)
        with_crash = FaultPlan(clauses=(burst,),
                               worker_crash=WorkerCrash(seeds=(1,)))
        without = FaultPlan(clauses=(burst,))
        assert with_crash.scientific_key() == without.scientific_key()

    def test_picklable(self):
        plan = FaultPlan.envelope("severe", 1000.0)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestEnvelope:
    def test_off_is_empty(self):
        assert not FaultPlan.envelope("off", 1000.0)

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.envelope("apocalyptic", 1000.0)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan.envelope("mild", 0.0)

    def test_all_graded_severities_build(self):
        for severity in SEVERITIES[1:]:
            plan = FaultPlan.envelope(severity, 86_400.0)
            assert plan.clauses
            assert plan.worker_crash is None

    def test_windows_fit_horizon(self):
        horizon = 3600.0
        plan = FaultPlan.envelope("extreme", horizon)
        for clause in plan.clauses:
            end = getattr(clause, "end_s", getattr(clause, "at_s", 0.0))
            assert end <= horizon

    def test_severity_escalates_loss(self):
        def first_loss(severity):
            plan = FaultPlan.envelope(severity, 1000.0)
            return next(clause.loss_rate for clause in plan.clauses
                        if isinstance(clause, LossBurst))
        rates = [first_loss(s) for s in ("mild", "moderate", "severe",
                                         "extreme")]
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]
