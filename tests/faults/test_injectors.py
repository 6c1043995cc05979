"""Tests for the runtime fault injectors (transport and fetch path)."""

import pytest

from repro.faults import (FaultInjector, FaultPlan, FetchFaults,
                          FetchIntervention, LatencyStorm, LossBurst,
                          Partition, PeerCrash, SlowServe, Tamper)
from repro.files.payload import Blob
from repro.simnet.kernel import Simulator
from repro.simnet.trace import TransportTrace
from repro.simnet.transport import Transport


def make_transport(sim, ids=("a", "b", "c", "d")):
    transport = Transport(sim)
    inboxes = {}
    for endpoint_id in ids:
        inbox = inboxes.setdefault(endpoint_id, [])
        transport.attach(endpoint_id,
                         lambda env, inbox=inbox: inbox.append(env))
    return transport, inboxes


def install(sim, transport, *clauses, protect=("crawler",)):
    injector = FaultInjector(sim, transport, FaultPlan(clauses=clauses),
                             protect=protect)
    injector.install()
    return injector


class TestLossBurst:
    def test_drops_everything_inside_window(self, sim):
        transport, inboxes = make_transport(sim)
        injector = install(sim, transport, LossBurst(0.0, 100.0, 1.0))
        for _ in range(5):
            transport.send("a", "b", b"x")
        sim.run_until(50.0)
        assert inboxes["b"] == []
        assert injector.injected["loss"] == 5
        assert transport.drop_causes["fault-injected"] == 5

    def test_window_end_stops_the_burst(self, sim):
        transport, inboxes = make_transport(sim)
        install(sim, transport, LossBurst(0.0, 100.0, 1.0))
        sim.run_until(200.0)  # burst over
        transport.send("a", "b", b"x")
        sim.run_until(300.0)
        assert len(inboxes["b"]) == 1

    def test_injector_tap_sees_each_fanout_send(self, sim):
        """send_many must schedule one interceptable delivery per
        receiver -- a batched delivery would let one loss draw kill (or
        spare) the whole fan-out."""
        transport, inboxes = make_transport(sim)
        injector = install(sim, transport, LossBurst(0.0, 60.0, 1.0))
        assert transport.send_many("a", ("b", "c", "d"), b"payload") == 3
        sim.run_until(30.0)
        assert injector.injected["loss"] == 3  # one draw per envelope
        assert inboxes["b"] == inboxes["c"] == inboxes["d"] == []
        assert transport.drop_causes["fault-injected"] == 3

    def test_not_yet_open_window_is_inert(self, sim):
        transport, inboxes = make_transport(sim)
        injector = install(sim, transport, LossBurst(50.0, 100.0, 1.0))
        transport.send("a", "b", b"x")
        sim.run_until(10.0)  # delivered before the window opens
        assert len(inboxes["b"]) == 1
        assert injector.injected == {}


class TestLatencyStorm:
    def test_surcharge_delays_delivery(self, sim):
        transport, _ = make_transport(sim)
        received_at = []
        transport.attach("sink", lambda env: received_at.append(sim.now))
        injector = install(sim, transport,
                           LatencyStorm(0.0, 1000.0, 5.0, 5.0))
        sim.run_until(1.0)  # let the window activate
        transport.send("a", "sink", b"x")
        sim.run_until(100.0)
        assert received_at and received_at[0] > 5.0
        assert injector.injected["latency"] == 1

    def test_model_attributes_pass_through(self, sim):
        transport, _ = make_transport(sim)
        original_max = transport.latency.base_max_s
        install(sim, transport, LatencyStorm(0.0, 10.0, 1.0, 2.0))
        assert transport.latency.base_max_s == original_max


class TestPartition:
    def test_cross_side_traffic_dropped_until_heal(self, sim):
        transport, inboxes = make_transport(sim)
        injector = install(sim, transport, Partition(10.0, 100.0, 0.5))
        sim.run_until(20.0)  # partition active
        sides = injector._partition_sides[0]
        isolated = sorted(endpoint_id for endpoint_id in transport._endpoints
                          if sides.get(endpoint_id))
        connected = sorted(endpoint_id for endpoint_id in transport._endpoints
                           if not sides.get(endpoint_id))
        assert len(isolated) == 2 and len(connected) == 2

        transport.send(isolated[0], connected[0], b"cross")
        transport.send(isolated[0], isolated[1], b"same-side")
        sim.run_until(50.0)
        assert inboxes[connected[0]] == []
        assert len(inboxes[isolated[1]]) == 1
        assert injector.injected["partition-drop"] == 1

        sim.run_until(150.0)  # healed
        transport.send(isolated[0], connected[0], b"after")
        sim.run_until(200.0)
        assert len(inboxes[connected[0]]) == 1


class TestPeerCrash:
    def test_crash_is_permanent(self, sim):
        transport, _ = make_transport(sim)
        install(sim, transport, PeerCrash(10.0, 1.0))
        sim.run_until(20.0)
        assert not transport.is_online("a")
        transport.set_online("a", True)  # churn tries to revive
        assert not transport.is_online("a")
        transport.set_online("a", False)  # going down still allowed
        assert not transport.is_online("a")

    def test_protected_endpoints_survive(self, sim):
        transport, _ = make_transport(sim, ids=("a", "b", "crawler"))
        injector = install(sim, transport, PeerCrash(10.0, 1.0))
        sim.run_until(20.0)
        assert transport.is_online("crawler")
        assert injector.injected["crash"] == 2

    def test_blackhole_swallows_both_directions(self, sim):
        transport, inboxes = make_transport(sim, ids=("a", "b"))
        injector = install(sim, transport,
                           PeerCrash(10.0, 1.0, blackhole=True))
        sim.run_until(20.0)
        # nominally online -- the half-dead NAT box
        assert transport.is_online("a") and transport.is_online("b")
        transport.send("a", "b", b"in")
        transport.send("b", "a", b"out")
        sim.run_until(50.0)
        assert inboxes["a"] == [] and inboxes["b"] == []
        assert injector.injected["blackhole-drop"] == 2
        assert injector.injected["blackhole"] == 2


class TestLifecycle:
    def test_uninstall_restores_transport(self, sim):
        transport, inboxes = make_transport(sim)
        original_deliver = transport._deliver
        original_set_online = transport.set_online
        original_latency = transport.latency
        injector = install(sim, transport, LossBurst(0.0, 1000.0, 1.0),
                           PeerCrash(5.0, 1.0))
        sim.run_until(10.0)
        injector.uninstall()
        assert transport._deliver == original_deliver
        assert transport.set_online == original_set_online
        assert transport.latency is original_latency
        transport.set_online("a", True)  # crash pin released
        transport.set_online("b", True)
        transport.send("a", "b", b"x")
        sim.run_until(50.0)  # burst window still "open" but tap is gone
        assert len(inboxes["b"]) == 1

    def test_stacks_with_transport_trace(self, sim):
        transport, inboxes = make_transport(sim)
        trace = TransportTrace(transport, classify=lambda payload: "msg")
        trace.install()
        injector = install(sim, transport, LossBurst(0.0, 1000.0, 1.0))
        transport.send("a", "b", b"x")
        sim.run_until(10.0)
        assert inboxes["b"] == []  # injector sits above the trace
        injector.uninstall()
        transport.send("a", "b", b"y")
        sim.run_until(20.0)
        assert len(inboxes["b"]) == 1
        assert trace.captured == 1  # trace saw only the delivered one
        trace.uninstall()

    def test_install_is_idempotent(self, sim):
        transport, _ = make_transport(sim)
        injector = install(sim, transport, LossBurst(0.0, 10.0, 1.0))
        tapped = transport._deliver
        injector.install()
        assert transport._deliver is tapped


class TestDeterminism:
    def run_once(self, seed):
        sim = Simulator(seed=seed)
        transport, _ = make_transport(sim)
        injector = install(
            sim, transport,
            LossBurst(0.0, 50.0, 0.5),
            LatencyStorm(10.0, 60.0, 0.5, 2.0),
            Partition(20.0, 80.0, 0.5),
            PeerCrash(70.0, 0.5))
        for step in range(40):
            sim.at(float(step), lambda: transport.send("a", "b", b"x"))
            sim.at(float(step) + 0.5, lambda: transport.send("c", "d", b"y"))
        sim.run_until(100.0)
        return dict(injector.injected), dict(transport.drop_causes)

    def test_same_seed_same_fault_timeline(self):
        assert self.run_once(7) == self.run_once(7)

    def test_streams_are_named_not_shared(self, sim):
        # arming the injector must not perturb an unrelated stream:
        # draws come from faults:* children, not the parent sequence
        baseline = Simulator(seed=sim.seed).stream("other").random()
        transport, _ = make_transport(sim)
        install(sim, transport, LossBurst(0.0, 10.0, 0.9))
        assert sim.stream("other").random() == baseline


class TestFetchFaults:
    def make(self, sim, *clauses):
        return FetchFaults(sim, FaultPlan(clauses=clauses))

    def test_no_clauses_hands_off(self, sim):
        faults = self.make(sim)
        assert faults.on_fetch(record=None, attempt=0) is None

    def test_out_of_window_hands_off(self, sim):
        faults = self.make(sim, SlowServe(50.0, 100.0, 1.0, 1.0, 2.0))
        assert faults.on_fetch(record=None, attempt=0) is None

    def test_slow_serve_stalls(self, sim):
        faults = self.make(sim, SlowServe(0.0, 100.0, 1.0, 5.0, 5.0))
        intervention = faults.on_fetch(record=None, attempt=0)
        assert intervention.stall_s == pytest.approx(5.0)
        assert intervention.tamper is None
        assert faults.injected["stall"] == 1

    def test_tamper_truncates(self, sim):
        faults = self.make(sim, Tamper(0.0, 100.0, 1.0, 0.0))
        intervention = faults.on_fetch(record=None, attempt=0)
        assert intervention.tamper == "truncate"
        assert faults.injected["truncate"] == 1

    def test_tamper_corrupts(self, sim):
        faults = self.make(sim, Tamper(0.0, 100.0, 0.0, 1.0))
        intervention = faults.on_fetch(record=None, attempt=0)
        assert intervention.tamper == "corrupt"
        assert faults.injected["corrupt"] == 1


class TestFetchIntervention:
    def test_truncate_changes_identity_and_size(self):
        blob = Blob(content_key="strain", extension="exe", size=900_000,
                    markers=(b"sig",))
        truncated = FetchIntervention(tamper="truncate").tamper_blob(blob)
        assert truncated.sha1_urn() != blob.sha1_urn()
        assert truncated.size < blob.size
        assert truncated.markers == ()

    def test_corrupt_keeps_shape_changes_identity(self):
        blob = Blob(content_key="strain", extension="exe", size=900_000,
                    markers=(b"sig",))
        corrupt = FetchIntervention(tamper="corrupt").tamper_blob(blob)
        assert corrupt.sha1_urn() != blob.sha1_urn()
        assert corrupt.size == blob.size
        assert corrupt.markers == blob.markers

    def test_no_tamper_returns_blob_unchanged(self):
        blob = Blob(content_key="x", extension="mp3", size=100)
        assert FetchIntervention().tamper_blob(blob) is blob
