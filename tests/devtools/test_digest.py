"""Event-stream digest: the one-hash reduction of a whole run."""

from repro.devtools.digest import EventDigest
from repro.simnet.kernel import Simulator
from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.registry import MetricRegistry


def run_jittered(seed, horizon=100.0):
    """A sim whose event stream depends on seeded draws.

    The digest rides a stock :class:`KernelTelemetry` through the
    kernel's optional per-event ``on_event`` hook, as in a campaign.
    """
    digest = EventDigest()
    telemetry = KernelTelemetry(MetricRegistry())
    telemetry.on_event = digest.on_event
    sim = Simulator(seed=seed, telemetry=telemetry)
    sim.every(5.0, lambda: None, label="tick",
              jitter=sim.stream("jitter"), until=horizon)
    sim.after(1.0, lambda: sim.after(sim.stream("x").uniform(1.0, 9.0),
                                     lambda: None, label="chained"),
              label="starter")
    sim.run_until(horizon)
    return digest, telemetry, sim


class TestEventDigest:
    def test_same_feed_same_digest(self):
        a, b = EventDigest(), EventDigest()
        for digest in (a, b):
            digest.on_event(1.0, "x")
            digest.on_event(2.5, "y")
        assert a.hexdigest() == b.hexdigest()
        assert a.events == 2

    def test_order_matters(self):
        a, b = EventDigest(), EventDigest()
        a.on_event(1.0, "x")
        a.on_event(2.5, "y")
        b.on_event(2.5, "y")
        b.on_event(1.0, "x")
        assert a.hexdigest() != b.hexdigest()

    def test_label_and_time_matter(self):
        a, b, c = EventDigest(), EventDigest(), EventDigest()
        a.on_event(1.0, "x")
        b.on_event(1.0, "y")
        c.on_event(1.5, "x")
        assert len({a.hexdigest(), b.hexdigest(), c.hexdigest()}) == 3


class TestKernelHook:
    def test_digest_counts_every_processed_event(self):
        digest, _, sim = run_jittered(seed=3)
        assert digest.events == sim.events_processed
        assert digest.events > 0

    def test_same_seed_same_digest(self):
        first, _, _ = run_jittered(seed=11)
        second, _, _ = run_jittered(seed=11)
        assert first.hexdigest() == second.hexdigest()

    def test_different_seed_different_digest(self):
        first, _, _ = run_jittered(seed=11)
        second, _, _ = run_jittered(seed=12)
        assert first.hexdigest() != second.hexdigest()

    def test_label_counts_still_maintained(self):
        _, telemetry, sim = run_jittered(seed=3)
        assert telemetry.label_counts["tick"] > 0
        assert sum(telemetry.label_counts.values()) == sim.events_processed

    def test_plain_kernel_telemetry_unaffected(self):
        # the stock KernelTelemetry has no on_event hook: the kernel
        # must keep working (and counting) without one
        telemetry = KernelTelemetry(MetricRegistry())
        sim = Simulator(seed=3, telemetry=telemetry)
        sim.every(5.0, lambda: None, label="tick", until=50.0)
        sim.run_until(50.0)
        assert telemetry.events_seen == sim.events_processed
