"""Dataflow taint (DET007/DET008): seeded-mutation pairs.

Every test class pairs a known-bad fixture (the check must fire) with
its fixed twin (the check must stay silent) -- the acceptance bar for
a lint rule is both directions, or it is either blind or noisy.
"""

import textwrap

from .conftest import codes, dataflow_source


def lint(snippet, **kwargs):
    return dataflow_source(textwrap.dedent(snippet), **kwargs)


class TestDET007LaunderedEntropy:
    def test_bad_wall_clock_laundered_into_delay(self):
        findings = lint("""
            import time

            def kick(sim, cb):
                jitter = time.time() % 1.0
                sim.after(jitter, cb)
        """)
        assert "DET007" in codes(findings)

    def test_fixed_stream_draw_is_silent(self):
        findings = lint("""
            def kick(sim, cb):
                jitter = sim.stream("churn").uniform(0.0, 1.0)
                sim.after(jitter, cb)
        """)
        assert findings == []

    def test_bad_entropy_through_helper_return(self):
        findings = lint("""
            import time

            def _now_ish():
                return time.time() * 0.5

            def kick(sim, cb):
                delay = _now_ish()
                sim.after(delay, cb)
        """)
        assert "DET007" in codes(findings)

    def test_bad_entropy_into_helper_sink_param(self):
        findings = lint("""
            import time

            def _schedule(sim, delay, cb):
                sim.after(delay, cb)

            def kick(sim, cb):
                noisy = time.time() % 1.0
                _schedule(sim, noisy, cb)
        """)
        assert "DET007" in codes(findings)

    def test_bad_environ_laundered_into_seed(self):
        findings = lint("""
            import os

            def make_seed():
                salt = os.environ.get("SALT", "0")
                return int(salt)

            def build(sim):
                sim.stream("x").seed(make_seed())
        """)
        assert "DET007" in codes(findings)

    def test_bad_taint_survives_a_branch_that_reassigns(self):
        # one path clears the name, the other keeps the entropy: the
        # join after the if keeps the taint
        findings = lint("""
            import os

            def schedule(sim, delay, until, cb):
                when = sim.now + delay * float(os.environ.get("K", "1"))
                if when > until:
                    when = until
                sim.at(when, cb)
        """)
        assert codes(findings) == ["DET007"]

    def test_fixed_reassigned_on_both_branches_is_silent(self):
        findings = lint("""
            import os

            def schedule(sim, delay, until, cb):
                when = sim.now + delay * float(os.environ.get("K", "1"))
                if when > until:
                    when = until
                else:
                    when = sim.now + delay
                sim.at(when, cb)
        """)
        assert findings == []

    def test_direct_source_at_sink_stays_det002_territory(self):
        # time.time() directly inside the sink call is DET002's finding;
        # the dataflow pass must not double-report it
        findings = lint("""
            import time

            def kick(sim, cb):
                sim.after(time.time() % 1.0, cb)
        """)
        assert findings == []


class TestDET008OrderTaint:
    def test_bad_set_pop_reaches_scheduler(self):
        findings = lint("""
            def drain(sim, peers):
                alive = set(peers)
                first = alive.pop()
                sim.at(5.0, first)
        """)
        assert "DET008" in codes(findings)

    def test_fixed_sorted_pop_is_silent(self):
        findings = lint("""
            def drain(sim, peers):
                alive = sorted(set(peers))
                first = alive.pop()
                sim.at(5.0, first)
        """)
        assert findings == []

    def test_bad_loop_variable_escapes_loop(self):
        findings = lint("""
            def pick(sim, peers):
                chosen = None
                for peer in set(peers):
                    chosen = peer
                sim.after(1.0, chosen)
        """)
        assert "DET008" in codes(findings)

    def test_bad_comprehension_over_set_reaches_send_many(self):
        findings = lint("""
            def forward(self, src, frame):
                targets = [peer for peer in set(self.peer_ids)
                           if peer != src]
                self.transport.send_many(self.endpoint_id, targets, frame)
        """)
        assert codes(findings) == ["DET008"]

    def test_fixed_sorted_comprehension_is_silent(self):
        findings = lint("""
            def forward(self, src, frame):
                targets = [peer for peer in sorted(set(self.peer_ids))
                           if peer != src]
                self.transport.send_many(self.endpoint_id, targets, frame)
        """)
        assert findings == []

    def test_bad_set_converted_inline_at_send(self):
        findings = lint("""
            def originate(self, packet):
                self.transport.send_many(self.endpoint_id,
                                         list(set(self.parent_ids)), packet)
        """)
        assert codes(findings) == ["DET008"]
        assert "directly" in findings[0].message

    def test_fixed_sorted_inline_at_send_is_silent(self):
        findings = lint("""
            def originate(self, packet):
                self.transport.send_many(self.endpoint_id,
                                         sorted(set(self.parent_ids)), packet)
        """)
        assert findings == []

    def test_bad_order_taint_inside_nested_function(self):
        findings = lint("""
            class Injector:
                def schedule(self, clause):
                    def activate():
                        endpoints = list(set(self.transport.endpoints))
                        self.stream.sample(endpoints, clause.count)

                    self.sim.at(clause.start_s, activate)
        """)
        assert codes(findings) == ["DET008"]

    def test_fixed_nested_function_with_sorted_census_is_silent(self):
        findings = lint("""
            class Injector:
                def schedule(self, clause):
                    def activate():
                        endpoints = sorted(self.transport.endpoints)
                        self.stream.sample(endpoints, clause.count)

                    self.sim.at(clause.start_s, activate)
        """)
        assert findings == []

    def test_in_loop_sink_stays_det003_territory(self):
        # the sink lexically inside the iterating loop is DET003's
        # finding; the dataflow pass must not double-report it
        findings = lint("""
            def fanout(sim, peers):
                for peer in set(peers):
                    sim.after(1.0, peer)
        """)
        assert findings == []

    def test_cleanser_kills_order_taint(self):
        findings = lint("""
            def count(sim, peers):
                alive = set(peers)
                depth = len(alive)
                sim.after(float(depth), None)
        """)
        assert findings == []

    def test_reassignment_to_ordered_value_kills_taint(self):
        findings = lint("""
            def drain(sim, peers):
                alive = set(peers)
                alive = sorted(alive)
                head = alive[0]
                sim.at(5.0, head)
        """)
        assert findings == []


class TestDataflowOnRealTreeConventions:
    def test_rng_module_itself_is_exempt(self):
        findings = lint("""
            import time

            def reseed(sim):
                noisy = time.time()
                sim.stream("x").seed(noisy)
        """, dotted="repro.simnet.rng", relpath="src/repro/simnet/rng.py")
        assert findings == []

    def test_findings_are_sorted_and_deduped(self):
        findings = lint("""
            import time

            def kick(sim, cb):
                a = time.time() % 1.0
                sim.after(a, cb)
                sim.after(a, cb)
        """)
        assert findings == sorted(findings)
        assert len(set(findings)) == len(findings)
