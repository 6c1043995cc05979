"""Rule-by-rule fixtures: every DET rule gets a bad and a good snippet."""

import textwrap

import pytest

from .conftest import codes, lint_source


def lint(snippet, **kwargs):
    return lint_source(textwrap.dedent(snippet), **kwargs)


class TestDET001BareRandom:
    def test_bad_module_random_call(self):
        findings = lint("""
            import random

            def jitter():
                return random.uniform(0.9, 1.1)
        """)
        assert codes(findings) == ["DET001", "DET001"]  # import + call

    def test_bad_unseeded_random_instance(self):
        findings = lint("""
            import random

            rng = random.Random()
        """)
        assert "DET001" in codes(findings)
        assert any("without a seed" in f.message for f in findings)

    def test_bad_from_import_draw(self):
        findings = lint("""
            from random import shuffle

            def mix(items):
                shuffle(items)
        """)
        assert codes(findings) == ["DET001", "DET001"]

    def test_bad_numpy_global_state(self):
        findings = lint("""
            import numpy as np

            def noise():
                return np.random.normal(0.0, 1.0)
        """)
        assert codes(findings) == ["DET001"]

    def test_good_named_stream(self):
        findings = lint("""
            def jitter(sim):
                return sim.stream("churn").uniform(0.9, 1.1)
        """)
        assert findings == []

    def test_good_seeded_numpy_generator(self):
        findings = lint("""
            import numpy as np

            def noise(seed):
                return np.random.default_rng(seed).normal(0.0, 1.0)
        """)
        assert findings == []

    def test_rng_module_itself_is_exempt(self):
        findings = lint("""
            import random

            class SeededStream:
                def __init__(self, seed):
                    self._random = random.Random(seed)
        """, dotted="repro.simnet.rng",
            relpath="src/repro/simnet/rng.py")
        assert findings == []


class TestDET002WallClock:
    def test_bad_time_time(self):
        findings = lint("""
            import time

            def stamp():
                return time.time()
        """)
        assert codes(findings) == ["DET002"]

    def test_bad_from_import_perf_counter(self):
        findings = lint("""
            from time import perf_counter

            def stamp():
                return perf_counter()
        """)
        assert codes(findings) == ["DET002"]

    def test_bad_datetime_now(self):
        findings = lint("""
            import datetime

            def stamp():
                return datetime.datetime.now()
        """)
        assert codes(findings) == ["DET002"]

    def test_bad_datetime_from_import(self):
        findings = lint("""
            from datetime import datetime

            def stamp():
                return datetime.utcnow()
        """)
        assert codes(findings) == ["DET002"]

    def test_good_virtual_time(self):
        findings = lint("""
            def stamp(sim):
                return sim.now
        """)
        assert findings == []


class TestDET003UnorderedIteration:
    def test_bad_set_iteration_scheduling(self):
        findings = lint("""
            def announce(sim, peers):
                targets = set(peers)
                for peer in targets:
                    sim.after(1.0, peer.ping, label="ping")
        """)
        assert codes(findings) == ["DET003"]

    def test_bad_set_literal_rng_draw(self):
        findings = lint("""
            def pick(stream):
                for name in {"a", "b", "c"}:
                    if stream.random() < 0.5:
                        return name
        """)
        assert codes(findings) == ["DET003"]

    def test_bad_set_intersection_feeding_scheduler(self):
        findings = lint("""
            def sync(sim, alive, infected):
                alive = set(alive)
                both = alive & set(infected)
                for host in both:
                    sim.at(5.0, host.sync)
        """)
        assert codes(findings) == ["DET003"]

    def test_bad_keys_of_set_valued_name(self):
        # .keys() heuristic only fires when the receiver is set-typed;
        # a plain dict iterates in insertion order and is fine
        findings = lint("""
            def f(sim, table):
                pending = set(table)
                for key in pending:
                    sim.after(1.0, lambda: None)
        """)
        assert codes(findings) == ["DET003"]

    @pytest.mark.parametrize("source", ["""
            def forward(self, frame):
                for leaf_id in set(self.leaf_tables):
                    if self.leaf_tables[leaf_id].admits(frame):
                        self.transport.send(self.endpoint_id, leaf_id,
                                            frame)
        """, """
            def sync(self, packets):
                send = self.transport.send
                for parent_id in set(self.parent_ids):
                    for raw in packets:
                        send(self.endpoint_id, parent_id, raw)
        """], ids=["method", "local-alias"])
    def test_bad_set_iteration_feeding_transport_send(self, source):
        # a send schedules a delivery: its order is event order
        assert codes(lint(source)) == ["DET003"]

    def test_good_sorted_iteration(self):
        findings = lint("""
            def announce(sim, peers):
                targets = set(peers)
                for peer in sorted(targets):
                    sim.after(1.0, peer.ping, label="ping")
        """)
        assert findings == []

    def test_good_set_iteration_without_sink(self):
        findings = lint("""
            def census(peers):
                count = 0
                for peer in set(peers):
                    count += 1
                return count
        """)
        assert findings == []

    def test_good_dict_iteration_with_sink(self):
        findings = lint("""
            def announce(sim, schedule):
                for name in schedule:
                    sim.after(1.0, lambda: None, label=name)
        """)
        assert findings == []


class TestDET004HashSeed:
    def test_bad_hash_of_string(self):
        findings = lint("""
            def tag(endpoint_id):
                return hash(endpoint_id) & 0xFFFF
        """)
        assert codes(findings) == ["DET004"]

    def test_good_numeric_hash_and_crc(self):
        findings = lint("""
            import zlib

            def tag(endpoint_id):
                return zlib.crc32(endpoint_id.encode()) & 0xFFFF

            def numeric():
                return hash(42)
        """)
        assert findings == []


class TestDET005IdOrder:
    def test_bad_sorted_key_id(self):
        findings = lint("""
            def order(nodes):
                return sorted(nodes, key=id)
        """)
        assert codes(findings) == ["DET005"]

    def test_bad_sort_key_lambda_id(self):
        findings = lint("""
            def order(nodes):
                nodes.sort(key=lambda node: id(node))
        """)
        assert codes(findings) == ["DET005"]

    def test_good_attribute_key(self):
        findings = lint("""
            def order(nodes):
                return sorted(nodes, key=lambda node: node.name)
        """)
        assert findings == []


class TestDET006AmbientEntropy:
    def test_bad_environ_subscript(self):
        findings = lint("""
            import os

            def seed():
                return int(os.environ["SEED"])
        """)
        assert codes(findings) == ["DET006"]

    def test_bad_getenv_and_urandom(self):
        findings = lint("""
            import os

            def noise():
                os.getenv("DEBUG")
                return os.urandom(8)
        """)
        assert codes(findings) == ["DET006", "DET006"]

    def test_bad_uuid4_and_secrets(self):
        findings = lint("""
            import secrets
            import uuid

            def ident():
                return uuid.uuid4(), secrets.token_hex(4)
        """)
        assert codes(findings) == ["DET006", "DET006"]

    def test_bad_from_import_urandom(self):
        findings = lint("""
            from os import urandom

            def noise():
                return urandom(8)
        """)
        assert codes(findings) == ["DET006"]

    def test_good_config_threading(self):
        findings = lint("""
            def seed(config):
                return config.seed
        """)
        assert findings == []


class TestFindingHygiene:
    def test_findings_sorted_and_stable(self):
        source = """
            import random
            import time

            def f():
                time.time()
                return random.random()
        """
        first = lint(source)
        second = lint(source)
        assert first == second
        assert first == sorted(first)

    def test_render_has_location_code_and_hint(self):
        finding = lint("""
            import time

            def f():
                return time.time()
        """)[0]
        text = finding.render()
        assert "src/repro/gnutella/fake.py" in text
        assert "DET002" in text
        assert "[fix:" in text
