"""Twin registry + drift checker (TWN001).

Synthetic fast/reference pairs: a matched pair stays silent, seeded
drift on any declared obligation fires, a renamed member fires at the
registry, and the wildcard-dispatch normalization holds.
"""

import textwrap

import pytest

from repro.devtools.detlint import TwinPair, check_twins, parse_twins
from repro.devtools.detlint.twins import TwinMember

from .conftest import codes, parse_source


def module(source, dotted="repro.gnutella.fake",
           relpath="src/repro/gnutella/fake.py"):
    return parse_source(textwrap.dedent(source), dotted=dotted,
                        relpath=relpath)


def pair(obligations, members=("repro.gnutella.fake:Node.fast",
                               "repro.gnutella.fake:Node.slow")):
    return TwinPair(name="fake-pair",
                    members=tuple(TwinMember.parse(m) for m in members),
                    obligations=tuple(obligations))


MATCHED = """
    class Node:
        def fast(self, message):
            try:
                self._handle_ping(message)
            except ValueError:
                self.drop_count += 1
                raise

        def slow(self, message):
            try:
                self._handle_ping_reference(message)
            except ValueError:
                self.drop_count += 1
                raise
"""


class TestMatchedPairIsSilent:
    def test_all_obligations_pass(self):
        mod = module(MATCHED)
        findings = check_twins(
            [mod], [pair(("counters", "handlers", "guards", "raises"))])
        assert findings == []


class TestSeededDrift:
    def test_counter_drift_fires(self):
        mod = module("""
            class Node:
                def fast(self, message):
                    self.drop_count += 1
                    self.seen_count += 1

                def slow(self, message):
                    self.drop_count += 1
        """)
        findings = check_twins([mod], [pair(("counters",))])
        assert codes(findings) == ["TWN001"]
        assert "seen_count" in findings[0].message

    def test_handler_drift_fires(self):
        mod = module("""
            class Node:
                def fast(self, message):
                    self._handle_ping(message)
                    self._handle_pong(message)

                def slow(self, message):
                    self._handle_ping_reference(message)
        """)
        findings = check_twins([mod], [pair(("handlers",))])
        assert codes(findings) == ["TWN001"]

    def test_guard_drift_fires(self):
        mod = module("""
            class Node:
                def fast(self, message):
                    try:
                        self._handle_ping(message)
                    except (ValueError, KeyError):
                        pass

                def slow(self, message):
                    try:
                        self._handle_ping_reference(message)
                    except ValueError:
                        pass
        """)
        findings = check_twins([mod], [pair(("guards",))])
        assert codes(findings) == ["TWN001"]

    def test_raise_drift_fires(self):
        mod = module("""
            class Node:
                def fast(self, message):
                    raise ValueError("bad")

                def slow(self, message):
                    return None
        """)
        findings = check_twins([mod], [pair(("raises",))])
        assert codes(findings) == ["TWN001"]

    def test_undeclared_obligation_does_not_fire(self):
        # drift on an obligation the pair did not declare is invisible
        mod = module("""
            class Node:
                def fast(self, message):
                    self.seen_count += 1

                def slow(self, message):
                    pass
        """)
        findings = check_twins([mod], [pair(("raises",))])
        assert findings == []


class TestRegistryResolution:
    def test_missing_member_fires_at_registry(self):
        mod = module("""
            class Node:
                def fast(self, message):
                    pass
        """)
        findings = check_twins([mod], [pair(("raises",))])
        assert codes(findings) == ["TWN001"]
        assert findings[0].path == "pyproject.toml"
        assert "slow" in findings[0].message

    def test_cross_module_members_resolve(self):
        fast = module("""
            def drain(queue):
                raise ValueError("empty")
        """, dotted="repro.simnet.fast", relpath="src/repro/simnet/fast.py")
        slow = module("""
            def drain(queue):
                raise ValueError("empty")
        """, dotted="repro.simnet.slow", relpath="src/repro/simnet/slow.py")
        pairs = [pair(("raises",), members=("repro.simnet.fast:drain",
                                            "repro.simnet.slow:drain"))]
        assert check_twins([fast, slow], pairs) == []


class TestWildcardDispatch:
    def test_both_sides_wildcard_dispatch_match(self):
        # when both twins dispatch via getattr(self, f"_handle_{kind}")
        # the named sets are unverifiable statically; parity passes
        mod = module("""
            class Node:
                def fast(self, kind, message):
                    handler = getattr(self, f"_handle_{kind}")
                    handler(message)

                def slow(self, kind, message):
                    handler = getattr(self, f"_handle_{kind}_reference")
                    handler(message)
        """)
        findings = check_twins([mod], [pair(("handlers",))])
        assert findings == []

    def test_mixed_dispatch_styles_fire(self):
        # one side wildcard, the other named: coverage cannot be proven,
        # so the drift checker refuses the pair
        mod = module("""
            class Node:
                def fast(self, kind, message):
                    handler = getattr(self, f"_handle_{kind}")
                    handler(message)

                def slow(self, kind, message):
                    self._handle_ping_reference(message)
        """)
        findings = check_twins([mod], [pair(("handlers",))])
        assert codes(findings) == ["TWN001"]


class TestParseTwins:
    def test_registry_roundtrip(self):
        pairs = parse_twins({
            "queue": {"members": ["repro.simnet.a:A", "repro.simnet.b:B"],
                      "obligations": ["api", "raises"]},
        })
        assert len(pairs) == 1
        assert pairs[0].name == "queue"
        assert pairs[0].obligations == ("api", "raises")

    def test_single_member_rejected(self):
        with pytest.raises(ValueError, match="two members"):
            parse_twins({"solo": {"members": ["repro.x:A"],
                                  "obligations": ["api"]}})

    def test_unknown_obligation_rejected(self):
        with pytest.raises(ValueError, match="unknown obligation"):
            parse_twins({"p": {"members": ["repro.x:A", "repro.x:B"],
                               "obligations": ["vibes"]}})

    def test_bad_member_spec_rejected(self):
        with pytest.raises(ValueError, match="pkg.module:Qual.name"):
            parse_twins({"p": {"members": ["no-colon", "repro.x:B"],
                               "obligations": ["api"]}})


class TestRealRegistry:
    def test_declared_pairs_hold_on_this_tree(self):
        # the live registry in pyproject.toml must keep passing; this is
        # the matched-pair silent test against the real twins
        from pathlib import Path

        from repro.devtools.detlint import collect_modules, load_config
        root = Path(__file__).resolve().parents[2]
        config = load_config(root)
        assert [pair.name for pair in config.twins] == ["frame-patch"], (
            "twin registry changed")
        modules = collect_modules(config)
        findings = [f for f in check_twins(modules, config.twins)]
        assert findings == []
