"""Layering checker: the declared DAG vs a synthetic package on disk."""

from pathlib import Path

import pytest

from repro.devtools.detlint import (LintConfig, check_layers,
                                    collect_modules, extract_edges)

LAYERS = {
    "low": [],
    "mid": ["low"],
    "high": ["low", "mid"],
    "<root>": ["high", "low", "mid"],
}


def build_package(root: Path, files: dict) -> LintConfig:
    """Write ``files`` (relative to src/pkg) and return a lint config."""
    for rel, source in files.items():
        path = root / "src" / "pkg" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return LintConfig(root=root, package="pkg", src="src", layers=LAYERS)


def layer_findings(config, deferred=frozenset()):
    modules = collect_modules(config)
    return check_layers(modules, config.layers, set(deferred), package="pkg")


class TestLayerDAG:
    def test_clean_package_has_no_findings(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "from .high import api\n",
            "low/__init__.py": "VALUE = 1\n",
            "mid/__init__.py": "from ..low import VALUE\n",
            "high/__init__.py": "from ..mid import VALUE as api\n",
        })
        assert layer_findings(config) == []

    def test_upward_import_is_lay001(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": "",
            "low/bad.py": "from ..high import api\n",
            "mid/__init__.py": "",
            "high/__init__.py": "api = 1\n",
        })
        findings = layer_findings(config)
        assert [f.code for f in findings] == ["LAY001"]
        assert "low -> high" in findings[0].message
        assert findings[0].path.endswith("low/bad.py")

    def test_absolute_import_also_checked(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": "import pkg.high\n",
            "high/__init__.py": "",
        })
        findings = layer_findings(config)
        assert [f.code for f in findings] == ["LAY001"]

    def test_undeclared_layer_is_flagged(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": "",
            "rogue/__init__.py": "from ..low import x\n",
        })
        findings = layer_findings(config)
        assert [f.code for f in findings] == ["LAY001"]
        assert "not declared" in findings[0].message

    def test_deferred_violation_is_lay002(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": (
                "def arm():\n"
                "    from ..high import api\n"
                "    return api\n"),
            "high/__init__.py": "api = 1\n",
        })
        findings = layer_findings(config)
        assert [f.code for f in findings] == ["LAY002"]

    def test_declared_deferred_edge_is_allowed(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": (
                "def arm():\n"
                "    from ..high import api\n"
                "    return api\n"),
            "high/__init__.py": "api = 1\n",
        })
        assert layer_findings(config, deferred={("low", "high")}) == []

    def test_module_level_import_never_excused_by_deferred(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": "from ..high import api\n",
            "high/__init__.py": "api = 1\n",
        })
        findings = layer_findings(config, deferred={("low", "high")})
        assert [f.code for f in findings] == ["LAY001"]


class TestEdgeExtraction:
    def test_relative_imports_resolve_from_init_and_module(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": "from . import sibling\n",
            "low/sibling.py": "from .other import x\n",
            "low/other.py": "x = 1\n",
            "mid/__init__.py": "from ..low import x\n",
        })
        edges = extract_edges(collect_modules(config), package="pkg")
        pairs = {(e.src_layer, e.dst_layer) for e in edges}
        # intra-layer edges exist but never cross layers except mid->low
        assert ("mid", "low") in pairs
        assert all(src == dst or (src, dst) == ("mid", "low")
                   for src, dst in pairs)

    def test_function_imports_marked_deferred(self, tmp_path):
        config = build_package(tmp_path, {
            "__init__.py": "",
            "low/__init__.py": (
                "from ..mid import a\n"
                "def f():\n"
                "    from ..mid import b\n"),
            "mid/__init__.py": "a = b = 1\n",
        })
        edges = [e for e in extract_edges(collect_modules(config),
                                          package="pkg")
                 if e.dst_layer == "mid"]
        assert sorted(e.deferred for e in edges) == [False, True]


class TestRepoDAGMatchesReality:
    """The declared DAG in pyproject.toml must describe the real tree."""

    def test_real_src_tree_obeys_declared_layers(self):
        from repro.devtools.detlint import lint_repo
        root = Path(__file__).resolve().parents[2]
        if not (root / "pyproject.toml").exists():
            pytest.skip("repo root not found")
        result = lint_repo(root)
        layering = [f for f in result.findings
                    if f.code.startswith("LAY")]
        assert layering == []


class TestCheckEdgesDirect:
    """check_edges over hand-built edges (the cache rehydration path)."""

    def _edge(self, src, dst, deferred=False):
        from repro.devtools.detlint import ImportEdge
        return ImportEdge(src_layer=src, dst_layer=dst,
                          path=f"src/pkg/{src}/mod.py", line=3, col=0,
                          deferred=deferred, statement=f"pkg.{dst}.mod")

    def test_deferred_core_to_devtools_shape_is_declared(self):
        # a declared deferred edge passes; the same edge undeclared is
        # LAY002
        from repro.devtools.detlint import check_edges
        edge = self._edge("core", "devtools", deferred=True)
        layers = {"core": ["simnet"], "devtools": ["*"]}
        assert check_edges([edge], layers, {("core", "devtools")}) == []
        undeclared = check_edges([edge], layers, set())
        assert [f.code for f in undeclared] == ["LAY002"]

    def test_module_level_edge_ignores_deferred_declaration(self):
        from repro.devtools.detlint import check_edges
        edge = self._edge("core", "devtools", deferred=False)
        layers = {"core": ["simnet"], "devtools": ["*"]}
        findings = check_edges([edge], layers, {("core", "devtools")})
        assert [f.code for f in findings] == ["LAY001"]

    def test_cached_edges_equal_fresh_extraction(self, tmp_path):
        # rehydrated ImportEdges must drive check_edges to the same
        # verdicts as freshly extracted ones
        from repro.devtools.detlint import (LintCache, check_edges,
                                            config_digest, load_config)
        config = build_package(tmp_path, {
            "low/__init__.py": "VALUE = 1\n",
            "mid/__init__.py": "from ..low import VALUE\n"
                               "def bad():\n"
                               "    from pkg import high\n",
            "high/__init__.py": "from ..mid import VALUE\n",
        })
        modules = collect_modules(config)
        edges = extract_edges(modules, package="pkg")
        cache = LintCache(tmp_path, "digest")
        key = cache.key("edges", b"")
        cache.put(key, [], edges)
        rehydrated = LintCache.edges_of(cache.get(key))
        assert rehydrated == edges
        fresh = check_edges(edges, LAYERS, set())
        again = check_edges(rehydrated, LAYERS, set())
        assert fresh == again
        assert [f.code for f in fresh] == ["LAY002"]


class TestRealDeferredEdges:
    """The live tree's deferred escape hatches stay exactly as declared."""

    def test_declared_deferred_edges_cover_the_tree(self):
        from repro.devtools.detlint import (extract_edges, collect_modules,
                                            load_config)
        root = Path(__file__).resolve().parents[2]
        config = load_config(root)
        # the CLI's lazy load of the linter is the only declared hatch;
        # nothing in core reaches up into devtools
        assert config.deferred_imports == {("<root>", "devtools")}
        edges = extract_edges(collect_modules(config))
        deferred = {(e.src_layer, e.dst_layer) for e in edges if e.deferred
                    and e.src_layer != e.dst_layer}
        allowed_at_module_level = set()
        for src, targets in config.layers.items():
            for dst in targets:
                allowed_at_module_level.add((src, dst))
        escape_hatches = {pair for pair in deferred
                          if pair not in allowed_at_module_level
                          and "*" not in config.layers.get(pair[0], ())}
        assert escape_hatches <= config.deferred_imports

    def test_telemetry_never_imports_the_networks(self):
        # telemetry's kernel hook is duck-typed on purpose: the kernel
        # calls telemetry.on_event(...) without telemetry importing
        # simnet, gnutella or openft -- even deferred.  The one layer
        # telemetry may reach is resilience (the crash-safe artifact
        # store its journal/trace writers ride), which sits below it
        # and imports nothing itself.
        from repro.devtools.detlint import (extract_edges, collect_modules,
                                            load_config)
        root = Path(__file__).resolve().parents[2]
        config = load_config(root)
        modules = collect_modules(config)
        edges = extract_edges(modules)
        telemetry_out = {e.dst_layer for e in edges
                        if e.src_layer == "telemetry"
                        and e.dst_layer != "telemetry"}
        assert telemetry_out <= {"resilience"}
        resilience_out = {e.dst_layer for e in edges
                          if e.src_layer == "resilience"
                          and e.dst_layer != "resilience"}
        assert resilience_out == set()
