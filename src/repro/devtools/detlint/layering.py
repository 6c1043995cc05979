"""The layering checker (LAY001/LAY002): imports must follow the DAG.

The repo's architecture is a strict layering -- ``simnet`` at the
bottom knows nothing about the reproduction built on top of it,
``telemetry`` is a leaf observed-by-everyone package that the network
stacks never import, ``scanner`` is independent of both networks, and
``core`` orchestrates all of them.  That DAG is *declared* in
``pyproject.toml`` under ``[tool.detlint.layers]`` and this module
checks the declaration against the **real** ``import``/``from`` graph
extracted from the AST of every file under ``src/``.

Two codes:

* ``LAY001`` -- a module-level import crosses the DAG the wrong way.
  Module-level imports are the architecture: they bind at import time
  and make the packages inseparable.
* ``LAY002`` -- a function-level (deferred) import crosses the DAG and
  is not declared in ``deferred_imports``.  Deferred imports are the
  sanctioned escape hatch for opt-in dev tooling (the CLI loads the
  linter only when ``lint`` runs), but every such edge must be
  declared or it is a violation like any other.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .findings import Finding, Module

__all__ = ["ImportEdge", "extract_edges", "check_layers", "check_edges",
           "ROOT_LAYER"]

#: layer key for modules directly under the top package (cli.py, __init__.py)
ROOT_LAYER = "<root>"


@dataclass(frozen=True)
class ImportEdge:
    """One intra-project import: which layer imported which, and where."""

    src_layer: str
    dst_layer: str
    path: str
    line: int
    col: int
    deferred: bool  # inside a function body (runtime, not import time)
    statement: str  # rendered import target, for the message


def _resolve_relative(module: Module, node: ast.ImportFrom,
                      package: str) -> List[str]:
    """Absolute dotted targets of a relative ``from ... import`` statement."""
    # the containing package: for a plain module that is dotted minus the
    # module name; a package __init__ *is* its own containing package
    base = module.dotted.split(".")
    if not _is_package(module):
        base = base[:-1]
    # each level beyond 1 climbs one more package
    climb = node.level - 1
    if climb:
        base = base[:-climb] if climb < len(base) else []
    mod = node.module.split(".") if node.module else []
    target = base + mod
    if not target or target[0] != package:
        return []
    return [".".join(target)]


def _is_package(module: Module) -> bool:
    return module.path.name == "__init__.py"


def extract_edges(modules: Sequence[Module], package: str = "repro"
                  ) -> List[ImportEdge]:
    """Every intra-``package`` import edge in the given modules."""
    edges: List[ImportEdge] = []
    for module in modules:
        src_parts = module.dotted.split(".")
        if src_parts[0] != package:
            continue
        if len(src_parts) > 2 or (len(src_parts) == 2
                                  and _is_package(module)):
            src_layer = src_parts[1]
        else:  # repro/__init__.py, repro/cli.py, ...
            src_layer = ROOT_LAYER
        for node, deferred in _walk_imports(module.tree):
            targets: List[str] = []
            if isinstance(node, ast.Import):
                targets = [a.name for a in node.names
                           if a.name.split(".")[0] == package]
            elif isinstance(node, ast.ImportFrom):
                if node.level > 0:
                    targets = _resolve_relative(module, node, package)
                elif node.module and node.module.split(".")[0] == package:
                    targets = [node.module]
            for target in targets:
                dst_parts = target.split(".")
                dst_layer = dst_parts[1] if len(dst_parts) > 1 else ROOT_LAYER
                edges.append(ImportEdge(
                    src_layer=src_layer, dst_layer=dst_layer,
                    path=module.relpath, line=node.lineno,
                    col=node.col_offset, deferred=deferred,
                    statement=target))
    return edges


def _walk_imports(tree: ast.Module
                  ) -> Iterator[Tuple[ast.stmt, bool]]:
    """(import node, is-deferred) for every import in the tree."""
    stack: List[Tuple[ast.AST, bool]] = [(tree, False)]
    while stack:
        node, deferred = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, deferred
            continue
        inside = deferred or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            stack.append((child, inside))


def check_layers(modules: Sequence[Module],
                 layers: Dict[str, Sequence[str]],
                 deferred_allowed: Set[Tuple[str, str]],
                 package: str = "repro") -> List[Finding]:
    """Check the real import graph against the declared DAG.

    ``layers`` maps a layer name (top-level subpackage, or ``<root>``)
    to the layers it may import at module level; the value ``"*"``
    allows everything.  ``deferred_allowed`` is a set of
    ``(src, dst)`` pairs additionally permitted inside functions.
    """
    return check_edges(extract_edges(modules, package=package), layers,
                       deferred_allowed)


def check_edges(edges: Sequence[ImportEdge],
                layers: Dict[str, Sequence[str]],
                deferred_allowed: Set[Tuple[str, str]]) -> List[Finding]:
    """The DAG check over already-extracted edges (cache-friendly)."""
    findings: List[Finding] = []
    for edge in edges:
        if edge.src_layer == edge.dst_layer:
            continue
        declared = layers.get(edge.src_layer)
        if declared is None:
            findings.append(Finding(
                edge.path, edge.line, edge.col, "LAY001",
                f"layer {edge.src_layer!r} is not declared in "
                "[tool.detlint.layers]",
                "add it to pyproject.toml with its allowed imports"))
            continue
        allowed = "*" in declared or edge.dst_layer in declared
        if allowed:
            continue
        if edge.deferred:
            if (edge.src_layer, edge.dst_layer) in deferred_allowed:
                continue
            findings.append(Finding(
                edge.path, edge.line, edge.col, "LAY002",
                f"deferred import of {edge.statement!r} crosses the layer "
                f"DAG ({edge.src_layer} -> {edge.dst_layer}) and is not a "
                "declared deferred edge",
                "declare it in [tool.detlint] deferred_imports or move the "
                "dependency down the stack"))
        else:
            findings.append(Finding(
                edge.path, edge.line, edge.col, "LAY001",
                f"import of {edge.statement!r} violates the layer DAG "
                f"({edge.src_layer} -> {edge.dst_layer} not allowed)",
                f"only {sorted(declared)} may be imported from "
                f"{edge.src_layer}; restructure or move the code"))
    return findings
