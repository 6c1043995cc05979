"""Twin registry + drift checker (TWN001).

Some code comes in pairs that must stay in step, such as
``patch_ttl_hops`` vs the full ``frame`` encoder.  Runtime checks (the
golden campaign fixtures, ``selfcheck``) are a *late* signal -- you
learn about drift from a digest mismatch three layers away.  This pass makes the pairing
a declared, versioned contract: ``pyproject.toml`` carries a
``[tool.detlint.twins]`` table naming every pair and the *mirror
obligations* both sides must keep satisfying, and the checker projects
each side's normalized AST onto those obligations and fails TWN001 the
moment one side changes without the other.

Obligations (each projects a function/class body to a set of strings):

``counters``
    attribute paths incremented with ``+=`` (``self.`` stripped) --
    e.g. both sides must bump ``stats.decode_errors``.
``handlers``
    dispatch targets: calls whose terminal name starts with
    ``_handle``, normalized by stripping twin suffixes (``_raw``,
    ``_reference``, ...); a ``getattr(self, f"_handle_{...}")``
    dynamic dispatch projects to the wildcard ``_handle_*``, which
    covers any named handler on the other side.
``guards``
    exception types caught (``except MessageError:`` on both sides).
``raises``
    exception types raised (a new refusal on one side must appear on
    the other).
``sinks``
    calls into the fixed effect vocabulary (scheduling, callback
    delivery, telemetry hooks, sends) -- both sides must deliver
    through exactly the same calls.
``api``
    public method names of a class pair (both sides expose the same
    surface).

Members are written ``"pkg.module:Qual.name"``; a member that cannot
be resolved is itself a TWN001 (a renamed twin must rename its
registry entry in the same commit).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .findings import Finding, Module

__all__ = ["TwinPair", "TwinMember", "parse_twins", "check_twins",
           "OBLIGATIONS"]

#: twin-implementation suffixes stripped before comparing names
_TWIN_SUFFIXES = ("_raw", "_reference", "_windowed", "_fast", "_slow")

#: the effect vocabulary the ``sinks`` obligation projects onto
_SINK_VOCAB = frozenset({
    "push", "cancel", "at", "after", "every", "schedule",
    "callback", "observe_callback", "on_event", "send", "send_many",
})

#: handler-dispatch wildcard produced by getattr(self, f"_handle_...")
_WILDCARD = "_handle_*"

OBLIGATIONS = ("counters", "handlers", "guards", "raises", "sinks", "api")


@dataclass(frozen=True)
class TwinMember:
    """One side of a pair: ``pkg.module:Qual.name``."""

    module: str
    qualname: str

    @classmethod
    def parse(cls, spec: str) -> "TwinMember":
        module, sep, qualname = spec.partition(":")
        if not sep or not module or not qualname:
            raise ValueError(
                f"twin member {spec!r} is not 'pkg.module:Qual.name'")
        return cls(module=module, qualname=qualname)

    def __str__(self) -> str:
        return f"{self.module}:{self.qualname}"


@dataclass(frozen=True)
class TwinPair:
    """A named fast/reference pair and its declared obligations."""

    name: str
    members: Tuple[TwinMember, ...]
    obligations: Tuple[str, ...]


def parse_twins(table: Dict) -> List[TwinPair]:
    """``[tool.detlint.twins.<name>]`` tables -> pair list (sorted)."""
    pairs: List[TwinPair] = []
    for name in sorted(table):
        entry = table[name]
        members = tuple(TwinMember.parse(spec)
                        for spec in entry.get("members", ()))
        if len(members) < 2:
            raise ValueError(
                f"twin pair {name!r} needs at least two members")
        obligations = tuple(entry.get("obligations", ()))
        unknown = [o for o in obligations if o not in OBLIGATIONS]
        if unknown:
            raise ValueError(
                f"twin pair {name!r} has unknown obligations {unknown}; "
                f"known: {OBLIGATIONS}")
        if not obligations:
            raise ValueError(f"twin pair {name!r} declares no obligations")
        pairs.append(TwinPair(name=name, members=members,
                              obligations=obligations))
    return pairs


# -- AST resolution -------------------------------------------------------


def _resolve(module: Module, qualname: str) -> Optional[ast.AST]:
    """Find a top-level function/class or ``Class.method`` node."""
    parts = qualname.split(".")
    body: Sequence[ast.stmt] = module.tree.body if module.tree else ()
    node: Optional[ast.AST] = None
    for part in parts:
        node = None
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and item.name == part:
                node = item
                break
        if node is None:
            return None
        body = node.body if isinstance(node, ast.ClassDef) else ()
    return node


def _strip_suffix(name: str) -> str:
    for suffix in _TWIN_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return name[:-len(suffix)]
    return name


def _terminal(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _attr_path(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        path = ".".join(reversed(parts))
        if path.startswith("self."):
            path = path[len("self."):]
        return path
    return None


def _exc_names(node: Optional[ast.AST]) -> Iterator[str]:
    if node is None:
        yield "<bare>"
        return
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _exc_names(elt)
        return
    if isinstance(node, ast.Call):
        node = node.func
    name = _terminal(node)
    if name:
        yield name


# -- projections ----------------------------------------------------------


def _project(node: ast.AST, obligation: str) -> FrozenSet[str]:
    if obligation == "api":
        return _project_api(node)
    out: set = set()
    for sub in ast.walk(node):
        if obligation == "counters" and isinstance(sub, ast.AugAssign):
            path = _attr_path(sub.target)
            if path:
                out.add(path)
        elif obligation == "handlers" and isinstance(sub, ast.Call):
            if _is_wildcard_dispatch(sub):
                out.add(_WILDCARD)
                continue
            name = _terminal(sub.func)
            if name and name.startswith("_handle"):
                out.add(_strip_suffix(name))
        elif obligation == "guards" and isinstance(sub, ast.ExceptHandler):
            out.update(_exc_names(sub.type))
        elif obligation == "raises" and isinstance(sub, ast.Raise):
            out.update(_exc_names(sub.exc))
        elif obligation == "sinks" and isinstance(sub, ast.Call):
            name = _terminal(sub.func)
            if name in _SINK_VOCAB:
                out.add(name)
    return frozenset(out)


def _is_wildcard_dispatch(node: ast.Call) -> bool:
    """``getattr(obj, f"_handle_{...}")`` -- dynamic dispatch by name."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "getattr"
            and len(node.args) >= 2):
        return False
    spec = node.args[1]
    if isinstance(spec, ast.JoinedStr) and spec.values:
        head = spec.values[0]
        return isinstance(head, ast.Constant) and \
            isinstance(head.value, str) and head.value.startswith("_handle")
    return False


def _project_api(node: ast.AST) -> FrozenSet[str]:
    if isinstance(node, ast.ClassDef):
        return frozenset(
            item.name for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_"))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return frozenset({_strip_suffix(node.name)})
    return frozenset()


def _handlers_match(sides: Sequence[FrozenSet[str]]) -> bool:
    """Named handlers must match up to wildcard subsumption."""
    wildcards = [_WILDCARD in side for side in sides]
    if len(set(wildcards)) > 1:
        return False
    named = [side - {_WILDCARD} for side in sides]
    if all(wildcards):
        return True  # every named handler is covered by the other side
    return len(set(named)) == 1


# -- the check ------------------------------------------------------------


def check_twins(modules: Sequence[Module], pairs: Sequence[TwinPair],
                config_relpath: str = "pyproject.toml") -> List[Finding]:
    """TWN001 findings for every drifted or unresolvable pair."""
    by_dotted = {module.dotted: module for module in modules}
    findings: List[Finding] = []
    for pair in pairs:
        resolved: List[Tuple[TwinMember, Module, ast.AST]] = []
        missing = False
        for member in pair.members:
            module = by_dotted.get(member.module)
            node = _resolve(module, member.qualname) if module else None
            if module is None or node is None:
                findings.append(Finding(
                    config_relpath, 1, 0, "TWN001",
                    f"twin pair {pair.name!r}: member {member} not found "
                    "-- a renamed twin must update the registry in the "
                    "same commit",
                    "fix the [tool.detlint.twins] entry in pyproject.toml"))
                missing = True
                continue
            resolved.append((member, module, node))
        if missing or len(resolved) < 2:
            continue
        for obligation in pair.obligations:
            projections = [_project(node, obligation)
                           for _, _, node in resolved]
            if obligation == "handlers":
                if _handlers_match(projections):
                    continue
            elif len(set(projections)) == 1:
                continue
            findings.extend(_drift_findings(pair, obligation, resolved,
                                            projections))
    return sorted(findings)


def _drift_findings(pair: TwinPair, obligation: str,
                    resolved: Sequence[Tuple[TwinMember, Module, ast.AST]],
                    projections: Sequence[FrozenSet[str]]) -> List[Finding]:
    baseline = projections[0]
    base_member = resolved[0][0]
    findings: List[Finding] = []
    for (member, module, node), projection in \
            zip(resolved[1:], projections[1:]):
        if projection == baseline and obligation != "handlers":
            continue
        only_here = sorted(projection - baseline)
        only_base = sorted(baseline - projection)
        detail = []
        if only_here:
            detail.append(f"only in {member.qualname}: {only_here}")
        if only_base:
            detail.append(f"only in {base_member.qualname}: {only_base}")
        findings.append(Finding(
            module.relpath, node.lineno, node.col_offset, "TWN001",
            f"twin pair {pair.name!r} drifted on obligation "
            f"{obligation!r}: {'; '.join(detail) or 'projection mismatch'}",
            "change both twins together (or update the registry if the "
            "contract itself changed)"))
    return findings
