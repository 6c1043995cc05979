"""Concurrency / shared-state lint (CONC001-CONC003).

The observability plane (PR 7) put real threads next to the
simulation: a ``ThreadingHTTPServer`` scrapes live telemetry while the
kernel mutates it.  That coexistence is safe only under a discipline
-- every datum both sides touch goes through one lock, locks never
nest in conflicting orders, and nothing scheduled *inside* the kernel
ever blocks on wall-clock time.  This pass checks the discipline
statically, per module:

``CONC001`` unsynchronized cross-thread mutation
    Thread entries are HTTP handler methods (``do_*`` on a
    ``BaseHTTPRequestHandler`` subclass), ``run`` on a ``Thread``
    subclass, and anything passed to ``threading.Thread(target=...)``
    or an executor ``.submit``.  Methods reachable from an entry (by
    call-name closure within the module) form the *thread side*;
    everything else is the mainline.  An attribute written outside
    ``__init__`` on one side and accessed on the other with no common
    lock in the enclosing ``with`` chains is flagged.  A class that
    *starts* threads while handing itself out (``TelemetryServer``)
    gets the stricter rule: any two of its methods may run on
    different threads, so cross-method unlocked mutation is flagged
    even without an in-module entry path.

``CONC002`` lock-order inversion
    Every ``with <lock>`` nested inside another contributes an edge to
    the static acquisition graph; a cycle means two call paths can
    deadlock.  The runtime twin of this check is
    ``repro.devtools.lockorder.LockOrderRecorder``.

``CONC003`` blocking call inside a kernel callback
    Functions scheduled via ``.at/.after/.every/.push/.schedule`` run
    inside the simulator's drain loop; ``time.sleep``, an argument-less
    ``.join()`` / ``.wait()``, or a ``.recv()``/``.accept()`` there
    stalls virtual time on wall time (and under ``serve`` can deadlock
    against the scrape thread).

Lock recognition is conservative: an attribute assigned
``threading.Lock()`` / ``RLock()`` / ``Condition()`` anywhere in the
class, or whose name contains ``lock``/``mutex``/``cond``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Module
from .rules import _import_map, _resolves

__all__ = ["ConcurrencyRule", "check_concurrency"]

#: scheduling methods whose callable arguments become kernel callbacks
_SCHED_SINKS = frozenset({"at", "after", "every", "push", "schedule"})

#: attribute mutators: self.X.append(...) counts as a write to X
_MUTATORS = frozenset({"append", "add", "update", "extend", "insert",
                       "pop", "popitem", "clear", "remove", "discard",
                       "setdefault", "appendleft"})

#: factory terminals that make an attribute a lock
_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore"})

_LOCKISH_NAME_PARTS = ("lock", "mutex", "cond")


def _terminal(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _base_names(node: ast.ClassDef) -> List[str]:
    names = []
    for base in node.bases:
        name = _terminal(base)
        if name:
            names.append(name)
    return names


@dataclass
class _Access:
    attr: str
    write: bool
    method: str
    line: int
    col: int
    locks: FrozenSet[str]


@dataclass
class _ClassInfo:
    name: str
    node: ast.ClassDef
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)
    accesses: List[_Access] = field(default_factory=list)
    starts_threads: bool = False


class _ModuleIndex:
    """Everything the three checks need, collected in one walk."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self.names = _import_map(module)
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        #: qualname -> terminal names it calls
        self.calls: Dict[str, Set[str]] = {}
        #: entry qualnames / bare target names seeding thread reachability
        self.entry_names: Set[str] = set()
        #: names of functions handed to the scheduler (kernel callbacks)
        self.callback_names: Set[str] = set()
        #: lambdas handed to the scheduler, analysed in place
        self.callback_lambdas: List[Tuple[str, ast.Lambda]] = []
        self._collect()

    # -- collection -------------------------------------------------------

    def _collect(self) -> None:
        tree = self.module.tree
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = node
                self.calls[node.name] = self._called_names(node)
                self._collect_nested(node)
            elif isinstance(node, ast.ClassDef):
                info = _ClassInfo(name=node.name, node=node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info.methods[item.name] = item
                        self.calls[f"{node.name}.{item.name}"] = \
                            self._called_names(item)
                        self._collect_nested(item)
                self._find_lock_attrs(info)
                self.classes[node.name] = info
                self._mark_entries_from_bases(info)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                self._scan_thread_creation(node)
                self._scan_scheduler_args(node)
        for info in self.classes.values():
            for method_name, method in info.methods.items():
                self._collect_accesses(info, method_name, method)

    def _collect_nested(self, scope: ast.AST) -> None:
        # closures handed to Thread(target=...) or the scheduler are the
        # common idiom; register them by bare name so reachability and
        # scope scans see them (first definition wins on a collision)
        for node in ast.walk(scope):
            if node is scope:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name not in self.functions:
                self.functions[node.name] = node
                self.calls.setdefault(node.name, self._called_names(node))

    def _called_names(self, scope: ast.AST) -> Set[str]:
        called: Set[str] = set()
        for node in ast.walk(scope):
            if isinstance(node, ast.Call):
                name = _terminal(node.func)
                if name:
                    called.add(name)
        return called

    def _find_lock_attrs(self, info: _ClassInfo) -> None:
        for method in info.methods.values():
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                if not (isinstance(node.value, ast.Call) and
                        _terminal(node.value.func) in _LOCK_FACTORIES):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        info.lock_attrs.add(target.attr)

    def _mark_entries_from_bases(self, info: _ClassInfo) -> None:
        bases = _base_names(info.node)
        if any("HTTPRequestHandler" in base or "ThreadingMixIn" in base
               for base in bases):
            for name in info.methods:
                if name.startswith("do_") or name == "handle":
                    self.entry_names.add(f"{info.name}.{name}")
        if any(base == "Thread" for base in bases) and "run" in info.methods:
            self.entry_names.add(f"{info.name}.run")

    def _scan_thread_creation(self, node: ast.Call) -> None:
        name = _terminal(node.func)
        is_thread = (name == "Thread" and (
            isinstance(node.func, ast.Name) or
            _resolves(self.names, node.func.value, "threading")
            if isinstance(node.func, ast.Attribute) else True))
        is_submit = isinstance(node.func, ast.Attribute) and name == "submit"
        if not (is_thread or is_submit):
            return
        targets: List[ast.AST] = []
        if is_thread:
            targets = [kw.value for kw in node.keywords
                       if kw.arg == "target"]
        elif node.args:
            targets = [node.args[0]]
        for target in targets:
            self._note_entry_target(target)
        if is_thread:
            owner = self._enclosing_class(node)
            if owner is not None:
                owner.starts_threads = True

    def _note_entry_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.entry_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and \
                    target.value.id == "self":
                owner = self._enclosing_class(target)
                if owner is not None:
                    self.entry_names.add(f"{owner.name}.{target.attr}")
                    return
            self.entry_names.add(target.attr)

    def _enclosing_class(self, node: ast.AST) -> Optional[_ClassInfo]:
        for info in self.classes.values():
            for method in info.methods.values():
                for sub in ast.walk(method):
                    if sub is node:
                        return info
        return None

    def _scan_scheduler_args(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute) and
                node.func.attr in _SCHED_SINKS):
            return
        candidates = list(node.args) + [kw.value for kw in node.keywords
                                        if kw.arg in ("callback", "target")]
        for arg in candidates:
            if isinstance(arg, ast.Name) and (
                    arg.id in self.functions or
                    any(arg.id in info.methods
                        for info in self.classes.values())):
                self.callback_names.add(arg.id)
            elif isinstance(arg, ast.Attribute) and \
                    isinstance(arg.value, ast.Name) and \
                    arg.value.id == "self":
                self.callback_names.add(arg.attr)
            elif isinstance(arg, ast.Lambda):
                self.callback_lambdas.append(
                    (f".{node.func.attr}() at line {node.lineno}", arg))

    # -- per-method attribute accesses under the lock stack ---------------

    def _collect_accesses(self, info: _ClassInfo, method_name: str,
                          method: ast.FunctionDef) -> None:
        locks: List[str] = []

        def lock_of(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Attribute) and \
                    isinstance(expr.value, ast.Name) and \
                    expr.value.id == "self":
                attr = expr.attr
                if attr in info.lock_attrs or any(
                        part in attr.lower()
                        for part in _LOCKISH_NAME_PARTS):
                    return f"{info.name}.{attr}"
            if isinstance(expr, ast.Name) and any(
                    part in expr.id.lower()
                    for part in _LOCKISH_NAME_PARTS):
                return expr.id
            return None

        def note(attr: str, write: bool, node: ast.AST) -> None:
            if attr in info.lock_attrs:
                return
            if attr in info.methods:
                return  # self._helper() is a call, not shared data
            info.accesses.append(_Access(
                attr=attr, write=write, method=method_name,
                line=node.lineno, col=node.col_offset,
                locks=frozenset(locks)))

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                return
            if isinstance(node, ast.With):
                acquired = []
                for item in node.items:
                    name = lock_of(item.context_expr)
                    if name:
                        locks.append(name)
                        acquired.append(name)
                for item in node.items:
                    visit(item.context_expr)
                for stmt in node.body:
                    visit(stmt)
                for name in acquired:
                    locks.remove(name)
                return
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "self":
                note(node.attr, isinstance(node.ctx, (ast.Store, ast.Del)),
                     node)
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATORS:
                receiver = node.func.value
                if isinstance(receiver, ast.Attribute) and \
                        isinstance(receiver.value, ast.Name) and \
                        receiver.value.id == "self":
                    note(receiver.attr, True, node)
            if isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)) and \
                    isinstance(node.value, ast.Attribute) and \
                    isinstance(node.value.value, ast.Name) and \
                    node.value.value.id == "self":
                note(node.value.attr, True, node)
            for child in ast.iter_child_nodes(node):
                visit(child)

        for stmt in method.body:
            visit(stmt)

    # -- reachability ------------------------------------------------------

    def thread_reachable(self) -> Set[str]:
        """Qualnames of functions/methods reachable from thread entries."""
        reachable_names: Set[str] = set()
        for entry in self.entry_names:
            reachable_names.add(entry.rsplit(".", 1)[-1])
        qualnames = set(self.calls)
        reached: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for qualname in qualnames - reached:
                bare = qualname.rsplit(".", 1)[-1]
                if bare in reachable_names or qualname in self.entry_names:
                    reached.add(qualname)
                    reachable_names |= self.calls[qualname]
                    changed = True
        return reached

    def callback_reachable(self) -> Set[str]:
        """Qualnames reachable from kernel-callback entry points.

        A lambda handed to the scheduler reaches whatever it calls.
        """
        reachable_names = set(self.callback_names)
        for _, callback in self.callback_lambdas:
            reachable_names |= self._called_names(callback)
        reached: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for qualname in set(self.calls) - reached:
                bare = qualname.rsplit(".", 1)[-1]
                if bare in reachable_names:
                    reached.add(qualname)
                    reachable_names |= self.calls[qualname]
                    changed = True
        return reached


# -- CONC001 --------------------------------------------------------------


def _conc001(index: _ModuleIndex) -> Iterator[Finding]:
    module = index.module
    reached = index.thread_reachable()
    for class_name in sorted(index.classes):
        info = index.classes[class_name]
        any_thread_side = any(f"{class_name}.{m}" in reached
                              for m in info.methods)
        if not (any_thread_side or info.starts_threads):
            continue
        by_attr: Dict[str, List[_Access]] = {}
        for access in info.accesses:
            by_attr.setdefault(access.attr, []).append(access)
        for attr in sorted(by_attr):
            accesses = by_attr[attr]
            writes = [a for a in accesses
                      if a.write and a.method != "__init__"]
            if not writes:
                continue
            reported = False
            for write in writes:
                if reported:
                    break
                write_thread = f"{class_name}.{write.method}" in reached
                for other in accesses:
                    if other.method == "__init__" or \
                            other.method == write.method:
                        continue
                    other_thread = f"{class_name}.{other.method}" in reached
                    cross = (write_thread != other_thread) or (
                        info.starts_threads)
                    if not cross:
                        continue
                    if write.locks & other.locks:
                        continue
                    why = ("the class starts threads and hands itself out"
                           if info.starts_threads and
                           write_thread == other_thread
                           else "one side runs on the scrape/worker thread")
                    yield Finding(
                        module.relpath, write.line, write.col, "CONC001",
                        f"unsynchronized cross-thread mutation: "
                        f"{class_name}.{attr} is written in "
                        f".{write.method}() and accessed in "
                        f".{other.method}() (line {other.line}) with no "
                        f"common lock; {why}",
                        "guard both sides with one lock (with self._lock:)")
                    reported = True
                    break


# -- CONC002 --------------------------------------------------------------


def _conc002(index: _ModuleIndex) -> Iterator[Finding]:
    edges: Dict[Tuple[str, str], Tuple[int, int]] = {}

    for qualname, scope in _all_scopes(index):
        info = _class_for(index, qualname)
        stack: List[str] = []

        def lock_of(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Attribute) and \
                    isinstance(expr.value, ast.Name) and \
                    expr.value.id == "self" and info is not None:
                attr = expr.attr
                if attr in info.lock_attrs or any(
                        part in attr.lower()
                        for part in _LOCKISH_NAME_PARTS):
                    return f"{info.name}.{attr}"
            if isinstance(expr, ast.Name) and any(
                    part in expr.id.lower()
                    for part in _LOCKISH_NAME_PARTS):
                return expr.id
            return None

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)) and node is not scope:
                return
            if isinstance(node, ast.With):
                acquired = []
                for item in node.items:
                    name = lock_of(item.context_expr)
                    if name:
                        for held in stack:
                            if held != name:
                                edges.setdefault(
                                    (held, name),
                                    (node.lineno, node.col_offset))
                        stack.append(name)
                        acquired.append(name)
                for stmt in node.body:
                    visit(stmt)
                for name in acquired:
                    stack.remove(name)
                return
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(scope)

    reported: Set[FrozenSet[str]] = set()
    for (first, second) in sorted(edges):
        if (second, first) in edges and \
                frozenset((first, second)) not in reported:
            reported.add(frozenset((first, second)))
            line, col = edges[(first, second)]
            other_line, _ = edges[(second, first)]
            yield Finding(
                index.module.relpath, line, col, "CONC002",
                f"lock-order inversion: {first} is acquired before "
                f"{second} here but after it at line {other_line} -- two "
                "threads taking the two paths deadlock",
                "pick one global acquisition order and stick to it")


# -- CONC003 --------------------------------------------------------------


def _conc003(index: _ModuleIndex) -> Iterator[Finding]:
    reached = index.callback_reachable()
    scopes: List[Tuple[str, ast.AST]] = [
        (qualname, scope) for qualname, scope in _all_scopes(index)
        if qualname in reached]
    scopes.extend(index.callback_lambdas)
    for qualname, scope in scopes:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            blocking = _blocking_call(index, node)
            if blocking:
                yield Finding(
                    index.module.relpath, node.lineno, node.col_offset,
                    "CONC003",
                    f"blocking call {blocking} inside kernel callback "
                    f"{qualname}: stalls virtual time on wall time "
                    "(and can deadlock against the scrape thread)",
                    "kernel callbacks must return immediately; model "
                    "delays with sim.after()")


def _blocking_call(index: _ModuleIndex, node: ast.Call) -> Optional[str]:
    func = node.func
    name = _terminal(func)
    if name == "sleep":
        if isinstance(func, ast.Attribute) and \
                _resolves(index.names, func.value, "time"):
            return "time.sleep()"
        if isinstance(func, ast.Name) and \
                index.names.get(name, "") == "time.sleep":
            return "time.sleep()"
        return None
    if name in ("join", "wait") and isinstance(func, ast.Attribute) and \
            not node.args and not node.keywords:
        return f".{name}() without a timeout"
    if name in ("recv", "accept") and isinstance(func, ast.Attribute):
        timeouts = [kw for kw in node.keywords if kw.arg == "timeout"]
        if not timeouts:
            return f".{name}()"
    return None


# -- plumbing -------------------------------------------------------------


def _all_scopes(index: _ModuleIndex) -> Iterator[Tuple[str, ast.AST]]:
    for name in sorted(index.functions):
        yield name, index.functions[name]
    for class_name in sorted(index.classes):
        info = index.classes[class_name]
        for method_name in sorted(info.methods):
            yield f"{class_name}.{method_name}", info.methods[method_name]


def _class_for(index: _ModuleIndex, qualname: str) -> Optional[_ClassInfo]:
    if "." in qualname:
        return index.classes.get(qualname.split(".", 1)[0])
    return None


def check_concurrency(module: Module) -> List[Finding]:
    """Run all three concurrency checks over one module."""
    if module.tree is None:
        return []
    index = _ModuleIndex(module)
    findings: List[Finding] = []
    findings.extend(_conc001(index))
    findings.extend(_conc002(index))
    findings.extend(_conc003(index))
    return sorted(findings)


class ConcurrencyRule:
    """Rule adapter so the engine runs this pass like any other rule."""

    code = "CONC001"
    name = "concurrency"

    def check(self, module: Module) -> Iterator[Finding]:
        yield from check_concurrency(module)
