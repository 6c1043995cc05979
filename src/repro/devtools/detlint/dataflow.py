"""Dataflow taint pass (DET007/DET008).

The syntactic rules catch ``time.time()`` *at the call site*; this pass
catches the value after it has been laundered through a variable::

    jitter = time.time() % 1.0          # DET002 fires here already, but
    sim.after(base + jitter, cb)        # DET007 fires HERE -- the leak
                                        # actually reaches the scheduler

It is a forward, intra-procedural taint propagation over each function
body (module-level code and every nested function are scopes of their
own), plus a one-level call-graph summary pass so taint crosses helper
functions defined in the same module:

* **sources** -- every entropy read the syntactic rules know about
  (bare ``random.*``, wall-clock, ``os.urandom``/``os.getenv``/
  ``uuid4``/``secrets``), plus *iteration order* of ``set``/
  ``frozenset`` values (taint kind ``order`` instead of ``entropy``).
* **propagation** -- assignments, augmented assignment, tuple
  unpacking, arithmetic, f-strings, conditional expressions, container
  literals, attribute stores on ``self``, and mutating calls
  (``.append(tainted)`` taints the receiver).  A list comprehension or
  generator over a set carries the set's order.  After an ``if`` a
  name carries the taint of either branch, so a reassignment on one
  path does not clear it.  ``sorted()`` / ``min`` /
  ``max`` / ``len`` cleanse *order* taint (the result no longer depends
  on hash order); nothing cleanses entropy.
* **summaries** -- pass one computes, for every function and method in
  the module, whether it ``taints_return`` (returns a tainted value)
  and which ``sink_params`` it forwards into a sink.  Pass two replays
  the analysis with those summaries visible, so
  ``sim.after(jitter(), cb)`` and ``sched_helper(time.time())`` both
  fire at the call site.
* **sinks** -- scheduling calls (``.at/.after/.every/.push/
  .schedule``), transport sends (``.send/.send_many``), RNG seeding
  (``seed``/``derive_seed``/``Random(x)``), RNG draw arguments, and
  message-field constructors (a capitalized callable that is not an
  exception type).

Findings fire *only* when taint reaches a sink **through a variable**
(``direct`` entropy-at-sink expressions stay the territory of
DET001/002/006, and the lexical loop-body case stays DET003's), which
is what keeps this pass's false-positive rate near zero.  The one
direct case reported is a set converted inline in a sink's arguments
(``send_many(src, list(peers), ...)``): no syntactic rule sees it.

====== ==================================================================
code   hazard
====== ==================================================================
DET007 laundered entropy reaches a scheduling / seeding / message sink
DET008 unordered iteration order reaches a sink
====== ==================================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding, Module
from .rules import (_DATETIME_FUNCS, _RANDOM_FUNCS, _RNG_METHODS,
                    _SCHED_METHODS, _SEND_METHODS, _TIME_FUNCS, _import_map,
                    _is_set_expr, _resolves)

__all__ = ["DataflowRule", "check_dataflow"]

#: calls whose result no longer depends on iteration order
_ORDER_CLEANSERS = frozenset({"sorted", "min", "max", "sum", "len", "any",
                              "all", "frozenset"})

#: mutating container methods: a tainted argument taints the receiver
_MUTATORS = frozenset({"append", "add", "update", "extend", "insert",
                       "appendleft", "setdefault"})

#: callables that seed randomness
_SEED_FUNCS = frozenset({"seed", "derive_seed"})

#: exception-ish suffixes excluded from the message-constructor sink
_EXC_SUFFIXES = ("Error", "Exception", "Warning")


@dataclass(frozen=True)
class Taint:
    """One tainted value: what kind, where it came from, how it moved."""

    kind: str          # "entropy" | "order" | "param"
    origin: str        # human description of the source
    line: int          # source line
    direct: bool = True    # still the literal source expression?
    param: str = ""        # parameter name when kind == "param"
    span: Tuple[int, int] = (0, 0)  # originating For-loop line span (order)


@dataclass
class _Summary:
    """One-level call summary for a module-local function."""

    params: Tuple[str, ...]
    taints_return: Optional[Taint] = None
    sink_params: Dict[str, str] = None  # param name -> sink description

    def __post_init__(self) -> None:
        if self.sink_params is None:
            self.sink_params = {}


def _terminal_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _ScopeAnalysis:
    """Forward taint over one function body (or the module body)."""

    def __init__(self, module: Module, names: Dict[str, str],
                 summaries: Dict[str, _Summary],
                 class_of: Optional[str] = None,
                 params: Sequence[str] = (),
                 seed_params: bool = False) -> None:
        self.module = module
        self.names = names
        self.summaries = summaries
        self.class_of = class_of
        self.env: Dict[str, Taint] = {}
        self.findings: List[Finding] = []
        self.summary = _Summary(params=tuple(params))
        self.set_names: Set[str] = set()
        if seed_params:
            for param in params:
                if param in ("self", "cls"):
                    continue
                self.env[param] = Taint("param", f"parameter {param!r}", 0,
                                        direct=False, param=param)

    # -- source detection -------------------------------------------------

    def _entropy_source(self, node: ast.Call) -> Optional[str]:
        func = node.func
        name = _terminal_name(func)
        if name is None:
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if name in _RANDOM_FUNCS and isinstance(base, ast.Name) and \
                    self.names.get(base.id, base.id) == "random":
                return f"random.{name}()"
            if name in _TIME_FUNCS and _resolves(self.names, base, "time"):
                return f"time.{name}()"
            if name in _DATETIME_FUNCS and (
                    _resolves(self.names, base, "datetime.datetime") or
                    _resolves(self.names, base, "datetime.date")):
                return f"datetime.{name}()"
            if name == "urandom" and _resolves(self.names, base, "os"):
                return "os.urandom()"
            if name == "getenv" and _resolves(self.names, base, "os"):
                return "os.getenv()"
            if name == "get" and _resolves(self.names, base, "os.environ"):
                return "os.environ.get()"
            if name in ("uuid1", "uuid4") and \
                    _resolves(self.names, base, "uuid"):
                return f"uuid.{name}()"
            if _resolves(self.names, base, "secrets"):
                return f"secrets.{name}()"
        else:
            origin = self.names.get(name, "")
            if origin.startswith("random.") and \
                    origin.split(".", 1)[1] in _RANDOM_FUNCS:
                return f"{origin}()"
            if origin.startswith("time.") and \
                    origin.split(".", 1)[1] in _TIME_FUNCS:
                return f"{origin}()"
            if origin in ("os.urandom", "os.getenv", "uuid.uuid1",
                          "uuid.uuid4") or origin.startswith("secrets."):
                return f"{origin}()"
        return None

    # -- expression taint -------------------------------------------------

    def _eval(self, node: ast.AST) -> Optional[Taint]:
        if isinstance(node, ast.Name):
            taint = self.env.get(node.id)
            return replace(taint, direct=False) if taint else None
        if isinstance(node, ast.Attribute):
            chain = _dotted_store_path(node)
            if chain is not None and chain in self.env:
                return replace(self.env[chain], direct=False)
            return self._eval(node.value)
        if isinstance(node, (ast.BinOp,)):
            return self._eval(node.left) or self._eval(node.right)
        if isinstance(node, ast.BoolOp):
            return self._first_taint(node.values)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.Compare):
            return self._eval(node.left) or \
                self._first_taint(node.comparators)
        if isinstance(node, ast.IfExp):
            return self._eval(node.body) or self._eval(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return self._first_taint(node.elts)
        if isinstance(node, ast.Dict):
            return self._first_taint([k for k in node.keys if k] +
                                     list(node.values))
        if isinstance(node, ast.Subscript):
            if _resolves(self.names, node.value, "os.environ"):
                return Taint("entropy", "os.environ[...]", node.lineno)
            return self._eval(node.value)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.JoinedStr):
            return self._first_taint(node.values)
        if isinstance(node, ast.FormattedValue):
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)) and any(
                _is_unordered_iterable(gen.iter, self.set_names)
                for gen in node.generators):
            return Taint("order", "comprehension over an unordered set",
                         node.lineno)
        return None

    def _first_taint(self, nodes: Sequence[ast.AST]) -> Optional[Taint]:
        for node in nodes:
            taint = self._eval(node)
            if taint:
                return taint
        return None

    def _eval_call(self, node: ast.Call) -> Optional[Taint]:
        source = self._entropy_source(node)
        if source:
            return Taint("entropy", source, node.lineno)
        name = _terminal_name(node.func)
        arg_taint = self._first_taint(list(node.args) +
                                      [kw.value for kw in node.keywords])
        # sorted()/min()/max()/len() kill order taint; entropy survives
        if isinstance(node.func, ast.Name) and name in _ORDER_CLEANSERS:
            if arg_taint and arg_taint.kind == "order":
                return None
            return arg_taint
        # set.pop() / list(<set>) freeze an arbitrary hash order
        if isinstance(node.func, ast.Attribute) and name == "pop" and \
                not node.args and \
                _is_set_expr(node.func.value, self.set_names):
            return Taint("order", "set.pop()", node.lineno)
        if isinstance(node.func, ast.Name) and name in ("list", "tuple") \
                and node.args and \
                _is_set_expr(node.args[0], self.set_names):
            return Taint("order", f"{name}(<set>)", node.lineno)
        # module-local helper with a tainted return
        summary = self._callee_summary(node)
        if summary is not None and summary.taints_return is not None:
            via = summary.taints_return
            return Taint(via.kind, f"{via.origin} via helper", node.lineno,
                         direct=False, span=via.span)
        # unknown call: taint flows through its arguments
        if arg_taint:
            return replace(arg_taint, direct=False)
        return None

    def _callee_summary(self, node: ast.Call) -> Optional[_Summary]:
        func = node.func
        if isinstance(func, ast.Name):
            return self.summaries.get(func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id == "self" and self.class_of:
            return self.summaries.get(f"{self.class_of}.{func.attr}")
        return None

    # -- sinks ------------------------------------------------------------

    def _sink_for_call(self, node: ast.Call) -> Optional[str]:
        name = _terminal_name(node.func)
        if name is None:
            return None
        if name in _SEND_METHODS:  # a method call or a local alias
            return f"transport send {name}()"
        if isinstance(node.func, ast.Attribute):
            if name in _SCHED_METHODS:
                return f"scheduling call .{name}()"
            if name in _RNG_METHODS:
                return f"RNG draw .{name}()"
        if name in _SEED_FUNCS:
            return f"RNG seeding {name}()"
        if name == "Random":
            return "random.Random(<seed>)"
        if name[0].isupper() and not name.endswith(_EXC_SUFFIXES) and \
                "_" not in name:
            return f"message/field constructor {name}()"
        return None

    def _check_sinks(self, stmt: ast.stmt) -> None:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_for_call(node)
            summary = self._callee_summary(node)
            if sink is None and not (summary and summary.sink_params):
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for index, arg in enumerate(args):
                taint = self._eval(arg)
                if taint is None:
                    continue
                if sink is not None:
                    self._report(node, taint, sink)
                if summary and index < len(args) and summary.sink_params:
                    param = self._param_for_arg(summary, node, index)
                    if param in summary.sink_params:
                        self._report(node, taint,
                                     summary.sink_params[param] +
                                     " inside the callee")

    @staticmethod
    def _param_for_arg(summary: _Summary, node: ast.Call,
                       index: int) -> Optional[str]:
        if index < len(node.args):
            return summary.params[index] if index < len(summary.params) \
                else None
        keyword = node.keywords[index - len(node.args)]
        return keyword.arg

    def _report(self, node: ast.Call, taint: Taint, sink: str) -> None:
        if taint.kind == "param":
            self.summary.sink_params.setdefault(taint.param, sink)
            return
        if taint.direct and taint.kind == "entropy":
            return  # source-at-sink: DET001/002/006 territory
        if taint.kind == "order" and \
                taint.span[0] <= node.lineno <= taint.span[1]:
            return  # sink lexically inside the originating loop: DET003
        code = "DET007" if taint.kind == "entropy" else "DET008"
        if taint.kind == "entropy":
            message = (f"laundered entropy from {taint.origin} "
                       f"(line {taint.line}) reaches {sink}")
            hint = ("derive the value from Simulator.now or a named "
                    "seeded stream instead of ambient entropy")
        else:
            reach = "directly" if taint.direct else "through a variable"
            message = (f"unordered iteration order from {taint.origin} "
                       f"(line {taint.line}) reaches {sink} {reach}")
            hint = "sort the set (sorted(...)) before the order can escape"
        self.findings.append(Finding(self.module.relpath, node.lineno,
                                     node.col_offset, code, message, hint))

    # -- statement walk ---------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> None:
        self._collect_set_names(body)
        # two passes so taint assigned late in a loop body reaches sinks
        # earlier in the same loop on the next iteration
        for _ in range(2):
            self._process_block(body, check=False)
        self._process_block(body, check=True)

    def _collect_set_names(self, body: Sequence[ast.stmt]) -> None:
        for _ in range(2):
            for stmt in body:
                for node in _walk_statements(stmt):
                    if isinstance(node, ast.Assign) and \
                            _is_set_expr(node.value, self.set_names):
                        self.set_names.update(
                            t.id for t in node.targets
                            if isinstance(t, ast.Name))

    def _process_block(self, body: Sequence[ast.stmt],
                       check: bool) -> None:
        for stmt in body:
            self._process_stmt(stmt, check)

    def _process_stmt(self, stmt: ast.stmt, check: bool) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scope: analysed separately
        if check:
            self._check_sinks(stmt)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._process_assign(stmt)
        elif isinstance(stmt, ast.For):
            self._process_for(stmt, check)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            taint = self._eval(stmt.value)
            if taint and taint.kind != "param" and \
                    self.summary.taints_return is None:
                self.summary.taints_return = replace(taint, direct=False)
        elif isinstance(stmt, ast.If):
            # join: a name is tainted after the if when either branch
            # leaves it tainted
            before = dict(self.env)
            self._process_block(stmt.body, check)
            after_body, self.env = self.env, before
            self._process_block(stmt.orelse, check)
            for name, taint in after_body.items():
                self.env.setdefault(name, taint)
        elif isinstance(stmt, (ast.While,)):
            self._process_block(stmt.body, check)
            self._process_block(stmt.orelse, check)
        elif isinstance(stmt, ast.With):
            self._process_block(stmt.body, check)
        elif isinstance(stmt, ast.Try):
            self._process_block(stmt.body, check)
            for handler in stmt.handlers:
                self._process_block(handler.body, check)
            self._process_block(stmt.orelse, check)
            self._process_block(stmt.finalbody, check)
        elif isinstance(stmt, ast.Expr):
            self._process_mutator(stmt.value)

    def _process_assign(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AugAssign):
            taint = self._eval(stmt.value) or self._target_taint(stmt.target)
            targets: List[ast.AST] = [stmt.target]
            value: Optional[ast.AST] = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is None:
                return
            taint = self._eval(stmt.value)
            targets = [stmt.target]
            value = stmt.value
        else:
            taint = self._eval(stmt.value)
            targets = list(stmt.targets)
            value = stmt.value
        stays_set = value is not None and _is_set_expr(value, self.set_names)
        for target in targets:
            self._bind(target, taint, stays_set=stays_set)

    def _target_taint(self, target: ast.AST) -> Optional[Taint]:
        if isinstance(target, ast.Name):
            return self.env.get(target.id)
        chain = _dotted_store_path(target)
        return self.env.get(chain) if chain else None

    def _bind(self, target: ast.AST, taint: Optional[Taint],
              stays_set: bool = False) -> None:
        if isinstance(target, ast.Name):
            if taint:
                self.env[target.id] = replace(taint, direct=False)
            else:
                self.env.pop(target.id, None)
                if not stays_set:
                    self.set_names.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, stays_set=stays_set)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint, stays_set=stays_set)
        else:
            chain = _dotted_store_path(target)
            if chain:
                if taint:
                    self.env[chain] = replace(taint, direct=False)
                else:
                    self.env.pop(chain, None)

    def _process_for(self, stmt: ast.For, check: bool) -> None:
        iter_taint = self._eval(stmt.iter)
        span = (stmt.lineno, getattr(stmt, "end_lineno", stmt.lineno) or
                stmt.lineno)
        if _is_unordered_iterable(stmt.iter, self.set_names):
            self._bind(stmt.target, Taint(
                "order", "iteration over an unordered set", stmt.lineno,
                direct=False, span=span))
        elif iter_taint:
            self._bind(stmt.target, replace(iter_taint, direct=False))
        else:
            self._bind(stmt.target, None)
        self._process_block(stmt.body, check)
        self._process_block(stmt.orelse, check)

    def _process_mutator(self, node: ast.AST) -> None:
        if not (isinstance(node, ast.Call) and
                isinstance(node.func, ast.Attribute) and
                node.func.attr in _MUTATORS):
            return
        taint = self._first_taint(list(node.args) +
                                  [kw.value for kw in node.keywords])
        if taint and taint.kind != "param":
            receiver = node.func.value
            if isinstance(receiver, ast.Name):
                self.env.setdefault(receiver.id,
                                    replace(taint, direct=False))
            else:
                chain = _dotted_store_path(receiver)
                if chain:
                    self.env.setdefault(chain, replace(taint, direct=False))


def _dotted_store_path(node: ast.AST) -> Optional[str]:
    """``self.x.y`` -> ``"self.x.y"`` for attribute chains off a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_unordered_iterable(node: ast.AST, set_names: Set[str]) -> bool:
    if _is_set_expr(node, set_names):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "keys" and \
            _is_set_expr(node.func.value, set_names):
        return True
    return False


def _walk_statements(stmt: ast.stmt) -> Iterator[ast.AST]:
    stack: List[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _scopes(module: Module) -> Iterator[Tuple[Optional[str], str,
                                              Sequence[ast.stmt],
                                              Sequence[str]]]:
    """(enclosing class, qualified name, body, params) per scope."""
    yield None, "<module>", module.tree.body, ()
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _function_scopes(None, node.name, node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    yield from _function_scopes(
                        node.name, f"{node.name}.{item.name}", item)


def _function_scopes(class_of: Optional[str], qualname: str,
                     node: ast.AST) -> Iterator[Tuple[Optional[str], str,
                                                      Sequence[ast.stmt],
                                                      Sequence[str]]]:
    """One function's scope, then those of the functions nested in it
    (a closure's ``self`` is still its method's instance)."""
    yield class_of, qualname, node.body, _params(node)
    for stmt in node.body:
        for inner in _walk_statements(stmt):
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _function_scopes(
                    class_of, f"{qualname}.{inner.name}", inner)


def _params(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def check_dataflow(module: Module,
                   rng_modules: Tuple[str, ...] = ()) -> List[Finding]:
    """Run the two-pass taint analysis over one module."""
    if module.tree is None or module.dotted in rng_modules:
        return []
    names = _import_map(module)
    # pass one: build call summaries (params seeded with "param" taint)
    summaries: Dict[str, _Summary] = {}
    for class_of, qualname, body, params in _scopes(module):
        if qualname == "<module>":
            continue
        analysis = _ScopeAnalysis(module, names, {}, class_of, params,
                                  seed_params=True)
        analysis.run(body)
        summaries[qualname] = analysis.summary
    # pass two: real findings, summaries visible at call sites
    findings: List[Finding] = []
    for class_of, qualname, body, params in _scopes(module):
        analysis = _ScopeAnalysis(module, names, summaries, class_of,
                                  params, seed_params=False)
        analysis.run(body)
        findings.extend(analysis.findings)
    seen: Set[Tuple[int, int, str, str]] = set()
    unique: List[Finding] = []
    for finding in sorted(findings):
        key = (finding.line, finding.col, finding.code, finding.message)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    return unique


class DataflowRule:
    """Rule adapter so the engine can run the taint pass like any rule."""

    code = "DET007"
    name = "dataflow-taint"

    def __init__(self, rng_modules: Tuple[str, ...] = ()) -> None:
        self.rng_modules = rng_modules

    def check(self, module: Module) -> Iterator[Finding]:
        yield from check_dataflow(module, self.rng_modules)
