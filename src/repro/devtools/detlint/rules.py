"""The determinism rules (DET001...DET006).

Each rule targets one class of reproducibility bug the measurement
infrastructure must never contain: a campaign with seed *s* has to
produce bit-identical results serially, under ``workers=N`` fan-out,
across interpreter restarts and across ``PYTHONHASHSEED`` values.  The
rules are deliberately heuristic -- AST-level, single-function dataflow
at most -- because the point is to catch the common hazards cheaply in
CI, not to prove the absence of nondeterminism.

====== ==================================================================
code   hazard
====== ==================================================================
DET001 bare ``random.*`` / unseeded ``random.Random()`` / global numpy
       randomness outside the named-stream module (``simnet/rng.py``)
DET002 wall-clock reads (``time.time``, ``perf_counter``,
       ``datetime.now``...) -- only the telemetry sampling whitelist in
       the committed baseline may contain these
DET003 iteration over ``set``/``frozenset`` (or ``dict.keys()`` of one)
       without ``sorted()`` where the loop body schedules events,
       sends on the transport or draws randomness
DET004 builtin ``hash()`` of interpreter-salted values (str/bytes):
       changes with ``PYTHONHASHSEED``
DET005 ``id()`` used as a sort key: memory-layout-dependent order
DET006 ambient entropy: ``os.environ``/``os.getenv``, ``os.urandom``,
       ``uuid.uuid1/uuid4``, ``secrets.*``
====== ==================================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding, Module

__all__ = [
    "BareRandomRule", "WallClockRule", "UnorderedIterRule", "HashSeedRule",
    "IdOrderRule", "AmbientEntropyRule", "DEFAULT_RULES", "all_rules",
]

#: module-level ``random`` functions that consume the shared global state
_RANDOM_FUNCS = frozenset({
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "gauss", "normalvariate", "lognormvariate",
    "expovariate", "betavariate", "gammavariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
    "randbytes", "seed", "setstate", "getstate", "binomialvariate",
})

#: ``numpy.random`` module-level functions backed by the global RandomState
_NUMPY_GLOBAL_FUNCS = frozenset({
    "random", "rand", "randn", "randint", "random_sample", "ranf",
    "choice", "shuffle", "permutation", "seed", "normal", "uniform",
    "exponential", "poisson", "binomial",
})

#: wall-clock reads on the ``time`` module
_TIME_FUNCS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime", "asctime",
})

#: wall-clock constructors on ``datetime.datetime`` / ``datetime.date``
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: methods that push work into the event queue
_SCHED_METHODS = frozenset({"at", "after", "every", "push", "schedule"})

#: transport sends: each one schedules a delivery, so their order is
#: event order
_SEND_METHODS = frozenset({"send", "send_many"})

#: draw methods of :class:`repro.simnet.rng.SeededStream` (and random.Random)
_RNG_METHODS = frozenset({
    "uniform", "randint", "random", "expovariate", "gauss",
    "lognormvariate", "choice", "choices", "sample", "shuffle",
    "bernoulli", "geometric", "zipf_rank", "bytes",
})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportMap(ast.NodeVisitor):
    """Local name -> dotted origin for imports in one module."""

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.names[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # relative import: never stdlib entropy
            return
        for alias in node.names:
            origin = f"{node.module}.{alias.name}" if node.module else alias.name
            self.names[alias.asname or alias.name] = origin


def _import_map(module: Module) -> Dict[str, str]:
    mapper = _ImportMap()
    mapper.visit(module.tree)
    return mapper.names


def _resolves(module_names: Dict[str, str], node: ast.AST,
              target: str) -> bool:
    """True when the Name/Attribute chain denotes ``target`` (dotted)."""
    chain = _dotted(node)
    if chain is None:
        return False
    head, _, rest = chain.partition(".")
    origin = module_names.get(head)
    if origin is None:
        resolved = chain
    else:
        resolved = origin + ("." + rest if rest else "")
    return resolved == target or chain == target


class BareRandomRule:
    """DET001: global-state randomness outside the named-stream module."""

    code = "DET001"
    name = "bare-random"

    def __init__(self, rng_modules: Tuple[str, ...] = ()) -> None:
        self.rng_modules = rng_modules

    def check(self, module: Module) -> Iterator[Finding]:
        if module.dotted in self.rng_modules:
            return
        names = _import_map(module)
        random_aliases = {local for local, origin in names.items()
                          if origin == "random"}
        from_random = {local: origin.split(".", 1)[1]
                       for local, origin in names.items()
                       if origin.startswith("random.")}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, random_aliases,
                                            from_random)

    def _check_import(self, module: Module, node: ast.AST
                      ) -> Iterator[Finding]:
        targets = []
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names
                       if a.name == "random" or a.name.startswith("random.")]
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            targets = [f"random.{a.name}" for a in node.names]
        for target in targets:
            yield Finding(
                module.relpath, node.lineno, node.col_offset, self.code,
                f"import of {target!r} in simulation code",
                "draw from a named stream: Simulator.stream(name) / "
                "repro.simnet.rng.SeededStream")

    def _check_call(self, module: Module, node: ast.Call,
                    random_aliases: Set[str],
                    from_random: Dict[str, str]) -> Iterator[Finding]:
        func = node.func
        # random.<fn>(...) through any import alias
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in (random_aliases | {"random"}):
            if func.attr in _RANDOM_FUNCS:
                yield Finding(
                    module.relpath, node.lineno, node.col_offset, self.code,
                    f"bare random.{func.attr}() uses the process-global "
                    "PRNG state",
                    "use Simulator.stream(name).<draw>() so the draw has a "
                    "named, seeded stream")
            elif func.attr == "Random" and not node.args and not node.keywords:
                yield Finding(
                    module.relpath, node.lineno, node.col_offset, self.code,
                    "random.Random() without a seed is entropy-seeded",
                    "pass an explicit seed derived via "
                    "repro.simnet.rng.derive_seed")
        # from random import shuffle; shuffle(...)
        elif isinstance(func, ast.Name) and func.id in from_random and \
                from_random[func.id] in _RANDOM_FUNCS:
            yield Finding(
                module.relpath, node.lineno, node.col_offset, self.code,
                f"bare {from_random[func.id]}() imported from random",
                "use Simulator.stream(name).<draw>()")
        # np.random.<fn>(...) global numpy state
        elif isinstance(func, ast.Attribute) and \
                func.attr in _NUMPY_GLOBAL_FUNCS and \
                isinstance(func.value, ast.Attribute) and \
                func.value.attr == "random" and \
                isinstance(func.value.value, ast.Name) and \
                func.value.value.id in ("np", "numpy"):
            yield Finding(
                module.relpath, node.lineno, node.col_offset, self.code,
                f"numpy global-state randomness np.random.{func.attr}()",
                "use np.random.default_rng(seed) with an explicit seed")


class WallClockRule:
    """DET002: wall-clock reads.

    Simulation code must tell time with ``Simulator.now`` (virtual
    seconds).  The only place real time may leak in is the telemetry
    sampling whitelist, carried by the committed baseline file -- this
    rule itself flags *every* read.
    """

    code = "DET002"
    name = "wall-clock"

    def check(self, module: Module) -> Iterator[Finding]:
        names = _import_map(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            target = None
            if isinstance(func, ast.Attribute) and func.attr in _TIME_FUNCS \
                    and _resolves(names, func.value, "time"):
                target = f"time.{func.attr}"
            elif isinstance(func, ast.Name):
                origin = names.get(func.id, "")
                if origin.startswith("time.") and \
                        origin.split(".", 1)[1] in _TIME_FUNCS:
                    target = origin
            if target is None and isinstance(func, ast.Attribute) and \
                    func.attr in _DATETIME_FUNCS:
                base = func.value
                if _resolves(names, base, "datetime.datetime") or \
                        _resolves(names, base, "datetime.date"):
                    target = f"datetime.{func.attr}"
            if target is not None:
                yield Finding(
                    module.relpath, node.lineno, node.col_offset, self.code,
                    f"wall-clock read {target}() in simulation code",
                    "use Simulator.now (virtual time); telemetry sampling "
                    "belongs in the baseline whitelist")


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Heuristic: does this expression evaluate to a set/frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        # a & b etc. stays a set when either side is one
        return _is_set_expr(node.left, set_names) or \
            _is_set_expr(node.right, set_names)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("union", "intersection", "difference",
                                   "symmetric_difference", "copy") \
            and _is_set_expr(node.func.value, set_names):
        return True
    return False


def _is_unordered_iter(node: ast.AST, set_names: Set[str]) -> bool:
    """Set-typed iterable, or ``.keys()`` of one, not wrapped in sorted()."""
    if _is_set_expr(node, set_names):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "keys" and \
            _is_set_expr(node.func.value, set_names):
        return True
    return False


def _has_sink_call(body: List[ast.stmt]) -> Optional[str]:
    """Name of the first scheduling/send/RNG call inside ``body``.

    A send through a local alias (``send = self.transport.send``) is
    recognised by its name.
    """
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and \
                    node.func.id in _SEND_METHODS:
                return f"transport send {node.func.id}()"
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _SCHED_METHODS:
                    return f"scheduling call .{node.func.attr}()"
                if node.func.attr in _SEND_METHODS:
                    return f"transport send .{node.func.attr}()"
                if node.func.attr in _RNG_METHODS:
                    return f"RNG draw .{node.func.attr}()"
    return None


def _walk_scope(body: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # a different scope: it gets its own pass
        stack.extend(ast.iter_child_nodes(node))


def _iter_stmts_ordered(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements in source order, not descending into nested scopes."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for block in ("body", "orelse", "finalbody"):
            inner = getattr(node, block, None)
            if inner:
                yield from _iter_stmts_ordered(inner)
        for handler in getattr(node, "handlers", ()):
            yield from _iter_stmts_ordered(handler.body)


class UnorderedIterRule:
    """DET003: unordered set iteration feeding the scheduler, a send or RNG.

    ``for peer in peers_set: sim.after(...)`` executes in hash order --
    a different order (and therefore a different event interleaving or
    draw sequence) every interpreter run.  Wrapping the iterable in
    ``sorted()`` fixes it.  Single-function heuristic: the iterable
    must be recognisably set-typed and the loop body must contain a
    scheduling, send or draw call.
    """

    code = "DET003"
    name = "unordered-iteration"

    def check(self, module: Module) -> Iterator[Finding]:
        scopes: List = [module.tree]
        scopes.extend(node for node in ast.walk(module.tree)
                      if isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)))
        for scope in scopes:
            set_names: Set[str] = set()
            # two passes so chains like ``a = set(); b = a`` resolve
            # regardless of traversal order
            for _ in range(2):
                for node in _walk_scope(scope.body):
                    if isinstance(node, ast.Assign) and \
                            _is_set_expr(node.value, set_names):
                        set_names.update(t.id for t in node.targets
                                         if isinstance(t, ast.Name))
                    elif isinstance(node, ast.AnnAssign) and \
                            isinstance(node.target, ast.Name) and \
                            node.value is not None and \
                            _is_set_expr(node.value, set_names):
                        set_names.add(node.target.id)
            # third pass, in source order: a name rebound to a non-set
            # value (``s = sorted(s)``) stops being set-typed from that
            # point on -- without the kill, the sorted copy kept firing
            for node in _iter_stmts_ordered(scope.body):
                if isinstance(node, ast.Assign):
                    is_set = _is_set_expr(node.value, set_names)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            (set_names.add if is_set
                             else set_names.discard)(target.id)
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name) and \
                        node.value is not None:
                    if _is_set_expr(node.value, set_names):
                        set_names.add(node.target.id)
                    else:
                        set_names.discard(node.target.id)
            for node in _walk_scope(scope.body):
                if isinstance(node, ast.For) and \
                        _is_unordered_iter(node.iter, set_names):
                    sink = _has_sink_call(node.body)
                    if sink:
                        yield Finding(
                            module.relpath, node.lineno, node.col_offset,
                            self.code,
                            "iteration over an unordered set reaches a "
                            f"{sink}: order depends on hash seed",
                            "iterate sorted(<set>) so the event/draw order "
                            "is stable")
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp)):
                    for gen in node.generators:
                        if _is_unordered_iter(gen.iter, set_names) and \
                                _comp_has_sink(node):
                            yield Finding(
                                module.relpath, node.lineno, node.col_offset,
                                self.code,
                                "comprehension over an unordered set feeds "
                                "a scheduling/send/RNG call",
                                "wrap the iterable in sorted()")


def _comp_has_sink(comp: ast.AST) -> bool:
    for node in ast.walk(comp):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in (_SCHED_METHODS | _SEND_METHODS |
                                   _RNG_METHODS):
            return True
    return False


class HashSeedRule:
    """DET004: builtin ``hash()`` -- salted per process for str/bytes."""

    code = "DET004"
    name = "hash-seed"

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "hash" and len(node.args) == 1:
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, (int, float)):
                    continue  # numeric hash is PYTHONHASHSEED-stable
                yield Finding(
                    module.relpath, node.lineno, node.col_offset, self.code,
                    "builtin hash() of a (potential) str/bytes value varies "
                    "with PYTHONHASHSEED",
                    "use zlib.crc32(value.encode()) or "
                    "repro.simnet.rng.derive_seed for stable hashing")


class IdOrderRule:
    """DET005: ``id()`` as an ordering key -- allocation-order dependent."""

    code = "DET005"
    name = "id-order"

    _ORDER_FUNCS = frozenset({"sorted", "min", "max"})

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            is_order_call = (
                (isinstance(node.func, ast.Name) and
                 node.func.id in self._ORDER_FUNCS) or
                (isinstance(node.func, ast.Attribute) and
                 node.func.attr == "sort"))
            if not is_order_call:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                if self._uses_id(keyword.value):
                    yield Finding(
                        module.relpath, node.lineno, node.col_offset,
                        self.code,
                        "id() used as a sort key: order follows memory "
                        "layout, not data",
                        "sort by a stable attribute (name, sequence "
                        "number) instead")

    @staticmethod
    def _uses_id(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            return any(isinstance(sub, ast.Call) and
                       isinstance(sub.func, ast.Name) and sub.func.id == "id"
                       for sub in ast.walk(key.body))
        return False


class AmbientEntropyRule:
    """DET006: entropy from the environment the seed does not control."""

    code = "DET006"
    name = "ambient-entropy"

    def check(self, module: Module) -> Iterator[Finding]:
        names = _import_map(module)
        for node in ast.walk(module.tree):
            found = None
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    if func.attr == "urandom" and \
                            _resolves(names, func.value, "os"):
                        found = ("os.urandom()", "draw bytes from "
                                 "Simulator.stream(name).bytes(n)")
                    elif func.attr == "getenv" and \
                            _resolves(names, func.value, "os"):
                        found = ("os.getenv()", "thread configuration "
                                 "through CampaignConfig instead")
                    elif func.attr in ("uuid1", "uuid4") and \
                            _resolves(names, func.value, "uuid"):
                        found = (f"uuid.{func.attr}()",
                                 "derive ids from the seed "
                                 "(repro.simnet.rng.derive_seed) or a "
                                 "counter")
                    elif func.attr == "get" and \
                            _resolves(names, func.value, "os.environ"):
                        found = ("os.environ.get()", "thread configuration "
                                 "through CampaignConfig instead")
                    elif _resolves(names, func.value, "secrets"):
                        found = (f"secrets.{func.attr}()",
                                 "simulation code never needs "
                                 "cryptographic entropy")
                elif isinstance(func, ast.Name):
                    origin = names.get(func.id, "")
                    if origin in ("os.urandom", "uuid.uuid1", "uuid.uuid4") \
                            or origin.startswith("secrets."):
                        found = (f"{origin}()",
                                 "derive from the campaign seed instead")
            elif isinstance(node, ast.Subscript) and \
                    _resolves(names, node.value, "os.environ"):
                found = ("os.environ[...]", "thread configuration through "
                         "CampaignConfig instead")
            if found:
                yield Finding(
                    module.relpath, node.lineno, node.col_offset, self.code,
                    f"ambient entropy source {found[0]} in simulation code",
                    found[1])


def all_rules(rng_modules: Tuple[str, ...]) -> List:
    """One instance of every determinism rule, in code order."""
    return [
        BareRandomRule(rng_modules=rng_modules),
        WallClockRule(),
        UnorderedIterRule(),
        HashSeedRule(),
        IdOrderRule(),
        AmbientEntropyRule(),
    ]


DEFAULT_RULES = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006")
