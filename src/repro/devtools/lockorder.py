"""Runtime lock-order recording: the observed half of detlint's CONC002.

CONC002 builds the acquisition graph from nested ``with`` blocks in
one module, so it misses a lock taken through another object (a server
that takes its hub's lock, then its own).  :class:`LockOrderRecorder`
watches the real acquisitions instead: while armed, every
``threading.Lock()``/``RLock()`` is a recording proxy, and a cycle in
the observed graph is a latent deadlock.  The tier-1 lock-order test
arms it over a live, scraped campaign.
"""

from __future__ import annotations

import threading
import traceback
from typing import Callable, Dict, List, Set, Tuple

__all__ = ["LockOrderRecorder"]


class _RecordingLock:
    """A lock proxy that reports acquire/release to its recorder."""

    def __init__(self, inner, name: str,
                 recorder: "LockOrderRecorder") -> None:
        self._inner = inner
        self.name = name
        self._recorder = recorder

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._recorder._on_acquire(self)
        return got

    def release(self) -> None:
        self._recorder._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RecordingLock {self.name}>"


class LockOrderRecorder:
    """Record every lock-acquisition order and report cycles.

    The runtime counterpart of detlint's static CONC002 check: while
    armed, ``threading.Lock()``/``threading.RLock()`` return recording
    proxies named by their creation site.  Whenever a thread acquires
    lock *B* while holding lock *A*, the edge ``A -> B`` enters a
    process-wide acquisition graph; a cycle in that graph is a latent
    deadlock (two threads can each hold one lock of the cycle and wait
    forever for the next).

    Only locks created *while armed* are tracked, so arm the recorder
    before constructing the objects under test.  It is
    one-per-process and opt-in only -- every tracked acquisition
    pays a wrapper frame.

    >>> with LockOrderRecorder() as recorder:
    ...     a, b = threading.Lock(), threading.Lock()
    ...     with a:
    ...         with b: pass          # edge a -> b
    ...     with b:
    ...         with a: pass          # edge b -> a => cycle
    >>> recorder.cycles()             # [(a_site, b_site)]
    """

    _armed = False

    def __init__(self) -> None:
        self.locks_created = 0
        #: (holder site, acquired site) -> times observed
        self.edges: Dict[Tuple[str, str], int] = {}
        self._held = threading.local()
        # raw lock: the recorder must not record (or deadlock) itself
        self._graph_lock = threading.Lock()
        self._saved: List[Tuple[str, Callable]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[_RecordingLock]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _on_acquire(self, lock: _RecordingLock) -> None:
        stack = self._stack()
        if stack:
            edge = (stack[-1].name, lock.name)
            with self._graph_lock:
                self.edges[edge] = self.edges.get(edge, 0) + 1
        stack.append(lock)

    def _on_release(self, lock: _RecordingLock) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is lock:
                del stack[index]
                return

    def _name_creation_site(self) -> str:
        # two frames up: _factory_wrapper's caller, i.e. Lock()'s caller
        frame = traceback.extract_stack(limit=3)[0]
        basename = frame.filename.rsplit("/", 1)[-1]
        return f"{basename}:{frame.lineno}"

    def _wrap_factory(self, original: Callable) -> Callable:
        def factory(*args, **kwargs):
            inner = original(*args, **kwargs)
            name = self._name_creation_site()
            self.locks_created += 1
            return _RecordingLock(inner, name, self)

        factory.__wrapped__ = original
        return factory

    # -- reporting --------------------------------------------------------
    def cycles(self) -> List[Tuple[str, ...]]:
        """Every elementary cycle in the acquisition graph (sorted)."""
        graph: Dict[str, Set[str]] = {}
        for src, dst in self.edges:
            if src != dst:  # re-entrant RLock self-edges are fine
                graph.setdefault(src, set()).add(dst)
        found: Set[Tuple[str, ...]] = set()

        def visit(node: str, path: List[str], on_path: Set[str]) -> None:
            for succ in sorted(graph.get(node, ())):
                if succ in on_path:
                    cycle = path[path.index(succ):]
                    # canonical rotation so each cycle reports once
                    pivot = cycle.index(min(cycle))
                    found.add(tuple(cycle[pivot:] + cycle[:pivot]))
                    continue
                path.append(succ)
                on_path.add(succ)
                visit(succ, path, on_path)
                on_path.discard(succ)
                path.pop()

        for start in sorted(graph):
            visit(start, [start], {start})
        return sorted(found)

    def render(self) -> str:
        lines = [f"lock-order: {self.locks_created} locks tracked, "
                 f"{len(self.edges)} distinct acquisition edges"]
        for (src, dst), count in sorted(self.edges.items()):
            lines.append(f"  {src} -> {dst}  (x{count})")
        cycles = self.cycles()
        if cycles:
            lines.append(f"CYCLES ({len(cycles)}) -- latent deadlock:")
            for cycle in cycles:
                lines.append("  " + " -> ".join(cycle + (cycle[0],)))
        else:
            lines.append("no cycles: every pair of locks is always taken "
                         "in the same order")
        return "\n".join(lines)

    # -- context protocol -------------------------------------------------
    def __enter__(self) -> "LockOrderRecorder":
        if LockOrderRecorder._armed:
            raise RuntimeError("a LockOrderRecorder is already armed in "
                               "this process")
        LockOrderRecorder._armed = True
        for name in ("Lock", "RLock"):
            original = getattr(threading, name)
            self._saved.append((name, original))
            setattr(threading, name, self._wrap_factory(original))
        return self

    def __exit__(self, *exc_info) -> None:
        for name, original in self._saved:
            setattr(threading, name, original)
        self._saved.clear()
        LockOrderRecorder._armed = False
