"""Outside-in span recorder and the fold that turns spans into layer times.

The recorder never touches the program's source: :mod:`probes` replaces
public functions and methods of the ``repro`` package with the wrappers
made here.  A span wrapper records ``(name, parent, start, end)`` into
flat arrays, one row per call, kept in memory and written once the
workload ends.  A count wrapper only bumps a tally; it is for leaves
called ~10^5 times per run, where a span's two clock reads would dwarf
the work.  Garbage-collector pauses arrive through ``gc.callbacks`` and
become ``python`` spans nested in whatever span was open, so their time
is not charged to the layer that happened to allocate.

Span 0 is the root: the whole workload.  Its self time, the work done
in no wrapped function, is reported as ``unattributed_s``.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["Recorder", "Fold", "fold", "ROOT_LAYER", "GC_LAYER"]

ROOT_LAYER = "harness"
GC_LAYER = "python"


class Recorder:
    """In-memory span store plus count-only tallies."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: span name id -> (layer, name)
        self.names: List[Tuple[str, str]] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        #: count-only wrapper name -> one-element list holding its tally
        self.cells: Dict[str, List[int]] = {}
        #: spans recorded while the root was open (set by close_root)
        self.size = 0
        self._gc_id = self._intern(GC_LAYER, "gc")
        self._open(self._intern(ROOT_LAYER, "root"), -1)

    def _intern(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _open(self, nid: int, parent: int) -> None:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(parent)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start[index] = self._clock()

    # -- root ---------------------------------------------------------------
    def open_root(self) -> None:
        """Stamp the root's start; call right before the workload runs."""
        if len(self.start) != 1:
            raise RuntimeError("spans were recorded before the root opened")
        self.start[0] = self._clock()

    def close_root(self) -> float:
        """Stamp the root's end and return the workload's traced wall time.

        Spans recorded after this (the harness checking outputs) are
        outside the workload and left out of :meth:`fold` and
        :meth:`write`.
        """
        if self.stack != [0]:
            raise RuntimeError(f"unbalanced spans at close: {self.stack!r}")
        self.end[0] = self._clock()
        self.size = len(self.start)
        return self.end[0] - self.start[0]

    # -- wrappers -----------------------------------------------------------
    def span(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records one span."""
        nid = self._intern(layer, name)
        clock = self._clock
        name_ids, parents = self.name_id, self.parent
        starts, ends, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call bumps the ``name`` tally."""
        cell = self.cells.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- garbage collector --------------------------------------------------
    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._open(self._gc_id, self.stack[-1])
        else:
            self.end[self.stack.pop()] = self._clock()

    def __enter__(self) -> "Recorder":
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)

    # -- results ------------------------------------------------------------
    def fold(self) -> "Fold":
        """Fold the spans recorded while the root was open."""
        size = self.size
        return fold(self.names, self.name_id[:size], self.parent[:size],
                    self.start[:size], self.end[:size])

    def write(self, path: Path) -> None:
        """Dump the root's spans (name table + parallel columns) as JSON."""
        size = self.size
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"names": [list(key) for key in self.names],
                       "name_id": self.name_id[:size].tolist(),
                       "parent": self.parent[:size].tolist(),
                       "start": self.start[:size].tolist(),
                       "end": self.end[:size].tolist(),
                       "counts": {name: cell[0]
                                  for name, cell in self.cells.items()}},
                      handle)


class Fold:
    """Self time per layer and per span name, calls and inclusive time."""

    def __init__(self) -> None:
        self.layer_self: Dict[str, float] = {}
        self.name_self: Dict[str, float] = {}
        #: inclusive time per name, counting only the outermost span when
        #: a name calls back into itself
        self.name_inclusive: Dict[str, float] = {}
        self.name_calls: Dict[str, int] = {}
        self.root_s = 0.0

    @property
    def unattributed_s(self) -> float:
        """The root span's self time."""
        return self.layer_self.get(ROOT_LAYER, 0.0)


def fold(names: Sequence[Tuple[str, str]], name_id: Sequence[int],
         parent: Sequence[int], start: Sequence[float],
         end: Sequence[float]) -> Fold:
    """Fold spans stored in open order (span 0 the root) into a :class:`Fold`.

    A span's self time is its duration minus its children's durations.
    Spans are stored in the order they opened, so a span's descendants
    follow it contiguously, and one pass with a path stack knows, for
    every span, whether a span of the same name is open above it.
    Names are keyed ``"<layer>:<name>"``.
    """
    count = len(start)
    child_time = [0.0] * count
    for index in range(1, count):
        child_time[parent[index]] += end[index] - start[index]
    result = Fold()
    if count:
        result.root_s = end[0] - start[0]
    keys = [f"{layer}:{name}" for layer, name in names]
    path: List[int] = []
    open_names: Dict[int, int] = {}
    for index in range(count):
        up = parent[index]
        while path and path[-1] != up:
            open_names[name_id[path.pop()]] -= 1
        nid = name_id[index]
        layer, key = names[nid][0], keys[nid]
        duration = end[index] - start[index]
        own = duration - child_time[index]
        result.layer_self[layer] = result.layer_self.get(layer, 0.0) + own
        result.name_self[key] = result.name_self.get(key, 0.0) + own
        result.name_calls[key] = result.name_calls.get(key, 0) + 1
        if not open_names.get(nid):
            result.name_inclusive[key] = (
                result.name_inclusive.get(key, 0.0) + duration)
        open_names[nid] = open_names.get(nid, 0) + 1
        path.append(index)
    return result
