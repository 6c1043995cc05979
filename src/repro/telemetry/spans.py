"""Lightweight span tracing for simulated call chains.

A span is a named interval with a start and end in *virtual* time plus
the wall-clock instants those edges were recorded, optional attributes,
and an optional parent -- enough to reconstruct the causal chain of a
measurement campaign: a ``query`` span fathers one ``response`` span
per decoded hit, which fathers the ``download`` span covering every
attempt, which fathers the ``scan``.  Unlike a thread-based tracer
there is no implicit "current span": chains here live across event
callbacks separated by hours of virtual time, so parents are passed
explicitly.

The tracer is bounded: past ``capacity`` spans, new starts are counted
as dropped rather than recorded, so month-long campaigns cannot grow
memory without bound.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..resilience import atomic_writer

__all__ = ["Span", "SpanTracer", "json_value"]

#: ``json.dumps``' default separators, which the span lines use
_SEPARATORS = (", ", ": ")
_INF = float("inf")


def json_value(value: object,
               separators: Tuple[str, str] = _SEPARATORS) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, separators=...)``
    writes it, byte for byte.

    Exact ``float``, ``str``, ``int``, ``None`` and ``bool`` are spelled
    directly, as the encoder spells them (``repr`` numbers, ``NaN`` /
    ``Infinity``, ASCII-escaped strings); anything else, nested
    containers included, goes through ``json.dumps`` itself.  The span
    exporters render whole files from it, so no dict is built per span
    or event.
    """
    kind = type(value)
    if kind is float:
        if -_INF < value < _INF:
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, sort_keys=True, separators=separators)


@dataclass(slots=True)
class Span:
    """One traced interval; ``end_*`` stay ``None`` while open."""

    span_id: int
    name: str
    parent_id: Optional[int]
    start_virtual: float
    start_wall: float
    end_virtual: Optional[float] = None
    end_wall: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """True once :meth:`SpanTracer.end` has run."""
        return self.end_virtual is not None

    @property
    def virtual_duration(self) -> float:
        """Seconds of virtual time covered (0.0 while open)."""
        if self.end_virtual is None:
            return 0.0
        return self.end_virtual - self.start_virtual

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds between the recorded edges (0.0 while open)."""
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    def to_json(self) -> str:
        """The span's export line (no newline): ``json.dumps`` of its
        fields with ``sort_keys``, written field by field."""
        attributes = ", ".join([
            f"{encode_basestring_ascii(key)}: {json_value(value)}"
            for key, value in sorted(self.attributes.items())])
        return (f'{{"attributes": {{{attributes}}}, '
                f'"end_virtual": {json_value(self.end_virtual)}, '
                f'"name": {json_value(self.name)}, '
                f'"parent_id": {json_value(self.parent_id)}, '
                f'"span_id": {json_value(self.span_id)}, '
                f'"start_virtual": {json_value(self.start_virtual)}, '
                f'"virtual_duration": {json_value(self.virtual_duration)}, '
                f'"wall_duration": {json_value(self.wall_duration)}}}')


class SpanTracer:
    """Records spans with explicit parentage, bounded by ``capacity``."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        self.capacity = capacity
        self.dropped = 0
        self._spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self._spans)

    def start(self, name: str, virtual_time: float,
              parent: Union[Span, int, None] = None,
              **attributes: object) -> Optional[Span]:
        """Open a span; returns ``None`` when capacity is exhausted.

        Callers pass the result straight back to :meth:`end`, which
        accepts ``None``, so dropped spans need no special-casing.
        """
        if len(self._spans) >= self.capacity:
            self.dropped += 1
            return None
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        span = Span(span_id=next(self._ids), name=name,
                    parent_id=parent_id, start_virtual=virtual_time,
                    start_wall=time.perf_counter(), attributes=attributes)
        self._spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def end(self, span: Optional[Span], virtual_time: float,
            **attributes: object) -> None:
        """Close ``span`` (no-op for ``None``), merging ``attributes``."""
        if span is None or span.finished:
            return
        span.end_virtual = virtual_time
        span.end_wall = time.perf_counter()
        if attributes:
            span.attributes.update(attributes)

    def close_open(self, virtual_time: float) -> int:
        """End every still-open span (campaign teardown); returns count."""
        closed = 0
        for span in self._spans:
            if not span.finished:
                self.end(span, virtual_time, closed_at_teardown=True)
                closed += 1
        return closed

    # -- queries ------------------------------------------------------------
    def spans(self, name: Optional[str] = None) -> List[Span]:
        """All spans in start order, optionally filtered by name."""
        if name is None:
            return list(self._spans)
        return [span for span in self._spans if span.name == name]

    def get(self, span_id: int) -> Optional[Span]:
        """Lookup by id."""
        return self._by_id.get(span_id)

    def chain(self, span: Union[Span, int]) -> List[Span]:
        """``span`` and its ancestors, root first.

        This answers "where did this malicious download come from": the
        chain of a ``scan`` span walks back through ``download`` and
        ``response`` to the originating ``query``.
        """
        current: Optional[Span] = (span if isinstance(span, Span)
                                   else self._by_id.get(span))
        links: List[Span] = []
        seen = set()
        while current is not None and current.span_id not in seen:
            links.append(current)
            seen.add(current.span_id)
            current = (self._by_id.get(current.parent_id)
                       if current.parent_id is not None else None)
        return list(reversed(links))

    def chain_virtual_duration(self, span: Union[Span, int]) -> float:
        """Virtual seconds from the chain's root start to its leaf end."""
        links = self.chain(span)
        if not links:
            return 0.0
        leaf = links[-1]
        leaf_end = (leaf.end_virtual if leaf.end_virtual is not None
                    else leaf.start_virtual)
        return leaf_end - links[0].start_virtual

    # -- export -------------------------------------------------------------
    def to_jsonl(self, path: Path) -> int:
        """Write one JSON object per span; returns the span count.

        Atomic (tmp + ``os.replace``): span exports happen once at the
        end of a run, so whole-file replacement is the right crash
        discipline -- a reader never sees half an export.  The lines
        stream to the temp file one by one.
        """
        with atomic_writer(Path(path)) as handle:
            handle.writelines((span.to_json() + "\n").encode()
                              for span in self._spans)
        return len(self._spans)
