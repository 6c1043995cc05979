"""Causal flight recorder: span chains as Chrome trace-event JSON.

The span layer (:mod:`repro.telemetry.spans`) already records every
query -> response -> download -> scan chain with explicit parents; this
module renders those chains into the Chrome trace-event format, so a
campaign's causality loads directly into ``chrome://tracing`` or
Perfetto (``ui.perfetto.dev``, *Open trace file*) and any infection can
be followed back to the query that caused it.

Layout: one process per campaign (``pid``), one named track per span
kind (``tid``: query / response / download / scan).  Every span becomes
a complete-duration event (``ph: "X"``) whose timestamps are **virtual
microseconds** -- virtual time is deterministic, so two runs of the
same seed serialize to byte-identical JSON (wall-clock fields are
deliberately excluded).  Parent -> child edges become flow events
(``ph: "s"`` / ``"f"``) keyed by the child's span id, drawing the
causal arrows between tracks.

Sampling keeps the file bounded without ever losing an infection:
every chain whose scan came back dirty (or whose download carried a
malware attribute) is always exported, and clean chains are kept
1-in-``sample_every`` by root span id -- a deterministic rule, no RNG.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..resilience import atomic_writer
from .spans import Span, SpanTracer, json_value

__all__ = ["CATEGORY_TIDS", "build_trace", "write_trace",
           "infected_roots", "chain_roots"]

#: Track ids per span kind; unknown kinds land on track 0.
CATEGORY_TIDS: Dict[str, int] = {
    "query": 1, "response": 2, "download": 3, "scan": 4}

#: One virtual second in trace-event time units (microseconds).
_US = 1e6
#: the trace file's separators
_COMPACT = (",", ":")


def chain_roots(tracer: SpanTracer) -> Dict[int, int]:
    """Map every span id to the id of its chain's root span.

    Spans are recorded in start order, so a parent always precedes its
    children and one forward pass resolves every chain; a dangling
    ``parent_id`` (parent dropped at capacity) makes the span its own
    root rather than losing it.
    """
    roots: Dict[int, int] = {}
    for span in tracer.spans():
        if span.parent_id is not None and span.parent_id in roots:
            roots[span.span_id] = roots[span.parent_id]
        else:
            roots[span.span_id] = span.span_id
    return roots


def _is_infected(span: Span) -> bool:
    """Did this span record malware (dirty scan / malicious download)?"""
    attributes = span.attributes
    if span.name == "scan" and attributes.get("clean") is False:
        return True
    return bool(attributes.get("malware"))


def infected_roots(tracer: SpanTracer,
                   roots: Optional[Dict[int, int]] = None) -> Set[int]:
    """Root span ids of every chain that recorded an infection."""
    roots = roots if roots is not None else chain_roots(tracer)
    return {roots[span.span_id] for span in tracer.spans()
            if _is_infected(span)}


def _sampled_roots(roots: Dict[int, int], sample_every: int,
                   infected: Set[int]) -> Set[int]:
    """Roots to export: all infected chains + 1-in-N of the rest."""
    if sample_every < 1:
        raise ValueError(
            f"sample_every must be >= 1, got {sample_every!r}")
    keep = set(infected)
    phase = 1 % sample_every  # span ids start at 1
    for root in sorted(set(roots.values())):
        if root % sample_every == phase:
            keep.add(root)
    return keep


def _render_trace(tracer: SpanTracer, sample_every: int, pid: int,
                  process_name: str) -> Tuple[dict, Iterator[str]]:
    """The trace's summary, and its JSON text as a stream of pieces.

    The text is what ``json.dumps(trace, sort_keys=True,
    separators=(",", ":"))`` writes for the trace object, built from the
    span fields directly: key order is fixed per event kind, so no event
    dict is ever made.  The summary (``otherData``) precedes the events
    in key order, so the kept spans are picked in a first pass.
    """
    roots = chain_roots(tracer)
    infected = infected_roots(tracer, roots)
    keep = _sampled_roots(roots, sample_every, infected)
    kept = [span for span in tracer.spans() if roots[span.span_id] in keep]
    summary = {
        "clock": "virtual (simulated seconds as microseconds)",
        "spans_recorded": len(tracer),
        "spans_exported": len(kept),
        "spans_dropped_at_capacity": tracer.dropped,
        "chains_total": len(set(roots.values())),
        "chains_exported": len(keep),
        "chains_infected": len(infected),
        "sample_every": sample_every,
    }
    return summary, _trace_text(tracer, kept, summary, pid, process_name)


def _trace_text(tracer: SpanTracer, kept: List[Span], summary: dict,
                pid: int, process_name: str) -> Iterator[str]:
    """Pieces of the trace text; see :func:`_render_trace`."""
    pid_text = json_value(pid, _COMPACT)
    tids = {kind: json_value(tid, _COMPACT)
            for kind, tid in CATEGORY_TIDS.items()}
    other = ",".join(f"{encode_basestring_ascii(key)}:"
                     f"{json_value(summary[key], _COMPACT)}"
                     for key in sorted(summary))
    # metadata first: the process, then one named track per span kind
    meta = [f'{{"args":{{"name":{json_value(process_name, _COMPACT)}}},'
            f'"name":"process_name","ph":"M","pid":{pid_text},"tid":0}}']
    for kind in sorted(CATEGORY_TIDS, key=CATEGORY_TIDS.get):
        meta.append(f'{{"args":{{"name":{json_value(kind, _COMPACT)}}},'
                    f'"name":"thread_name","ph":"M","pid":{pid_text},'
                    f'"tid":{tids[kind]}}}')
    yield (f'{{"displayTimeUnit":"ms","otherData":{{{other}}},'
           f'"traceEvents":[{",".join(meta)}')
    for span in kept:
        name = json_value(span.name, _COMPACT)
        tid = tids.get(span.name, "0")
        start = span.start_virtual
        end = span.end_virtual if span.end_virtual is not None else start
        ts = json_value(start * _US, _COMPACT)
        # zero-duration spans render invisibly; floor at 1 us
        dur = json_value(max((end - start) * _US, 1.0), _COMPACT)
        # an attribute named span_id or parent_id wins, as in dict.update
        args = ",".join([
            f"{encode_basestring_ascii(key)}:{json_value(value, _COMPACT)}"
            for key, value in sorted({"span_id": span.span_id,
                                      "parent_id": span.parent_id,
                                      **span.attributes}.items())])
        yield (f',{{"args":{{{args}}},"cat":{name},"dur":{dur},'
               f'"name":{name},"ph":"X","pid":{pid_text},"tid":{tid},'
               f'"ts":{ts}}}')
        parent = (tracer.get(span.parent_id)
                  if span.parent_id is not None else None)
        if parent is not None:
            # flow edge parent -> child, id = child span id (unique and
            # deterministic); parents always start no later than their
            # children in virtual time, so s precedes f
            flow = (f'"cat":"causal","id":{json_value(span.span_id, _COMPACT)}'
                    f',"name":"causal"')
            yield (f',{{{flow},"ph":"s","pid":{pid_text},'
                   f'"tid":{tids.get(parent.name, "0")},'
                   f'"ts":{json_value(parent.start_virtual * _US, _COMPACT)}}}'
                   f',{{"bp":"e",{flow},"ph":"f","pid":{pid_text},'
                   f'"tid":{tid},"ts":{ts}}}')
    yield "]}\n"


def build_trace(tracer: SpanTracer, sample_every: int = 1,
                pid: int = 1, process_name: str = "campaign") -> dict:
    """Render the tracer's chains as a Chrome trace-event JSON object.

    Returns the full top-level dict (``{"traceEvents": [...], ...}``);
    callers serialize it themselves or go through :func:`write_trace`.
    The event list is deterministic: metadata first, then spans in
    start order, each followed by the flow edge from its parent.  It is
    the parsed text :func:`write_trace` writes, so nested attribute
    values come back as JSON gives them (tuples as lists).
    """
    _summary, text = _render_trace(tracer, sample_every, pid, process_name)
    return json.loads("".join(text))


def write_trace(tracer: SpanTracer, path: Path, sample_every: int = 1,
                pid: int = 1, process_name: str = "campaign") -> dict:
    """Stream the trace's JSON text to ``path``; returns the summary.

    The file holds :func:`build_trace`'s object serialized with
    ``sort_keys`` and compact separators; that plus the deterministic
    event order make it byte-identical across runs of the same seed.
    """
    summary, text = _render_trace(tracer, sample_every, pid, process_name)
    # atomic: an interrupted export leaves the previous trace intact
    # instead of a torn JSON file no viewer can load
    with atomic_writer(Path(path)) as handle:
        handle.writelines(piece.encode() for piece in text)
    return summary
