"""Dict-building span and trace exporters: the oracle for the streamed ones.

Every span becomes a dict, every trace event a dict, and ``json.dumps``
serializes them -- the plainest reading of the two file formats.  The
tests feed the same tracer to this module and to
:meth:`repro.telemetry.spans.SpanTracer.to_jsonl` /
:func:`repro.telemetry.tracer.write_trace` and require byte-equal files.
"""

import json

from repro.telemetry.tracer import CATEGORY_TIDS, chain_roots, infected_roots

_US = 1e6


def span_dict(span):
    return {
        "span_id": span.span_id,
        "name": span.name,
        "parent_id": span.parent_id,
        "start_virtual": span.start_virtual,
        "end_virtual": span.end_virtual,
        "virtual_duration": span.virtual_duration,
        "wall_duration": span.wall_duration,
        "attributes": span.attributes,
    }


def spans_jsonl(tracer):
    """The bytes ``SpanTracer.to_jsonl`` writes."""
    return "".join(json.dumps(span_dict(span), sort_keys=True) + "\n"
                   for span in tracer.spans()).encode("utf-8")


def _sampled_roots(tracer, sample_every, roots):
    if sample_every < 1:
        raise ValueError(
            f"sample_every must be >= 1, got {sample_every!r}")
    keep = infected_roots(tracer, roots)
    phase = 1 % sample_every
    for root in sorted(set(roots.values())):
        if root % sample_every == phase:
            keep.add(root)
    return keep


def trace_dict(tracer, sample_every=1, pid=1, process_name="campaign"):
    """The Chrome trace-event object, one dict per event."""
    roots = chain_roots(tracer)
    keep = _sampled_roots(tracer, sample_every, roots)
    events = [
        {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
    ]
    for kind in sorted(CATEGORY_TIDS, key=CATEGORY_TIDS.get):
        events.append({"ph": "M", "pid": pid, "tid": CATEGORY_TIDS[kind],
                       "name": "thread_name", "args": {"name": kind}})
    exported = 0
    for span in tracer.spans():
        if roots[span.span_id] not in keep:
            continue
        exported += 1
        tid = CATEGORY_TIDS.get(span.name, 0)
        end = (span.end_virtual if span.end_virtual is not None
               else span.start_virtual)
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(sorted(span.attributes.items()))
        events.append({
            "ph": "X", "pid": pid, "tid": tid,
            "name": span.name, "cat": span.name,
            "ts": span.start_virtual * _US,
            "dur": max((end - span.start_virtual) * _US, 1.0),
            "args": args,
        })
        parent = (tracer.get(span.parent_id)
                  if span.parent_id is not None else None)
        if parent is not None:
            flow = {"cat": "causal", "name": "causal",
                    "pid": pid, "id": span.span_id}
            events.append({**flow, "ph": "s",
                           "tid": CATEGORY_TIDS.get(parent.name, 0),
                           "ts": parent.start_virtual * _US})
            events.append({**flow, "ph": "f", "bp": "e", "tid": tid,
                           "ts": span.start_virtual * _US})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "virtual (simulated seconds as microseconds)",
            "spans_recorded": len(tracer),
            "spans_exported": exported,
            "spans_dropped_at_capacity": tracer.dropped,
            "chains_total": len(set(roots.values())),
            "chains_exported": len(keep),
            "chains_infected": len(infected_roots(tracer, roots)),
            "sample_every": sample_every,
        },
    }


def trace_json(tracer, sample_every=1, pid=1, process_name="campaign"):
    """The bytes ``write_trace`` writes."""
    trace = trace_dict(tracer, sample_every=sample_every, pid=pid,
                       process_name=process_name)
    return (json.dumps(trace, sort_keys=True, indent=None,
                       separators=(",", ":")) + "\n").encode("utf-8")
