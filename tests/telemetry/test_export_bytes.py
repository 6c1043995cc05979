"""The span and trace files keep their bytes.

Two checks: committed sha256 digests of what ``write_outputs`` writes for
one small campaign per network (recorded before the exporters were
rewritten to stream their text), and byte equality with the dict-building
oracle in :mod:`tests.telemetry.export_oracle` over random tracers.
"""

import hashlib
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measure.campaign import (CampaignConfig,
                                         run_limewire_campaign,
                                         run_openft_campaign)
from repro.peers.profiles import GnutellaProfile, OpenFTProfile
from repro.telemetry import CampaignTelemetry
from repro.telemetry.spans import SpanTracer
from repro.telemetry.tracer import CATEGORY_TIDS, build_trace, write_trace

from . import export_oracle

#: (runner, profile, duration_days, trace sha256, spans sha256 with every
#: ``wall_duration`` written as 0.0); seed 11, profile scaled by 0.35
DIGESTS = {
    "limewire": (
        run_limewire_campaign, GnutellaProfile, 0.02,
        "db1effa5b4e1de505b309ba2fbb367d7d4680fdbd7e08a7ea8e3da51d9b3263f",
        "e516cda41dc4151e4fb24bd67b381dad0076d9f48540942a8cfff020b4790574"),
    "openft": (
        run_openft_campaign, OpenFTProfile, 0.05,
        "c6c11bb9e26ac6d0c398c401374164ae07910e88030b1d05648bdf7f61fd7df2",
        "bf73e8c5dc3f9b2ca1453488c288c52650234192af104af56fc79c38e4340e2f"),
}


def _without_wall_durations(jsonl):
    """Each line with its ``wall_duration`` (the last key) set to 0.0."""
    lines = []
    for line in jsonl.splitlines(keepends=True):
        head, key, _ = line.rpartition(b'"wall_duration": ')
        assert key, line
        lines.append(head + key + b"0.0}\n")
    return b"".join(lines)


class TestCommittedDigests:
    def test_campaign_exports_match(self, tmp_path):
        for name, (run, profile, days, trace_sha, spans_sha) in (
                DIGESTS.items()):
            telemetry = CampaignTelemetry()
            run(CampaignConfig(seed=11, duration_days=days),
                profile().scaled(0.35), telemetry=telemetry)
            paths = telemetry.write_outputs(tmp_path, name)
            trace = paths["trace"].read_bytes()
            spans = _without_wall_durations(paths["spans"].read_bytes())
            assert hashlib.sha256(trace).hexdigest() == trace_sha, name
            assert hashlib.sha256(spans).hexdigest() == spans_sha, name


_TEXT = st.text(st.characters()
                | st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\U0001f600'),
                max_size=6)
_FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 0.1, 2.5e-300,
                              math.nan, math.inf, -math.inf]))
_SCALARS = (st.none() | st.booleans()
            | st.integers(min_value=-2**70, max_value=2**70)
            | st.sampled_from([2**63, 2**64 + 1, -2**63 - 1])
            | _FLOATS | _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner)
                   | st.dictionaries(_TEXT, inner, max_size=3)),
    max_leaves=6)
#: names the keyword arguments of ``start`` / ``end`` themselves use
_RESERVED = {"name", "virtual_time", "parent", "span"}
_KEYS = (st.sampled_from(["span_id", "parent_id", "malware", "clean",
                          "query", "outcome"])
         | _TEXT.filter(lambda key: key not in _RESERVED))
_ATTRIBUTES = st.dictionaries(
    _KEYS, _VALUES | st.sampled_from([True, False, None, "W32.Gnuman"]),
    max_size=4)
_NAMES = st.sampled_from(sorted(CATEGORY_TIDS)) | _TEXT
_TIMES = st.integers(min_value=0, max_value=10**6) | _FLOATS


@st.composite
def tracers(draw):
    """A tracer after random starts, ends and drops."""
    tracer = SpanTracer(capacity=draw(st.integers(1, 12)))
    started = []
    for _ in range(draw(st.integers(0, 16))):
        parent = draw(st.sampled_from(["none", "span", "id", "dangling"]))
        if parent == "span" and started:
            parent = draw(st.sampled_from(started))
        elif parent == "id" and started:
            parent = draw(st.sampled_from(started)).span_id
        elif parent == "dangling":
            parent = draw(st.integers(1, 40))
        else:
            parent = None
        span = tracer.start(draw(_NAMES), draw(_TIMES), parent=parent,
                            **draw(_ATTRIBUTES))
        if span is not None:
            started.append(span)
    for span in started:
        if draw(st.booleans()):
            tracer.end(span, draw(_TIMES), **draw(_ATTRIBUTES))
    return tracer


class TestOracle:
    @given(tracer=tracers(), sample_every=st.integers(1, 5),
           pid=st.integers(1, 3), process_name=_TEXT)
    @settings(max_examples=100, deadline=None)
    def test_files_equal_oracle_bytes(self, tmp_path_factory, tracer,
                                      sample_every, pid, process_name):
        directory = tmp_path_factory.mktemp("export")
        spans_path = directory / "spans.jsonl"
        assert tracer.to_jsonl(spans_path) == len(tracer)
        assert spans_path.read_bytes() == export_oracle.spans_jsonl(tracer)
        trace_path = directory / "trace.json"
        summary = write_trace(tracer, trace_path, sample_every=sample_every,
                              pid=pid, process_name=process_name)
        expected = export_oracle.trace_json(
            tracer, sample_every=sample_every, pid=pid,
            process_name=process_name)
        assert trace_path.read_bytes() == expected
        assert summary == export_oracle.trace_dict(
            tracer, sample_every=sample_every)["otherData"]
        # the dict API re-serializes to the same bytes (``/trace.json``)
        trace = build_trace(tracer, sample_every=sample_every, pid=pid,
                            process_name=process_name)
        assert (json.dumps(trace, sort_keys=True, separators=(",", ":"))
                + "\n").encode() == expected
