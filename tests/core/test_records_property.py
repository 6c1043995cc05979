"""Property tests: record persistence is lossless for arbitrary content,
and the store's encoding and selections match their plain definitions."""

import json
from dataclasses import asdict, fields

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis.summary import summarize_collection
from repro.core.analysis.timeseries import DailyPoint, daily_series
from repro.core.measure.records import ResponseRecord
from repro.core.measure.store import MeasurementStore
from repro.files.types import TYPE_EXTENSIONS, type_for_extension

_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=60)
#: text that always carries characters outside ASCII (escaped on disk)
_non_ascii = st.text(
    alphabet=st.characters(min_codepoint=0x80,
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=20)
#: finite floats of any magnitude, subnormals and +-1e308 included
_float = st.floats(allow_nan=False, allow_infinity=False)
_extensions = sorted({extension for extensions in TYPE_EXTENSIONS.values()
                      for extension, _ in extensions})
#: known extensions in any case, plus ones no type claims
_extension = st.one_of(
    st.sampled_from(_extensions),
    st.sampled_from(_extensions).map(str.upper),
    st.sampled_from(["", "EXE.", "mp3x", "z ip", "tar.gz", "ZiP"]),
    _text)


@st.composite
def records(draw):
    filename = draw(st.one_of(
        _text, _non_ascii,
        st.tuples(_text, _extension).map(".".join)))
    record = ResponseRecord(
        network=draw(st.sampled_from(["limewire", "openft"])),
        time=draw(st.one_of(
            st.floats(min_value=0, max_value=1e7,
                      allow_nan=False, allow_infinity=False),
            st.floats(min_value=0, allow_nan=False, allow_infinity=False))),
        query=draw(st.one_of(_text, _non_ascii)),
        responder_host=draw(st.sampled_from(
            ["1.2.3.4", "192.168.0.7", "10.9.8.7", "203.0.113.5"])),
        responder_port=draw(st.integers(min_value=0, max_value=65535)),
        responder_key=draw(_text),
        filename=filename,
        size=draw(st.integers(min_value=0, max_value=2**40)),
        content_id=draw(_text),
        push_needed=draw(st.booleans()),
        busy=draw(st.booleans()),
        vendor=draw(st.sampled_from(["LIME", "BEAR", "GIFT", "", "Ω€"])),
        query_time=draw(st.one_of(st.just(-1.0), _float)),
    )
    record.download_attempted = draw(st.booleans())
    record.downloaded = draw(st.booleans())
    record.download_outcome = draw(st.one_of(
        st.sampled_from(["", "success", "offline", "timeout", "truncated",
                         "corrupt"]), _non_ascii))
    record.malware_name = draw(st.one_of(st.none(), _text, _non_ascii))
    return record


def asdict_json(record: ResponseRecord) -> str:
    """The store's line format as first defined: ``asdict`` plus dumps."""
    return json.dumps(asdict(record), separators=(",", ":"), sort_keys=True)


def is_archive_or_exe(record: ResponseRecord) -> bool:
    """The type test through ``type_for_extension``."""
    return type_for_extension(record.extension).counted_as_downloadable


@given(records())
@settings(max_examples=150, deadline=None)
def test_json_roundtrip_lossless(record):
    assert ResponseRecord.from_json(record.to_json()) == record


@given(records())
@settings(max_examples=300, deadline=None)
def test_to_json_matches_asdict_encoding(record):
    assert record.to_json() == asdict_json(record)


class _Str(str):
    """A str subclass, which ``json_value`` hands to ``json.dumps``."""


#: exact scalars, off their declared field types included (ints and
#: floats in bool fields, bools and floats in int fields, ints in float
#: fields), and a subclass
_odd_scalar = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0,
                     0.0, 1e16, -1e16, 1e-300, 5e-324, 1.5]),
    st.floats(),
    st.integers(min_value=-2**70, max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(alphabet="\x00\x1f\x7f\u2028\u2029\"\\/é€😀a",
            max_size=8),
    st.text(max_size=12),
    st.text(max_size=8).map(_Str))


@given(records(), st.dictionaries(
    st.sampled_from([field.name for field in fields(ResponseRecord)]),
    _odd_scalar, max_size=6))
@settings(max_examples=400, deadline=None)
def test_to_json_spells_every_value_as_json_dumps(record, overrides):
    """NaN, infinities, -0.0, 1e16, control characters, U+2028, None and
    values off their declared type all come out as ``json.dumps`` of
    ``asdict`` writes them."""
    for name, value in overrides.items():
        setattr(record, name, value)
    assert record.to_json() == asdict_json(record)


@given(records())
@settings(max_examples=100, deadline=None)
def test_derived_fields_total(record):
    # derived properties never raise, whatever the filename looks like
    assert isinstance(record.extension, str)
    assert isinstance(record.file_type, str)
    assert isinstance(record.counts_as_downloadable_type, bool)
    assert record.counts_as_downloadable_type == is_archive_or_exe(record)
    assert record.day >= 0


@given(st.lists(records(), max_size=20))
@settings(max_examples=50, deadline=None)
def test_store_roundtrip_lossless(tmp_path_factory, record_list):
    store = MeasurementStore("limewire")
    for record in record_list:
        record.network = "limewire"
        store.add(record)
    path = tmp_path_factory.mktemp("prop") / "store.jsonl"
    store.save(path)
    lines = path.read_bytes().split(b"\n")
    assert lines[1:] == [asdict_json(record).encode("ascii")
                         for record in record_list] + [b""]
    loaded = MeasurementStore.load(path)
    assert loaded.records() == store.records()


def _daily_points(records):
    """F3 over every record, day by day."""
    by_day = {}
    for record in records:
        by_day.setdefault(record.day, []).append(record)
    points = []
    for day in range(max(by_day) + 1 if by_day else 0):
        day_records = by_day.get(day, [])
        downloadable = [record for record in day_records
                        if is_archive_or_exe(record) and record.downloaded]
        points.append(DailyPoint(
            day=day, responses=len(day_records),
            downloadable=len(downloadable),
            malicious=sum(record.malware_name is not None
                          for record in downloadable)))
    return points


def _check_selections(store, every):
    typed = [record for record in every if is_archive_or_exe(record)]
    downloadable = [record for record in typed if record.downloaded]
    assert store.downloadable_type_responses() == typed
    assert store.downloadable_responses() == downloadable
    assert store.malicious_responses() == [
        record for record in downloadable if record.malware_name is not None]
    assert store.clean_downloadable_responses() == [
        record for record in downloadable if record.malware_name is None]
    summary = summarize_collection(store, duration_days=1.0)
    assert summary.responses == len(every)
    assert summary.downloadable_type_responses == len(typed)
    assert summary.downloaded_responses == len(downloadable)
    assert summary.malicious_responses == sum(
        record.malware_name is not None for record in downloadable)
    assert daily_series(store) == _daily_points(every)


@given(st.lists(st.tuples(records(),
                          st.floats(min_value=0, max_value=10 * 86400),
                          st.booleans(),
                          st.one_of(st.none(), st.just("W32.Late"))),
                max_size=30))
@settings(max_examples=150, deadline=None)
def test_selections_match_brute_force(rows):
    """The selections, the archive/exe index and T1/F3 equal a filter
    over all records, before and after the outcome flags change as the
    downloader changes them after ``add``: flags are read when a
    selection is called."""
    store = MeasurementStore("limewire")
    for record, time, _, _ in rows:
        record.network = "limewire"
        record.time = time  # F3 spans every day up to the last
        store.add(record)
    every = [record for record, _, _, _ in rows]
    _check_selections(store, every)
    for record, _, downloaded, malware_name in rows:
        record.downloaded = downloaded
        record.malware_name = malware_name
    _check_selections(store, every)
