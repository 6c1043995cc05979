"""Tests for the measurement store."""

import hashlib
import os
import re

import pytest

from repro.core.measure.records import ResponseRecord
from repro.core.measure.store import MeasurementStore

from .conftest import make_record


class TestSelections:
    def test_len_and_iter(self, synthetic_store):
        assert len(synthetic_store) == 12
        assert len(list(synthetic_store)) == 12

    def test_downloadable_responses(self, synthetic_store):
        assert len(synthetic_store.downloadable_responses()) == 10

    def test_malicious_responses(self, synthetic_store):
        assert len(synthetic_store.malicious_responses()) == 6

    def test_clean_downloadable(self, synthetic_store):
        assert len(synthetic_store.clean_downloadable_responses()) == 4

    def test_unique_hosts(self, synthetic_store):
        assert synthetic_store.unique_hosts() == 8

    def test_unique_contents(self, synthetic_store):
        assert synthetic_store.unique_contents() == 9

    def test_by_day(self, synthetic_store):
        days = synthetic_store.by_day()
        assert set(days) == {0, 1}
        assert len(days[1]) == 2

    def test_records_predicate(self, synthetic_store):
        mp3s = synthetic_store.records(lambda r: r.extension == "mp3")
        assert len(mp3s) == 1

    def test_network_mismatch_rejected(self, synthetic_store):
        with pytest.raises(ValueError):
            synthetic_store.add(make_record(network="openft"))

    def test_queries_counted(self, synthetic_store):
        assert synthetic_store.queries_issued == 2


class TestPersistence:
    def test_save_load_roundtrip(self, synthetic_store, tmp_path):
        path = tmp_path / "store.jsonl"
        written = synthetic_store.save(path)
        assert written == 12
        loaded = MeasurementStore.load(path)
        assert loaded.network == "limewire"
        assert loaded.queries_issued == 2
        assert len(loaded) == 12
        assert (len(loaded.malicious_responses())
                == len(synthetic_store.malicious_responses()))
        assert loaded.records()[0] == synthetic_store.records()[0]

    def test_empty_store_roundtrip(self, tmp_path):
        store = MeasurementStore("openft")
        path = tmp_path / "empty.jsonl"
        store.save(path)
        loaded = MeasurementStore.load(path)
        assert len(loaded) == 0
        assert loaded.network == "openft"


class TestSharedStrings:
    """Equal values of the repeated string fields are one object per store."""

    FIELDS = ("query", "responder_host", "responder_key", "filename",
              "content_id", "vendor")

    @staticmethod
    def _twin_records():
        # every string is built at run time: equal values, two objects
        def record(time):
            return ResponseRecord(
                network="limewire", time=time,
                query=" ".join(["free", "music"]),
                responder_host=".".join(["8", "8", "4", "4"]),
                responder_port=6346, responder_key="".join(["ab"] * 16),
                filename="_".join(["photoshop", "crack.exe"]),
                size=1000, content_id=":".join(["urn:sha1", "X" * 32]),
                vendor="".join(["LIM", "E"]))
        first, second = record(1.0), record(2.0)
        for name in TestSharedStrings.FIELDS:
            assert getattr(first, name) is not getattr(second, name)
        return first, second

    def _assert_shared(self, first, second):
        for name in self.FIELDS:
            assert getattr(first, name) == getattr(second, name)
            assert getattr(first, name) is getattr(second, name), name

    def test_add_shares_equal_strings(self):
        store = MeasurementStore("limewire")
        store.extend(self._twin_records())
        self._assert_shared(*store.records())

    def test_load_shares_equal_strings(self, tmp_path):
        store = MeasurementStore("limewire")
        store.extend(self._twin_records())
        path = tmp_path / "store.jsonl"
        store.save(path)
        loaded = MeasurementStore.load(path)
        assert loaded.content_digest() == store.content_digest()
        self._assert_shared(*loaded.records())


class TestAtomicSave:
    """A save either completes or leaves the previous file untouched."""

    def _previous(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"previous bytes\n")
        return path

    def test_write_failing_partway_keeps_previous_file(self, synthetic_store,
                                                       tmp_path, monkeypatch):
        path = self._previous(tmp_path)
        # the sixth record fails to encode, after five lines were written
        records = synthetic_store.records()
        broken = records[5]
        encode = ResponseRecord.to_json
        encoded = []

        def fail_on_broken(record):
            if record is broken:
                raise OSError(28, "no space left on device")
            encoded.append(record)
            return encode(record)
        monkeypatch.setattr(ResponseRecord, "to_json", fail_on_broken)
        with pytest.raises(OSError):
            synthetic_store.save(path)
        assert encoded == records[:5]
        assert path.read_bytes() == b"previous bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_replace_failing_keeps_previous_file(self, synthetic_store,
                                                 tmp_path, monkeypatch):
        path = self._previous(tmp_path)

        def fail(src, dst):
            raise OSError(18, "cross-device link")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            synthetic_store.save(path)
        assert path.read_bytes() == b"previous bytes\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_save_writes_content_digest_bytes(self, synthetic_store,
                                              tmp_path):
        path = tmp_path / "store.jsonl"
        synthetic_store.save(path)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == synthetic_store.content_digest())
        assert list(tmp_path.iterdir()) == [path]


class TestMalformedStore:
    """Damaged stores raise ValueError naming the path and the line."""

    def _saved(self, store, tmp_path):
        path = tmp_path / "store.jsonl"
        store.save(path)
        return path

    def test_torn_mid_line(self, synthetic_store, tmp_path):
        path = self._saved(synthetic_store, tmp_path)
        lines = path.read_bytes().split(b"\n")
        # header + 6 whole records, then half of the 7th (line 8)
        path.write_bytes(b"\n".join(lines[:7]) + b"\n"
                         + lines[7][: len(lines[7]) // 2])
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 8:")):
            MeasurementStore.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 1:")):
            MeasurementStore.load(path)

    def test_header_without_queries_issued(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"store_network":"limewire"}\n')
        with pytest.raises(ValueError,
                           match="line 1: missing field 'queries_issued'"):
            MeasurementStore.load(path)

    @pytest.mark.parametrize("line", [
        '{"network":"limewire","bogus":1}',  # unknown and missing fields
        '[1, 2, 3]',                          # not an object
        '"a string"',
    ])
    def test_record_line_that_is_not_a_record(self, synthetic_store,
                                              tmp_path, line):
        path = self._saved(synthetic_store, tmp_path)
        lines = path.read_text().splitlines()
        lines.insert(3, line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 4:")):
            MeasurementStore.load(path)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('["limewire", 3]\n')
        with pytest.raises(ValueError, match="line 1:"):
            MeasurementStore.load(path)
