"""Tests for the measurement store."""

import hashlib
import os
import re

import pytest

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


class TestAtomicSave:
    """A save either completes or leaves the previous file untouched."""

    def _previous(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"previous bytes\n")
        return path

    def test_write_failing_partway_keeps_previous_file(self, synthetic_store,
                                                       tmp_path):
        path = self._previous(tmp_path)
        # the sixth record fails to encode, after five lines were written
        broken = synthetic_store.records()[5]

        def fail():
            raise OSError(28, "no space left on device")
        broken.to_json = fail
        with pytest.raises(OSError):
            synthetic_store.save(path)
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
