"""Tests for response records."""

import pytest

from repro.core.measure.records import ResponseRecord

from .conftest import make_record


class TestDerivedFields:
    def test_extension(self):
        assert make_record(filename="a_b.EXE").extension == "exe"
        assert make_record(filename="noext").extension == ""

    def test_file_type(self):
        assert make_record(filename="x.zip").file_type == "archive"
        assert make_record(filename="x.mp3").file_type == "audio"

    def test_counts_as_downloadable_type(self):
        assert make_record(filename="x.exe").counts_as_downloadable_type
        assert make_record(filename="x.rar").counts_as_downloadable_type
        assert not make_record(filename="x.avi").counts_as_downloadable_type

    def test_is_malicious(self):
        assert make_record(malware="W32.X").is_malicious
        assert not make_record().is_malicious

    def test_day(self):
        assert make_record(time=10.0).day == 0
        assert make_record(time=86_400.0).day == 1
        assert make_record(time=200_000.0).day == 2


class TestPersistence:
    def test_json_roundtrip(self):
        record = make_record(malware="W32.X", filename="café.exe")
        restored = ResponseRecord.from_json(record.to_json())
        assert restored == record

    def test_json_roundtrip_defaults(self):
        record = make_record(downloaded=False)
        record.download_attempted = False
        restored = ResponseRecord.from_json(record.to_json())
        assert restored == record
        assert not restored.downloaded


class TestFootprint:
    def test_record_is_slotted(self):
        record = make_record()
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1
