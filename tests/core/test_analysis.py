"""Exact-value tests for the analysis layer on a hand-built store."""

import pytest

from repro.core.analysis.concentration import (rank_cdf, top_malware,
                                               top_n_share)
from repro.core.analysis.prevalence import compute_prevalence
from repro.core.analysis.sizes import distinct_size_counts, size_dictionary
from repro.core.analysis.sources import (address_breakdown, host_cdf,
                                         host_concentration, top_host_share)
from repro.core.analysis.summary import summarize_collection
from repro.core.analysis.timeseries import daily_series
from repro.files.types import FileType


class TestSummary:
    def test_exact_counts(self, synthetic_store):
        summary = summarize_collection(synthetic_store, duration_days=2.0)
        assert summary.queries_issued == 2
        assert summary.responses == 12
        assert summary.downloadable_type_responses == 11
        assert summary.downloaded_responses == 10
        assert summary.malicious_responses == 6
        assert summary.unique_hosts == 8
        assert summary.responses_per_query == 6.0
        assert summary.download_success_rate == pytest.approx(10 / 11)


class TestPrevalence:
    def test_headline_fraction(self, synthetic_store):
        report = compute_prevalence(synthetic_store)
        assert report.downloadable == 10
        assert report.malicious == 6
        assert report.fraction == pytest.approx(0.6)

    def test_by_type_split(self, synthetic_store):
        report = compute_prevalence(synthetic_store)
        exe_downloadable, exe_malicious = report.by_type["executable"]
        assert (exe_downloadable, exe_malicious) == (6, 4)
        zip_downloadable, zip_malicious = report.by_type["archive"]
        assert (zip_downloadable, zip_malicious) == (4, 2)
        assert report.type_fraction(FileType.EXECUTABLE) == pytest.approx(
            4 / 6)

    def test_empty_store(self):
        from repro.core.measure.store import MeasurementStore
        report = compute_prevalence(MeasurementStore("limewire"))
        assert report.fraction == 0.0


class TestConcentration:
    def test_ranking(self, synthetic_store):
        rows = top_malware(synthetic_store)
        assert [row.name for row in rows] == ["WormA", "WormB"]
        assert rows[0].responses == 4
        assert rows[0].share == pytest.approx(4 / 6)
        assert rows[1].cumulative_share == pytest.approx(1.0)

    def test_top_n_share(self, synthetic_store):
        assert top_n_share(synthetic_store, 1) == pytest.approx(4 / 6)
        assert top_n_share(synthetic_store, 2) == pytest.approx(1.0)
        assert top_n_share(synthetic_store, 10) == pytest.approx(1.0)

    def test_top_n_share_invalid(self, synthetic_store):
        with pytest.raises(ValueError):
            top_n_share(synthetic_store, 0)

    def test_rank_cdf(self, synthetic_store):
        cdf = rank_cdf(synthetic_store)
        assert cdf == pytest.approx([4 / 6, 1.0])


class TestSources:
    def test_address_breakdown(self, synthetic_store):
        breakdown = address_breakdown(synthetic_store)
        assert breakdown.counts == {"public": 5, "private": 1}
        assert breakdown.fraction("private") == pytest.approx(1 / 6)

    def test_host_concentration_all(self, synthetic_store):
        rows = host_concentration(synthetic_store)
        assert rows[0].responses == 2  # both 1.1.1.1 and 3.3.3.3 have 2
        assert {row.responder_host for row in rows[:2]} == {
            "1.1.1.1", "3.3.3.3"}

    def test_host_concentration_per_strain(self, synthetic_store):
        rows = host_concentration(synthetic_store, "WormB")
        assert len(rows) == 1
        assert rows[0].responder_host == "3.3.3.3"
        assert rows[0].share == pytest.approx(1.0)

    def test_top_host_share(self, synthetic_store):
        assert top_host_share(synthetic_store, "WormB") == pytest.approx(1.0)
        assert top_host_share(synthetic_store) == pytest.approx(2 / 6)

    def test_host_cdf_ends_at_one(self, synthetic_store):
        cdf = host_cdf(synthetic_store)
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf == sorted(cdf)

    def test_empty(self):
        from repro.core.measure.store import MeasurementStore
        store = MeasurementStore("limewire")
        assert top_host_share(store) == 0.0
        assert host_cdf(store) == []


class TestSizes:
    def test_size_dictionary(self, synthetic_store):
        profiles = size_dictionary(synthetic_store, top_n=2, coverage=0.95)
        assert profiles[0].name == "WormA"
        assert profiles[0].common_sizes == (1000,)
        assert profiles[0].distinct_sizes == 1
        assert profiles[1].name == "WormB"
        assert set(profiles[1].common_sizes) == {2000, 2001}

    def test_coverage_cuts_tail(self, synthetic_store):
        profiles = size_dictionary(synthetic_store, top_n=2, coverage=0.5)
        assert len(profiles[1].common_sizes) == 1  # one of two sizes covers 50%

    def test_coverage_validation(self, synthetic_store):
        with pytest.raises(ValueError):
            size_dictionary(synthetic_store, coverage=0.0)

    @pytest.mark.parametrize("top_n", [0, -2])
    def test_top_n_validation(self, synthetic_store, top_n):
        # a negative slice bound would learn from all but the last
        # strains, and 0 from none
        with pytest.raises(ValueError, match="top_n"):
            size_dictionary(synthetic_store, top_n=top_n)

    def test_distinct_size_counts(self, synthetic_store):
        counts = distinct_size_counts(synthetic_store)
        assert counts == {"WormA": 1, "WormB": 2}

    def test_profile_coverage_helper(self, synthetic_store):
        profiles = size_dictionary(synthetic_store, top_n=1)
        assert profiles[0].coverage((1000,)) == pytest.approx(1.0)
        assert profiles[0].coverage((9,)) == 0.0


class TestTimeseries:
    def test_daily_points(self, synthetic_store):
        points = daily_series(synthetic_store)
        assert len(points) == 2
        day0, day1 = points
        assert day0.responses == 10
        assert day0.downloadable == 8
        assert day0.malicious == 5
        assert day1.malicious == 1
        assert day1.malicious_share == pytest.approx(1 / 2)

    def test_empty_store(self):
        from repro.core.measure.store import MeasurementStore
        assert daily_series(MeasurementStore("limewire")) == []
