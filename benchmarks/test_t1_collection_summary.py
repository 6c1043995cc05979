"""T1: regenerate the data-collection summary table."""

from repro.core.analysis.summary import summarize_collection
from repro.core.reports import render_t1_summary

from .conftest import STUDY_DAYS


def test_t1_collection_summary(benchmark, limewire, openft):
    stores = [limewire.store, openft.store]
    summary = benchmark(summarize_collection, limewire.store, STUDY_DAYS)
    print()
    print(render_t1_summary(stores, STUDY_DAYS))
    assert summary.responses == len(limewire.store)
    assert summary.queries_issued > 0
