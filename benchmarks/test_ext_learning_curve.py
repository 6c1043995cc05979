"""Extension: how little data the size filter needs.

Trains the dictionary on growing day-prefixes of a 3-virtual-day
campaign and evaluates out-of-time on the remaining days: one day of
scanning already yields >98% detection.
"""

from repro.core.filtering.learning import learning_curve
from repro.core.measure import CampaignConfig, run_limewire_campaign
from repro.peers.profiles import GnutellaProfile

from .conftest import STUDY_SEED


def test_ext_learning_curve(benchmark):
    def run():
        result = run_limewire_campaign(
            CampaignConfig(seed=STUDY_SEED, duration_days=3.0),
            profile=GnutellaProfile().scaled(0.5))
        return learning_curve(result.store)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("train-days  train-malicious  dict-size  detection  FP")
    for point in points:
        print(f"{point.train_days:10d}  {point.train_malicious:15d}"
              f"  {point.dictionary_size:9d}"
              f"  {point.report.detection_rate:9.1%}"
              f"  {point.report.false_positive_rate:.2%}")
    assert points
    assert points[0].report.detection_rate >= 0.98
    assert all(point.report.false_positive_rate <= 0.01
               for point in points)
