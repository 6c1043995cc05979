"""The overhead gate's verdict rule (``benchmarks/overhead.py``), on
synthetic per-pair overheads in percent against a 10% budget."""

from benchmarks.overhead import MAX_PAIRS, START_PAIRS, verdict


def test_upper_quartile_under_budget_passes():
    assert verdict([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 10.0) == "pass"


def test_median_over_budget_fails():
    assert verdict([8.0, 11.0, 12.0, 13.0, 14.0, 30.0], 10.0) == "fail"


def test_undecided_until_more_pairs_pass():
    overheads = [-5.0, 0.0, 2.0, 4.0, 15.0, 20.0]
    assert len(overheads) == START_PAIRS
    assert verdict(overheads, 10.0) is None  # q3 over, median under
    overheads.append(3.0)
    assert verdict(overheads, 10.0) == "pass"  # q3 now 9.5


def test_median_decides_at_the_cap():
    lows = [-6.0 + 2 * index for index in range(MAX_PAIRS // 2)]
    highs = [11.0 + 2 * index for index in range(MAX_PAIRS // 2)]
    overheads = [value for pair in zip(lows, highs) for value in pair]
    assert len(overheads) == MAX_PAIRS
    assert verdict(overheads[:-1], 10.0) is None
    assert verdict(overheads, 10.0) == "pass"  # median 9.5, q3 over 10
    assert verdict([value + 1.0 for value in overheads], 10.0) == "fail"
