"""Tests for the Zipf sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.zipf import ZipfSampler
from repro.simnet.rng import SeededStream


class _ScriptedStream:
    """Hands out fixed ``random()`` values in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _numpy_cdf(n, alpha):
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), alpha)
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


class TestZipfSampler:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(50, 0.9)
        total = sum(sampler.probability(rank) for rank in range(1, 51))
        assert total == pytest.approx(1.0)

    def test_probabilities_monotonic(self):
        sampler = ZipfSampler(50, 0.9)
        probabilities = [sampler.probability(rank) for rank in range(1, 51)]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, 0.0)
        for rank in range(1, 11):
            assert sampler.probability(rank) == pytest.approx(0.1)

    def test_sample_ranks_in_range(self):
        sampler = ZipfSampler(20, 1.0)
        stream = SeededStream(1, "z")
        for rank in sampler.sample(stream, 500):
            assert 1 <= rank <= 20

    def test_sample_skews_to_popular(self):
        sampler = ZipfSampler(100, 1.0)
        stream = SeededStream(2, "z")
        ranks = sampler.sample(stream, 5000)
        assert ranks.count(1) > 5 * max(1, ranks.count(50))

    def test_sample_empirical_matches_probability(self):
        sampler = ZipfSampler(10, 0.8)
        stream = SeededStream(3, "z")
        ranks = sampler.sample(stream, 20000)
        empirical = ranks.count(1) / len(ranks)
        assert empirical == pytest.approx(sampler.probability(1), abs=0.02)

    def test_sample_one(self):
        sampler = ZipfSampler(5, 1.0)
        stream = SeededStream(4, "z")
        assert 1 <= sampler.sample_one(stream) <= 5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0)
        with pytest.raises(ValueError):
            ZipfSampler(10, -0.1)
        sampler = ZipfSampler(10, 1.0)
        with pytest.raises(ValueError):
            sampler.probability(0)
        with pytest.raises(ValueError):
            sampler.probability(11)
        with pytest.raises(ValueError):
            sampler.sample(SeededStream(1, "z"), -1)

    @given(n=st.integers(1, 60), alpha=st.floats(0.0, 3.0), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ranks_equal_numpy_searchsorted(self, n, alpha, data):
        # the reference is a numpy search over the sampler's own CDF; the
        # draws include its exact entries, 0.0 and the largest float < 1
        sampler = ZipfSampler(n, alpha)
        cdf = np.array(sampler._cdf)
        draws = data.draw(st.lists(
            st.sampled_from(sampler._cdf)
            | st.sampled_from([0.0, math.nextafter(1.0, 0.0)])
            | st.floats(0.0, 1.0, exclude_max=True),
            min_size=1, max_size=20))
        ranks = sampler.sample(_ScriptedStream(draws), len(draws))
        expected = np.searchsorted(cdf, np.array(draws), side="left") + 1
        assert ranks == [int(rank) for rank in expected]


def _assert_within_ulps(sampler, reference, ulps):
    for ours, theirs in zip(sampler._cdf, reference.tolist(), strict=True):
        assert abs(ours - theirs) <= ulps * math.ulp(theirs)


class TestAgainstNumpyCdf:
    """The builtin running sum against numpy's ``cumsum`` of the weights.

    numpy picks its ``power`` kernel from the host's SIMD features, so
    the two CDFs may differ in the last bits of some entries (at most
    2 ULP at the catalogs' alpha = 0.85), never in a drawn rank.
    """

    @pytest.mark.parametrize("n, alpha", [(2000, 0.85), (1500, 0.85)])
    def test_catalog_cdfs_within_4_ulp(self, n, alpha):
        _assert_within_ulps(ZipfSampler(n, alpha), _numpy_cdf(n, alpha), 4)

    @given(n=st.integers(1, 3000), alpha=st.floats(0.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_cdfs_within_4_ulp(self, n, alpha):
        _assert_within_ulps(ZipfSampler(n, alpha), _numpy_cdf(n, alpha), 4)

    @pytest.mark.parametrize("n, alpha", [(2000, 0.85), (1500, 0.85)])
    def test_catalog_draws_pick_the_same_ranks(self, n, alpha):
        stream = SeededStream(11, "zipf-oracle")
        draws = np.array([stream.random() for _ in range(100_000)])
        ranks = ZipfSampler(n, alpha).sample(_ScriptedStream(draws.tolist()),
                                             len(draws))
        expected = np.searchsorted(_numpy_cdf(n, alpha), draws,
                                   side="left") + 1
        assert ranks == expected.tolist()
