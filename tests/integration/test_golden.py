"""Every golden campaign reproduces its committed fixture exactly.

The matrix, the fixture file and the regeneration command live in
:mod:`tests.integration.golden`.
"""

import json

import pytest

from .golden import MATRIX, REGENERATE, fingerprint, load_fixture, versions

FIXTURE = load_fixture()


def test_fixture_covers_exactly_the_matrix():
    assert sorted(FIXTURE["entries"]) == sorted(case.name for case in MATRIX)


@pytest.mark.parametrize("case", MATRIX, ids=lambda case: case.name)
def test_campaign_matches_golden_fixture(case):
    expected = FIXTURE["entries"][case.name]
    actual = fingerprint(case)
    recorded = {key: FIXTURE[key] for key in ("python", "numpy")}
    assert actual == expected, (
        f"golden campaign {case.name} diverged from its fixture\n"
        f"  expected: {json.dumps(expected, sort_keys=True)}\n"
        f"  actual:   {json.dumps(actual, sort_keys=True)}\n"
        f"  fixture generated with {recorded}, running {versions()}\n"
        f"  if the change is intended, regenerate with: {REGENERATE}")
