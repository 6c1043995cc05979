"""PYTHONHASHSEED variance: the linter's heuristics cannot prove hash
independence, so prove it empirically.

Each fresh subprocess runs the identical short campaign twice and
prints both runs' kernel event digests, event counts, store sha256s and
headline metrics.  The two runs of one process must match: a first run
that differs from the second is state leaking from one campaign into
the next (a fresh process is the only place the first run is really
first).  The subprocesses run under different hash seeds and must print
byte-identical summaries.  This is the regression test for the class of
bug fixed in ``openft/nodes.py`` -- builtin ``hash()`` of an endpoint
string leaking into protocol ids.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import json, sys
from repro.devtools.digest import run_digest_campaign

network = sys.argv[1]
runs = []
for _ in range(2):
    digest, events, metrics, store_sha = run_digest_campaign(
        network, seed=5, days=0.05, scale=0.3)
    runs.append({"event_digest": digest, "events": events,
                 "store_sha256": store_sha, "metrics": metrics})
print(json.dumps(runs, sort_keys=True))
"""


def run_campaign_summary(network: str, hash_seed: int) -> list:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, network],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("network", ["limewire", "openft"])
def test_campaign_invariant_under_hash_seed(network):
    first = run_campaign_summary(network, hash_seed=0)
    second = run_campaign_summary(network, hash_seed=31337)
    assert first[0]["events"] > 0
    assert first[0] == first[1], (
        f"{network}: the second campaign of one process differs from "
        f"the first: {first[0]} != {first[1]}")
    assert first == second, (
        f"{network} campaign varies with PYTHONHASHSEED: "
        f"{first} != {second}")
