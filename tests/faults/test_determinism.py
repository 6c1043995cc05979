"""Determinism guarantees of the chaos harness.

Two properties the whole PR rests on:

* **faults-off identity**: a campaign with ``fault_plan=None`` and one
  with an empty plan are byte-identical -- arming the harness without
  clauses costs nothing and perturbs nothing;
* **faulted replay**: a campaign under a real fault plan is itself a
  pure function of the seed, including across interpreter boundaries
  and ``PYTHONHASHSEED`` values -- same seed, same kernel event stream
  (``EventDigest``), same lost messages, same crashed peers, same
  tampered downloads, on both networks.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.measure import CampaignConfig
from repro.core.measure.campaign import run_limewire_campaign
from repro.faults import FaultPlan
from repro.peers.profiles import GnutellaProfile

REPO_ROOT = Path(__file__).resolve().parents[2]


def store_digest(result) -> str:
    digest = hashlib.sha256()
    for record in result.store:
        digest.update(json.dumps(record.to_json(), sort_keys=True).encode())
    return digest.hexdigest()


def test_empty_plan_is_identical_to_no_plan():
    profile = GnutellaProfile().scaled(0.3)
    off = run_limewire_campaign(
        CampaignConfig(seed=5, duration_days=0.05, fault_plan=None),
        profile=profile)
    empty = run_limewire_campaign(
        CampaignConfig(seed=5, duration_days=0.05, fault_plan=FaultPlan()),
        profile=profile)
    assert len(off.store) > 0
    assert store_digest(off) == store_digest(empty)
    assert empty.faults is None  # nothing was armed


_SCRIPT = """
import json, sys
from repro.core.measure import CampaignConfig
from repro.core.measure.campaign import campaign_runner, default_profile
from repro.devtools.digest import EventDigest
from repro.faults import FaultPlan
from repro.simnet.clock import days
from repro.telemetry import CampaignTelemetry

network = sys.argv[1]
duration = 0.05
plan = FaultPlan.envelope("severe", days(duration))
digest = EventDigest()
telemetry = CampaignTelemetry()
telemetry.kernel.on_event = digest.on_event
result = campaign_runner(network)(
    CampaignConfig(seed=5, duration_days=duration, fault_plan=plan),
    profile=default_profile(network, 0.3), telemetry=telemetry)
print(json.dumps({
    "event_digest": digest.hexdigest(),
    "events": digest.events,
    "store_sha256": result.store.content_digest(),
    "records": len(result.store),
    "injected": dict(sorted(result.faults.injected.items())),
    "drop_causes": dict(sorted(result.world.transport.drop_causes.items())),
}, sort_keys=True))
"""


def run_faulted_campaign(network: str, hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, network],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
        timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_faulted_campaign_replays_bit_identically():
    for network in ("limewire", "openft"):
        first = run_faulted_campaign(network, hash_seed=0)
        second = run_faulted_campaign(network, hash_seed=31337)
        assert first["records"] > 0
        assert first["injected"]  # the severe plan actually fired
        assert first == second, (
            f"faulted {network} campaign varies across interpreters: "
            f"{first} != {second}")
