"""End-to-end crash safety: SIGKILL a live campaign, resume, same bits.

The unit tests in ``tests/resilience`` prove the frame format recovers
from truncation at every byte offset; this module proves the claim at
the process level -- a real child interpreter running a real
replication campaign, killed with SIGKILL at an arbitrary moment, whose
checkpoint then resumes to a report bit-identical to an uninterrupted
run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.experiments import run_replications
from repro.core.measure.campaign import CampaignConfig
from repro.peers.profiles import GnutellaProfile
from repro.resilience import scan_frames

SEEDS = (1, 2, 3, 4, 5, 6)
PROFILE = GnutellaProfile().scaled(0.3)

CHILD_SCRIPT = """
import sys
from repro.core.experiments import run_replications
from repro.core.measure.campaign import CampaignConfig
from repro.peers.profiles import GnutellaProfile

run_replications("limewire", seeds={seeds!r},
                 config=CampaignConfig(seed=0, duration_days=0.05),
                 profile=GnutellaProfile().scaled(0.3),
                 workers=1, checkpoint={journal!r})
print("COMPLETED")
"""


def child_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def reference_report(tmp_path):
    """Uninterrupted run of the same campaign (fresh journal)."""
    journal = tmp_path / "reference.jsonl"
    report = run_replications(
        "limewire", seeds=SEEDS,
        config=CampaignConfig(seed=0, duration_days=0.05),
        profile=PROFILE, workers=1, checkpoint=journal)
    return report, journal


class TestSigkillMidCampaign:
    def test_resume_after_sigkill_is_bit_identical(self, tmp_path):
        journal = tmp_path / "killed.jsonl"
        script = CHILD_SCRIPT.format(seeds=SEEDS, journal=str(journal))
        child = subprocess.Popen([sys.executable, "-c", script],
                                 env=child_env(),
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        # kill as soon as at least one seed has been committed but
        # (with six seeds pending) long before the campaign finishes
        deadline = time.monotonic() + 120
        try:
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break
                if journal.exists() and \
                        journal.read_bytes().count(b"\n") >= 2:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("child never committed a seed")
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        out = child.stdout.read()
        child.stdout.close()
        child.stderr.close()
        assert b"COMPLETED" not in out, \
            "campaign finished before the kill; nothing was interrupted"

        committed = scan_frames(journal)
        done_before = [r["seed"] for r in committed.records
                       if r.get("kind") == "seed"]
        assert done_before, "kill landed before any seed committed"
        assert len(done_before) < len(SEEDS)

        # resume in this process: recorded seeds are reused, the rest
        # computed fresh -- and the merged report matches a run that
        # was never interrupted, bit for bit
        resumed = run_replications(
            "limewire", seeds=SEEDS,
            config=CampaignConfig(seed=0, duration_days=0.05),
            profile=PROFILE, workers=1, checkpoint=journal)
        reference, ref_journal = reference_report(tmp_path)
        assert resumed.completed_seeds == reference.completed_seeds
        for name, summary in reference.metrics.items():
            assert resumed.metrics[name].values == summary.values, name

        # journal-level identity: the seed records (checksummed frames)
        # match the uninterrupted journal's
        resumed_scan = scan_frames(journal)
        ref_scan = scan_frames(ref_journal)
        assert [r for r in resumed_scan.records
                if r.get("kind") == "seed"] == \
            [r for r in ref_scan.records if r.get("kind") == "seed"]

        # committed seeds were reused, not recomputed: their records
        # are literally the pre-kill bytes
        resumed_seeds = [r["seed"] for r in resumed_scan.records
                         if r.get("kind") == "seed"]
        assert resumed_seeds[:len(done_before)] == done_before

    def test_sigkill_mid_append_torn_line_recovers(self, tmp_path):
        # deterministic variant: emulate a kill landing mid-write by
        # truncating the final record to a fragment, then resume
        reference, ref_journal = reference_report(tmp_path)
        torn = tmp_path / "torn.jsonl"
        data = ref_journal.read_bytes()
        torn.write_bytes(data[: int(len(data) * 0.8)])
        resumed = run_replications(
            "limewire", seeds=SEEDS,
            config=CampaignConfig(seed=0, duration_days=0.05),
            profile=PROFILE, workers=1, checkpoint=torn)
        for name, summary in reference.metrics.items():
            assert resumed.metrics[name].values == summary.values, name
        assert scan_frames(torn).healthy


def digested_campaign(seed):
    """(EventDigest, store sha256) for one tiny campaign -- picklable."""
    from repro.core.measure.campaign import (CampaignConfig,
                                             run_limewire_campaign)
    from repro.devtools.digest import EventDigest
    from repro.peers.profiles import GnutellaProfile
    from repro.telemetry import CampaignTelemetry

    digest = EventDigest()
    telemetry = CampaignTelemetry()
    telemetry.kernel.on_event = digest.on_event
    result = run_limewire_campaign(
        CampaignConfig(seed=seed, duration_days=0.05),
        profile=GnutellaProfile().scaled(0.3), telemetry=telemetry)
    return digest.hexdigest(), result.store.content_digest()


class TestSupervisedBitIdentity:
    def test_supervised_digests_match_in_process(self):
        # the acceptance bar: a supervised worker's campaign is the
        # same campaign -- full kernel event stream (EventDigest) and
        # collected bytes (measurement-store sha256), not just the
        # headline metrics
        from repro.resilience import SupervisionPolicy, supervised_map

        seeds = [1, 2]
        expected = [digested_campaign(seed) for seed in seeds]
        supervised = supervised_map(
            digested_campaign, seeds, workers=2,
            policy=SupervisionPolicy(deadline_s=300, stall_timeout_s=30))
        assert supervised == expected

