"""Golden campaign fixtures: same seed, same bits, against committed values.

A small matrix of scaled-down campaigns (``DAYS`` virtual days at
population scale ``SCALE``) covering both networks, telemetry on and
off, and an armed fault plan.  Each entry records
the measurement store's sha256 and the exact headline metrics; the
telemetry entries add the kernel event-stream digest and event count,
the fault entry adds the injector tallies, and the two telemetry-off entries the sha256 of the
``repro-study analyze`` report (all 14 tables) of their saved store.
``golden_campaigns.json`` holds the committed values and
``test_golden.py`` demands every entry exactly.

Any change to shared code that moves a single event, response or
metric shows up here, which a run-against-run check cannot see.  When
such a change is intended, regenerate the file and put the printed
old -> new headline metrics in the change description::

    PYTHONPATH=src python -m tests.integration.golden
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict

import numpy

from repro.cli import main as cli_main
from repro.core.experiments import HEADLINE_METRICS
from repro.core.measure.campaign import (CampaignConfig, campaign_runner,
                                         default_profile)
from repro.devtools.digest import run_digest_campaign
from repro.faults import FaultPlan, LossBurst

FIXTURE = Path(__file__).with_name("golden_campaigns.json")
REGENERATE = "PYTHONPATH=src python -m tests.integration.golden"
DAYS = 0.05
SCALE = 0.3
LOSS_BURST = FaultPlan(clauses=(LossBurst(start_s=100.0, end_s=2000.0,
                                          loss_rate=0.25),))


@dataclass(frozen=True)
class Case:
    """One campaign of the matrix.

    ``kind`` is ``digest`` (telemetry on, event digest), ``bare``
    (telemetry off) or ``faults`` (telemetry off, ``LOSS_BURST``
    armed).
    """

    network: str
    seed: int
    kind: str

    @property
    def name(self) -> str:
        return f"{self.network}-seed{self.seed}-{self.kind}"


MATRIX = (
    Case("limewire", 5, "digest"), Case("limewire", 23, "digest"),
    Case("openft", 5, "digest"), Case("openft", 23, "digest"),
    Case("limewire", 9, "bare"), Case("openft", 9, "bare"),
    Case("limewire", 13, "faults"),
)


def _headline(network: str, result) -> Dict[str, float]:
    return {name: fn(result)
            for name, fn in HEADLINE_METRICS[network].items()}


def _analyze_sha256(store) -> str:
    """sha256 of ``repro-study analyze``'s stdout for ``store`` saved."""
    report = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{store.network}.jsonl"
        store.save(path)
        with contextlib.redirect_stdout(report):
            code = cli_main(["analyze", str(path), "--days", str(DAYS)])
    if code != 0:
        raise RuntimeError(f"repro-study analyze exited with {code}")
    return hashlib.sha256(report.getvalue().encode("utf-8")).hexdigest()


def fingerprint(case: Case) -> Dict[str, object]:
    """Run ``case`` and return its entry, in JSON form."""
    if case.kind == "digest":
        digest, events, metrics, store_sha = run_digest_campaign(
            case.network, case.seed, days=DAYS, scale=SCALE)
        entry: Dict[str, object] = {
            "event_digest": digest, "events": events,
            "store_sha256": store_sha, "metrics": metrics}
    else:
        config = CampaignConfig(seed=case.seed, duration_days=DAYS)
        if case.kind == "faults":
            config = replace(config, fault_plan=LOSS_BURST)
        result = campaign_runner(case.network)(
            config, profile=default_profile(case.network, SCALE))
        entry = {"store_sha256": result.store.content_digest(),
                 "metrics": _headline(case.network, result)}
        if case.kind == "faults":
            entry["injected"] = dict(result.faults.injected)
        if case.kind == "bare":
            entry["analyze_sha256"] = _analyze_sha256(result.store)
    # the JSON round trip gives the exact form a loaded fixture has
    return json.loads(json.dumps(entry, sort_keys=True))


def versions() -> Dict[str, str]:
    """The interpreter and numpy versions this process runs."""
    return {"python": platform.python_version(),
            "numpy": numpy.__version__}


def load_fixture() -> Dict[str, object]:
    """The committed fixture file."""
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def main() -> int:
    """Recompute every entry, rewrite the file, print what changed."""
    old = load_fixture()["entries"] if FIXTURE.exists() else {}
    entries = {}
    changed = 0
    for case in MATRIX:
        entry = entries[case.name] = fingerprint(case)
        before = old.get(case.name)
        if entry == before:
            continue
        changed += 1
        print(f"{case.name}: {'changed' if before else 'new'}")
        old_metrics = before["metrics"] if before else {}
        for metric, value in entry["metrics"].items():
            print(f"    {metric}: {old_metrics.get(metric)!r} -> {value!r}")
    for name in sorted(set(old) - set(entries)):
        changed += 1
        print(f"{name}: removed")
    payload = {"days": DAYS, "scale": SCALE, **versions(),
               "regenerate": REGENERATE, "entries": entries}
    FIXTURE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"{changed} changed entries of {len(entries)}; wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
