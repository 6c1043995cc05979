"""Output check: pinned digests for pool worlds, claim bands otherwise.

``reference.json`` pins, per workload and world seed, each study's
saved-store sha256 (the bytes ``MeasurementStore.save`` writes, equal to
its ``content_digest()``) and ``analyze`` stdout sha256, and
``lw-sweep``'s exact per-seed headline metrics.  Every world of a
workload's pool is pinned, and runs draw only from the pool.  A world
without a pin must land its headline metrics inside
``repro.core.chaos.CLAIM_BANDS``; those bands were calibrated on short
scale-0.5 campaigns, and a 1-day OpenFT world can fall outside them
(world 11001's ``top3_share`` is 0.45), which is why no run relies on
them.  Either way a sweep that degraded (a seed quarantined after its
retry) fails.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from workloads import sweep_seeds

__all__ = ["REFERENCE_PATH", "load_reference", "check_outputs"]

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """Pinned outputs: workload name -> world seed (str) -> outputs."""
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def _bands(network: str, headline: Dict[str, float]) -> List[str]:
    from repro.core.chaos import CLAIM_BANDS

    problems = []
    for name, (low, high) in CLAIM_BANDS[network].items():
        value = headline.get(name)
        if value is None or not low <= value <= high:
            problems.append(f"{name}={value!r} outside the claim band "
                            f"[{low}, {high}]")
    return problems


def check_outputs(workload, seed: int, outputs: dict,
                  pinned: Optional[dict]) -> Dict[str, List[str]]:
    """Problems found, keyed by operation (a sweep seed, or ``"study"``).

    ``pinned`` is the reference for this world seed, or None.  An empty
    dict means every operation passed.
    """
    if workload.name == "lw-sweep":
        problems: Dict[str, List[str]] = {}
        for each in sweep_seeds(seed):
            key = str(each)
            found = outputs["headline"].get(key)
            if found is None or each in outputs["failed_seeds"]:
                problems[key] = ["seed quarantined (sweep degraded)"]
            elif pinned is not None:
                if found != pinned["headline"].get(key):
                    problems[key] = [f"headline {found!r} != pinned "
                                     f"{pinned['headline'].get(key)!r}"]
            else:
                bad = _bands(workload.network, found)
                if bad:
                    problems[key] = bad
        if outputs["degraded"] and not problems:
            problems["sweep"] = ["report marked degraded"]
        return problems
    if pinned is not None:
        bad = [f"{field} {outputs[field]} != pinned {pinned[field]}"
               for field in ("store_sha256", "analyze_sha256")
               if outputs[field] != pinned[field]]
    else:
        bad = _bands(workload.network, outputs["headline"])
    return {"study": bad} if bad else {}
