"""Experiment R1: the fault envelope of the headline claims.

The paper's two structural claims -- C1, malware is far more prevalent
among Limewire's downloadable responses than OpenFT's, and C2, a
handful of strains dominate (top-3 concentration) -- were measured over
a month on a network that lost packets, stalled transfers and served
damaged bytes.  R1 asks how much *more* hostility those claims survive:
it sweeps the graded :func:`FaultPlan.envelope` severities over both
networks and several seeds, recomputes the headline metrics under each,
and checks them against the claim bands below.  The sweep's product is
the **fault envelope**: the highest severity at which both claims still
hold, and the breaking point -- the first severity where one does not.

Faults perturb *measurement conditions*, not ground truth: the same
worlds host the same infected peers; the harness only makes them harder
to observe.  A robust claim should therefore degrade gracefully (fewer
responses, fewer completed downloads) without flipping sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import SEVERITIES, FaultPlan
from ..peers.profiles import GnutellaProfile, OpenFTProfile
from ..simnet.clock import days as days_to_seconds
from .experiments import ReplicationReport, run_replications
from .measure.campaign import CampaignConfig

__all__ = ["CLAIM_BANDS", "PREVALENCE_GAP_MIN", "SeverityResult",
           "ChaosReport", "run_fault_envelope"]

#: Per-network acceptance bands for the headline metrics, calibrated at
#: the R1 reference configuration (0.25 virtual days, scale 0.5, seeds
#: 1-3).  Deliberately wide: R1 tests whether the *claims* survive
#: stress, not whether point estimates are stable.
CLAIM_BANDS: Dict[str, Dict[str, Tuple[float, float]]] = {
    "limewire": {
        "prevalence": (0.50, 0.95),   # C1 upper arm: most exe/zip dirty
        "top3_share": (0.85, 1.00),   # C2: a few strains dominate
    },
    "openft": {
        "prevalence": (0.00, 0.30),   # C1 lower arm: OpenFT mostly clean
        "top3_share": (0.50, 1.00),   # C2 holds but is noisier here
    },
}

#: C1's gap form: mean Limewire prevalence must exceed mean OpenFT
#: prevalence by at least this factor at every surviving severity.
PREVALENCE_GAP_MIN = 2.0


@dataclass(frozen=True)
class SeverityResult:
    """One severity rung of the sweep, across networks."""

    severity: str
    reports: Dict[str, ReplicationReport]
    violations: Tuple[str, ...]

    @property
    def holds(self) -> bool:
        """True when every claim band (and the C1 gap) was met."""
        return not self.violations

    @property
    def degraded(self) -> bool:
        """True when any network's replication quarantined a seed."""
        return any(report.degraded for report in self.reports.values())


@dataclass(frozen=True)
class ChaosReport:
    """The full R1 sweep: one row per severity, breaking point noted."""

    results: Tuple[SeverityResult, ...]
    seeds: Tuple[int, ...]
    duration_days: float
    scale: float

    @property
    def breaking_point(self) -> Optional[str]:
        """First severity whose claims did not hold (None: none broke)."""
        for result in self.results:
            if not result.holds:
                return result.severity
        return None

    @property
    def envelope(self) -> Optional[str]:
        """Highest severity that still held *below* the breaking point."""
        last = None
        for result in self.results:
            if not result.holds:
                break
            last = result.severity
        return last

    @property
    def ok(self) -> bool:
        """True when every swept severity held."""
        return all(result.holds for result in self.results)

    def render(self) -> str:
        """Text table of the sweep, one row per (severity, network)."""
        lines = [f"R1 fault envelope (seeds {list(self.seeds)}, "
                 f"{self.duration_days:g} virtual days, "
                 f"scale {self.scale:g})",
                 f"{'severity':<10s} {'network':<9s} {'prevalence':>11s} "
                 f"{'top3':>7s} {'claims':>7s}"]
        for result in self.results:
            for network, report in result.reports.items():
                prevalence = report.metrics["prevalence"]
                top3 = report.metrics["top3_share"]
                status = "hold" if result.holds else "BROKEN"
                flag = " (degraded)" if report.degraded else ""
                lines.append(
                    f"{result.severity:<10s} {network:<9s} "
                    f"{prevalence.mean:11.1%} {top3.mean:7.1%} "
                    f"{status:>7s}{flag}")
            for violation in result.violations:
                lines.append(f"           !! {violation}")
        if self.breaking_point is None:
            lines.append("claims hold across the entire swept envelope")
        else:
            lines.append(f"breaking point: {self.breaking_point} "
                         f"(envelope: {self.envelope or 'none'})")
        return "\n".join(lines)


def _check_bands(severity: str,
                 reports: Dict[str, ReplicationReport]) -> List[str]:
    """Every claim-band and gap violation at one severity, as text."""
    violations: List[str] = []
    for network, report in reports.items():
        bands = CLAIM_BANDS.get(network, {})
        for name, (low, high) in bands.items():
            summary = report.metrics.get(name)
            if summary is None:
                continue
            if not summary.within(low, high):
                violations.append(
                    f"{severity}/{network}: {name} "
                    f"[{summary.low:.3f}, {summary.high:.3f}] outside "
                    f"claim band [{low:.2f}, {high:.2f}]")
    if "limewire" in reports and "openft" in reports:
        limewire = reports["limewire"].metrics["prevalence"].mean
        openft = reports["openft"].metrics["prevalence"].mean
        if limewire < PREVALENCE_GAP_MIN * openft:
            violations.append(
                f"{severity}: C1 gap collapsed -- limewire prevalence "
                f"{limewire:.3f} < {PREVALENCE_GAP_MIN:g}x openft "
                f"{openft:.3f}")
    return violations


def run_fault_envelope(networks: Sequence[str] = ("limewire", "openft"),
                       severities: Sequence[str] = SEVERITIES,
                       seeds: Sequence[int] = (1, 2, 3),
                       duration_days: float = 0.25,
                       scale: float = 0.5,
                       workers: Optional[int] = 1) -> ChaosReport:
    """Sweep the graded fault envelopes and check the claim bands.

    Every (severity, network) cell is a full multi-seed replication
    through :func:`run_replications`, so worker-crash isolation and
    degradation flagging apply inside the sweep as well.
    """
    unknown = [severity for severity in severities
               if severity not in SEVERITIES]
    if unknown:
        raise ValueError(f"unknown severities {unknown!r}; "
                         f"choose from {SEVERITIES}")
    horizon_s = days_to_seconds(duration_days)
    profiles = {"limewire": GnutellaProfile().scaled(scale),
                "openft": OpenFTProfile().scaled(scale)}
    results: List[SeverityResult] = []
    for severity in severities:
        plan = FaultPlan.envelope(severity, horizon_s)
        config = CampaignConfig(duration_days=duration_days,
                                fault_plan=plan if plan else None)
        reports: Dict[str, ReplicationReport] = {}
        for network in networks:
            reports[network] = run_replications(
                network, list(seeds), config, profiles[network],
                workers=workers)
        results.append(SeverityResult(
            severity=severity, reports=reports,
            violations=tuple(_check_bands(severity, reports))))
    return ChaosReport(results=tuple(results), seeds=tuple(seeds),
                       duration_days=duration_days, scale=scale)
