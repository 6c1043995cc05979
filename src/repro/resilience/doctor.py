"""``repro-study doctor``: verify and repair on-disk artifacts.

The doctor answers the question an operator has after a crash, an OOM
kill or a full disk: *what survived, and what would a resume see?*
It walks checkpoint journals, run journals and whole-file JSON
artifacts, classifies each by content (not by name), and reports
committed records, torn tails, corrupt lines and stale atomic-write
temp files.  With ``repair=True`` it makes the damage safe: torn
tails are truncated, corrupt records are moved to a ``.quarantine``
side file (never silently destroyed), and abandoned temp files are
removed.  Healthy artifacts are never touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .store import FrameScan, recover_frames

__all__ = ["ArtifactReport", "DoctorReport", "run_doctor"]

#: file suffixes the directory walk considers artifacts
_JSONL_SUFFIX = ".jsonl"
_JSON_SUFFIX = ".json"


@dataclass
class ArtifactReport:
    """Findings for one on-disk artifact."""

    path: Path
    #: "checkpoint" | "journal" | "json" | "stale-tmp"
    kind: str
    healthy: bool
    #: records a resume would recover (jsonl kinds)
    records: int = 0
    #: committed replication seeds (checkpoints only)
    seeds: List[int] = field(default_factory=list)
    fingerprint: Optional[str] = None
    torn_tail_bytes: int = 0
    corrupt_records: int = 0
    repaired: bool = False
    note: str = ""

    def render(self) -> str:
        state = "ok" if self.healthy else (
            "repaired" if self.repaired else "DAMAGED")
        parts = [f"{self.path} [{self.kind}] {state}"]
        if self.kind in ("checkpoint", "journal"):
            parts.append(f"{self.records} record"
                         f"{'s' if self.records != 1 else ''}")
        if self.seeds:
            parts.append(f"seeds {self.seeds} recoverable")
        if self.torn_tail_bytes:
            action = "truncated" if self.repaired else "would truncate"
            parts.append(f"torn tail {self.torn_tail_bytes}B ({action})")
        if self.corrupt_records:
            action = "quarantined" if self.repaired else "would quarantine"
            parts.append(f"{self.corrupt_records} corrupt ({action})")
        if self.note:
            parts.append(self.note)
        return "  " + ": ".join((parts[0], ", ".join(parts[1:]))
                                if len(parts) > 1 else (parts[0],))


@dataclass
class DoctorReport:
    """All artifacts examined in one doctor run."""

    artifacts: List[ArtifactReport] = field(default_factory=list)
    repair: bool = False

    @property
    def ok(self) -> bool:
        """True when nothing needs (or needed) repair."""
        return all(artifact.healthy or artifact.repaired
                   for artifact in self.artifacts)

    @property
    def damaged(self) -> List[ArtifactReport]:
        return [artifact for artifact in self.artifacts
                if not artifact.healthy]

    def render(self) -> str:
        if not self.artifacts:
            return "doctor: no artifacts found"
        lines = [f"doctor: examined {len(self.artifacts)} artifact"
                 f"{'s' if len(self.artifacts) != 1 else ''}"
                 f"{' (repair mode)' if self.repair else ''}"]
        lines.extend(artifact.render() for artifact in self.artifacts)
        broken = self.damaged
        if not broken:
            lines.append("all artifacts healthy; a resume loses nothing")
        elif self.repair:
            fixed = sum(1 for artifact in broken if artifact.repaired)
            summary = f"{fixed}/{len(broken)} damaged artifact" \
                      f"{'s' if len(broken) != 1 else ''} repaired"
            if fixed < len(broken):
                summary += " (the rest must be regenerated)"
            else:
                summary += "; resume is now safe"
            lines.append(summary)
        else:
            lines.append(f"{len(broken)} artifact"
                         f"{'s' if len(broken) != 1 else ''} damaged; "
                         f"rerun with --repair to fix")
        return "\n".join(lines)


def run_doctor(paths: Sequence[Path], repair: bool = False) -> DoctorReport:
    """Examine (and with ``repair``, fix) every artifact under ``paths``.

    Files are classified by content; directories are walked one level
    of glob deep for ``*.jsonl`` / ``*.json`` artifacts plus stale
    ``*.tmp.<pid>`` files abandoned by an interrupted atomic write.
    """
    report = DoctorReport(repair=repair)
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.is_file() and _classify_name(child):
                    report.artifacts.append(_examine(child, repair))
        elif path.exists():
            report.artifacts.append(_examine(path, repair))
        else:
            report.artifacts.append(ArtifactReport(
                path=path, kind="missing", healthy=False,
                note="no such file"))
    return report


def _classify_name(path: Path) -> Optional[str]:
    name = path.name
    if ".tmp." in name:
        return "stale-tmp"
    if name.endswith(_JSONL_SUFFIX):
        return "jsonl"
    if name.endswith(_JSON_SUFFIX):
        return "json"
    return None


def _examine(path: Path, repair: bool) -> ArtifactReport:
    kind = _classify_name(path)
    if kind == "stale-tmp":
        if repair:
            try:
                path.unlink()
            except OSError:
                pass
        return ArtifactReport(
            path=path, kind="stale-tmp", healthy=False, repaired=repair,
            note="abandoned atomic-write temp file"
                 + ("" if repair else " (repair deletes it)"))
    if kind == "json":
        return _examine_json(path)
    return _examine_jsonl(path, repair)


def _examine_json(path: Path) -> ArtifactReport:
    try:
        json.loads(path.read_text("utf-8"))
    except (OSError, ValueError) as error:
        return ArtifactReport(
            path=path, kind="json", healthy=False,
            note=f"unparseable ({error}); regenerate it -- atomic "
                 f"writers make this impossible for new artifacts")
    return ArtifactReport(path=path, kind="json", healthy=True)


def _examine_jsonl(path: Path, repair: bool) -> ArtifactReport:
    scan = recover_frames(path, repair=repair)
    checkpoint = _checkpoint_header(scan)
    artifact = ArtifactReport(
        path=path,
        kind="checkpoint" if checkpoint is not None else "journal",
        healthy=scan.healthy,
        records=len(scan.records),
        torn_tail_bytes=scan.torn_tail_bytes,
        corrupt_records=len(scan.corrupt_lines),
        repaired=repair and not scan.healthy)
    if checkpoint is not None:
        artifact.fingerprint = checkpoint
        artifact.seeds = sorted(
            int(record["seed"]) for record in scan.records
            if isinstance(record, dict) and record.get("kind") == "seed")
        artifact.records = len(artifact.seeds)
        artifact.note = (f"resume recovers {len(artifact.seeds)} "
                         f"completed seed"
                         f"{'s' if len(artifact.seeds) != 1 else ''}")
    return artifact


def _checkpoint_header(scan: FrameScan) -> Optional[str]:
    if not scan.records:
        return None
    first = scan.records[0]
    if isinstance(first, dict) and first.get("kind") == "header":
        return str(first.get("fingerprint", ""))
    return None
