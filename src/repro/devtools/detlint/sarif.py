"""SARIF 2.1.0 export (``repro-study lint --sarif out.sarif``).

GitHub code scanning (and most editors) ingest SARIF; uploading the
lint run turns every finding into an inline PR annotation instead of a
line in a CI log.  The export is deterministic: rules and results are
emitted in sorted order, and no timestamps or absolute paths appear --
two runs over the same tree produce byte-identical files, the same bar
the text report meets.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .findings import Finding

__all__ = ["to_sarif", "render_sarif"]

_RULE_DESCRIPTIONS = {
    "DET000": "file does not parse",
    "DET001": "bare random.* / unseeded RNG outside the stream module",
    "DET002": "wall-clock read in simulation code",
    "DET003": "unordered set iteration feeding the scheduler or RNG",
    "DET004": "builtin hash() varies with PYTHONHASHSEED",
    "DET005": "id() used as an ordering key",
    "DET006": "ambient entropy (environ, urandom, uuid4, secrets)",
    "DET007": "laundered entropy reaches a scheduling/seed/message sink",
    "DET008": "unordered iteration order reaches a sink through a variable",
    "LAY001": "module-level import violates the declared layer DAG",
    "LAY002": "undeclared deferred import crosses the layer DAG",
    "CONC001": "unsynchronized cross-thread mutation of shared state",
    "CONC002": "lock-order inversion in the static acquisition graph",
    "CONC003": "blocking call inside a kernel callback",
}


def to_sarif(findings: Sequence[Finding],
             tool_version: str = "2") -> Dict:
    """The SARIF log object for one lint run."""
    codes = sorted({finding.code for finding in findings})
    rules = [{
        "id": code,
        "shortDescription": {
            "text": _RULE_DESCRIPTIONS.get(code, code)},
        "defaultConfiguration": {"level": "error"},
    } for code in codes]
    index_of = {code: index for index, code in enumerate(codes)}
    results: List[Dict] = []
    for finding in sorted(findings):
        message = finding.message
        if finding.hint:
            message += f" (fix: {finding.hint})"
        results.append({
            "ruleId": finding.code,
            "ruleIndex": index_of[finding.code],
            "level": "error",
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": max(1, finding.line),
                               "startColumn": finding.col + 1},
                },
            }],
        })
    return {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "detlint",
                "informationUri": ("https://example.invalid/repro/"
                                   "devtools/detlint"),
                "version": tool_version,
                "rules": rules,
            }},
            "results": results,
        }],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    """The SARIF log as pretty-printed, key-sorted JSON."""
    return json.dumps(to_sarif(findings), indent=2, sort_keys=True) + "\n"
