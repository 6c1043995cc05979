"""Content-addressed lint cache (``.detlint-cache/``).

The in-suite lint gate re-walks ~100 files on every ``pytest`` run;
almost none of them changed since the last run.  Per-file lint results
are a pure function of (file bytes, config, linter version), so they
memoize perfectly:

* the **key** is sha256 over a schema version, a digest of every
  config field that can change findings, the repo-relative path, and
  the file's raw bytes -- touch any of them and the entry misses;
* the **value** is the per-module findings plus the module's extracted
  import edges (the layer-DAG check is cross-file, so edges are cached
  per file and re-checked globally each run -- the check itself is
  cheap, the parse is not);
* entries are one JSON file each under ``<root>/.detlint-cache/``,
  written atomically (tmp + rename) so parallel runs can share a
  cache directory.

The cache is an optimisation only: ``lint_repo(use_cache=True)`` must
produce byte-identical output to a cold run (asserted in tests), and
a corrupt or unreadable entry silently degrades to a re-lint.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .findings import Finding
from .layering import ImportEdge

__all__ = ["LintCache", "CACHE_DIR_NAME", "config_digest"]

#: bump when finding semantics change (new rules, changed messages)
_SCHEMA_VERSION = "detlint-cache-v1"

CACHE_DIR_NAME = ".detlint-cache"


def config_digest(config) -> str:
    """Digest of every config field that can change per-file findings."""
    payload = {
        "schema": _SCHEMA_VERSION,
        "package": config.package,
        "exclude": sorted(config.exclude),
        "rng_modules": sorted(config.rng_modules),
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class LintCache:
    """sha256-keyed store of per-file findings + import edges."""

    def __init__(self, root: Path, digest: str) -> None:
        self.directory = Path(root) / CACHE_DIR_NAME
        self.digest = digest
        self.hits = 0
        self.misses = 0

    def key(self, relpath: str, content: bytes) -> str:
        hasher = hashlib.sha256()
        hasher.update(self.digest.encode("ascii"))
        hasher.update(b"\x00")
        hasher.update(relpath.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(content)
        return hasher.hexdigest()

    def get(self, key: str) -> Optional[Dict]:
        path = self.directory / f"{key}.json"
        try:
            with path.open("r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or "findings" not in entry \
                or "edges" not in entry:
            return None
        self.hits += 1
        return entry

    def put(self, key: str, findings: Sequence[Finding],
            edges: Sequence[ImportEdge]) -> None:
        self.misses += 1
        entry = {
            "findings": [[f.path, f.line, f.col, f.code, f.message, f.hint]
                         for f in findings],
            "edges": [[e.src_layer, e.dst_layer, e.path, e.line, e.col,
                       e.deferred, e.statement] for e in edges],
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.directory / f"{key}.json"
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(entry, sort_keys=True),
                           encoding="utf-8")
            tmp.replace(path)
        except OSError:
            pass  # a read-only tree just runs uncached

    @staticmethod
    def findings_of(entry: Dict) -> List[Finding]:
        return [Finding(path=row[0], line=row[1], col=row[2], code=row[3],
                        message=row[4], hint=row[5])
                for row in entry["findings"]]

    @staticmethod
    def edges_of(entry: Dict) -> List[ImportEdge]:
        return [ImportEdge(src_layer=row[0], dst_layer=row[1], path=row[2],
                           line=row[3], col=row[4], deferred=row[5],
                           statement=row[6])
                for row in entry["edges"]]
