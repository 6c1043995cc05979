"""The detlint engine: configuration, file walk, baseline, verdict.

Configuration lives in ``pyproject.toml`` under ``[tool.detlint]`` so
the declared layer DAG is versioned next to the package metadata it
describes.  The engine is itself held to the determinism bar it
enforces: the file walk is sorted, rule order is fixed, and findings
are sorted by ``(path, line, col, code)`` -- two runs over the same
tree always print byte-identical reports, cached or cold.

Four pass families run per lint:

1. the syntactic rules (DET001-DET006, ``rules.py``);
2. the dataflow taint pass (DET007/DET008, ``dataflow.py``);
3. the concurrency pass (CONC001-CONC003, ``concurrency.py``);
4. the cross-file layer-DAG check (LAY001/LAY002, ``layering.py``).

The first three are per-module and memoize through the content-
addressed cache (``cache.py``); the layer-DAG check re-runs every
time over the cached import edges.

The baseline file is the *only* sanctioned suppression mechanism.  It
started as a DET002-only wall-clock whitelist; the dataflow and
concurrency codes may now be grandfathered too -- but every entry must
carry an annotation (a ``#`` comment) explaining why the finding
cannot perturb simulation state, and the hard-error codes (DET001,
DET004-DET006, the LAY codes) stay unbaselineable: there is never a
good reason for bare randomness or a layering violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cache import LintCache, config_digest
from .concurrency import check_concurrency
from .dataflow import check_dataflow
from .findings import Finding, Module, parse_module
from .layering import ImportEdge, check_edges, extract_edges
from .rules import all_rules

try:  # python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - older interpreters
    tomllib = None

__all__ = ["LintConfig", "LintResult", "load_config", "collect_modules",
           "lint_modules", "lint_repo", "BaselineError"]

#: rule codes the baseline may suppress (annotated grandfathering only).
#: DET002 is the historical telemetry wall-time whitelist; the analysis
#: passes added in v2 may be baselined while their findings are burned
#: down.  DET001/004/005/006 and the layering codes are hard errors.
BASELINE_ALLOWED_CODES = ("DET002", "DET003", "DET007", "DET008",
                          "CONC001", "CONC002", "CONC003")


class BaselineError(ValueError):
    """The baseline file tried to suppress something it must not."""


@dataclass
class LintConfig:
    """Parsed ``[tool.detlint]`` configuration."""

    root: Path  # repo root (directory holding pyproject.toml)
    package: str = "repro"
    src: str = "src"
    exclude: Tuple[str, ...] = ()
    baseline: Optional[str] = None
    rng_modules: Tuple[str, ...] = ()
    layers: Dict[str, Sequence[str]] = field(default_factory=dict)
    deferred_imports: Set[Tuple[str, str]] = field(default_factory=set)

    @property
    def src_dir(self) -> Path:
        return self.root / self.src

    @property
    def baseline_path(self) -> Optional[Path]:
        return self.root / self.baseline if self.baseline else None


def _parse_deferred(entries: Sequence[str]) -> Set[Tuple[str, str]]:
    """``["core -> devtools"]`` -> ``{("core", "devtools")}``."""
    edges = set()
    for entry in entries:
        src, sep, dst = entry.partition("->")
        if not sep:
            raise ValueError(
                f"deferred_imports entry {entry!r} is not 'src -> dst'")
        edges.add((src.strip(), dst.strip()))
    return edges


def load_config(root: Path) -> LintConfig:
    """Read ``[tool.detlint]`` from ``<root>/pyproject.toml``."""
    root = Path(root)
    pyproject = root / "pyproject.toml"
    table: Dict = {}
    if pyproject.exists() and tomllib is not None:
        with pyproject.open("rb") as handle:
            table = tomllib.load(handle).get("tool", {}).get("detlint", {})
    return LintConfig(
        root=root,
        package=table.get("package", "repro"),
        src=table.get("src", "src"),
        exclude=tuple(table.get("exclude", ())),
        baseline=table.get("baseline"),
        rng_modules=tuple(table.get("rng_modules", ())),
        layers=dict(table.get("layers", {})),
        deferred_imports=_parse_deferred(table.get("deferred_imports", ())),
    )


def _excluded(relpath: str, exclude: Tuple[str, ...]) -> bool:
    return any(relpath.startswith(prefix.rstrip("/") + "/") or
               relpath == prefix for prefix in exclude)


def _collect_files(config: LintConfig,
                   paths: Optional[Sequence[Path]] = None
                   ) -> List[Tuple[Path, str, str]]:
    """(abspath, relpath, dotted) per lintable file, sorted."""
    package_dir = config.src_dir / config.package
    roots = [Path(p) for p in paths] if paths else [package_dir]
    files: List[Path] = []
    for entry in roots:
        if entry.is_dir():
            files.extend(entry.rglob("*.py"))
        elif entry.suffix == ".py":
            files.append(entry)
    collected: List[Tuple[Path, str, str]] = []
    for path in sorted(set(file.resolve() for file in files)):
        try:
            rel_src = path.relative_to(config.src_dir.resolve())
        except ValueError:
            rel_src = Path(path.name)
        package_rel = rel_src.as_posix()
        if _excluded(package_rel, config.exclude):
            continue
        try:
            relpath = path.relative_to(config.root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        collected.append((path, relpath, _dotted_name(rel_src)))
    return collected


def collect_modules(config: LintConfig,
                    paths: Optional[Sequence[Path]] = None) -> List[Module]:
    """Parse every lintable file, in sorted (deterministic) order.

    Without ``paths``, walks ``<src>/<package>``; with ``paths``, lints
    exactly those files/directories (still applying the excludes).
    """
    return [parse_module(path, relpath, dotted)
            for path, relpath, dotted in _collect_files(config, paths)]


def _dotted_name(rel_src: Path) -> str:
    parts = list(rel_src.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class LintResult:
    """The outcome of one lint run."""

    findings: List[Finding]
    suppressed: List[Finding]
    unused_baseline: List[str]
    files_checked: int
    #: True when only a subset of files was linted (--changed-only):
    #: unused-baseline accounting is meaningless for a partial walk
    partial: bool = False
    cache_hits: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self, strict: bool = False) -> str:
        lines = [finding.render() for finding in self.findings]
        if not self.partial:
            for entry in self.unused_baseline:
                lines.append(f"warning: unused baseline entry: {entry}")
        lines.append(
            f"detlint: {self.files_checked} files, "
            f"{len(self.findings)} finding"
            f"{'' if len(self.findings) == 1 else 's'}"
            f" ({len(self.suppressed)} baselined)")
        if strict and self.unused_baseline and not self.partial:
            lines.append("detlint: strict mode: unused baseline entries "
                         "are errors")
        return "\n".join(lines)

    def exit_code(self, strict: bool = False) -> int:
        if self.findings:
            return 1
        if strict and self.unused_baseline and not self.partial:
            return 1
        return 0


def load_baseline(path: Path) -> List[Tuple[str, str]]:
    """Parse ``CODE path  # why`` lines; reject unbaselineable codes."""
    entries: List[Tuple[str, str]] = []
    for raw_line in path.read_text(encoding="utf-8").splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BaselineError(
                f"baseline line {raw_line!r} is not 'CODE path  # why'")
        code, entry_path = parts
        if code not in BASELINE_ALLOWED_CODES:
            raise BaselineError(
                f"baseline may only whitelist {BASELINE_ALLOWED_CODES}; "
                f"found {code} for {entry_path} -- that code is a hard "
                "error, fix the finding instead")
        if "#" not in raw_line:
            raise BaselineError(
                f"baseline entry {entry_path} lacks an annotation -- every "
                "grandfathered finding must say why it is safe")
        entries.append((code, entry_path))
    return entries


def module_passes(module: Module, config: LintConfig) -> List[Finding]:
    """Every per-module pass: syntactic rules, dataflow, concurrency."""
    findings: List[Finding] = []
    for error in module.errors:
        findings.append(Finding(module.relpath, 1, 0, "DET000",
                                error, "fix the syntax error"))
    for rule in all_rules(config.rng_modules):
        findings.extend(rule.check(module))
    findings.extend(check_dataflow(module, config.rng_modules))
    findings.extend(check_concurrency(module))
    return sorted(findings)


def _layer_pass(config: LintConfig,
                edges: Sequence[ImportEdge]) -> List[Finding]:
    if not config.layers:
        return []
    return check_edges(edges, config.layers, config.deferred_imports)


def lint_modules(modules: Sequence[Module],
                 config: LintConfig) -> List[Finding]:
    """Run every pass over parsed modules; findings come back sorted."""
    findings: List[Finding] = []
    for module in modules:
        findings.extend(module_passes(module, config))
    findings.extend(_layer_pass(
        config, extract_edges(modules, package=config.package)))
    return sorted(findings)


def lint_repo(root: Path, paths: Optional[Sequence[Path]] = None,
              config: Optional[LintConfig] = None,
              use_cache: bool = False,
              partial: bool = False) -> LintResult:
    """Lint the repo rooted at ``root`` (the directory of pyproject.toml).

    With ``use_cache=True``, per-module findings and import edges are
    memoized under ``<root>/.detlint-cache/`` keyed by file content --
    output is byte-identical to a cold run.  ``partial=True`` marks a
    subset walk (``--changed-only``): unused-baseline strictness is
    suspended, since entries for unwalked files are not stale.
    """
    config = config or load_config(Path(root))
    partial = partial or paths is not None
    files = _collect_files(config, paths)
    cache = LintCache(config.root, config_digest(config)) if use_cache \
        else None
    findings: List[Finding] = []
    edges: List[ImportEdge] = []
    for path, relpath, dotted in files:
        entry = None
        if cache is not None:
            data = path.read_bytes()
            key = cache.key(relpath, data)
            entry = cache.get(key)
            if entry is not None:
                findings.extend(cache.findings_of(entry))
                edges.extend(cache.edges_of(entry))
        if entry is None:
            if cache is not None:
                module = parse_module(path, relpath, dotted,
                                      source=data.decode("utf-8"))
            else:
                module = parse_module(path, relpath, dotted)
            module_findings = module_passes(module, config)
            module_edges = extract_edges([module], package=config.package)
            findings.extend(module_findings)
            edges.extend(module_edges)
            if cache is not None:
                cache.put(key, module_findings, module_edges)
    findings.extend(_layer_pass(config, edges))
    findings = sorted(findings)
    suppressed: List[Finding] = []
    unused: List[str] = []
    baseline_path = config.baseline_path
    if baseline_path is not None and baseline_path.exists():
        entries = load_baseline(baseline_path)
        kept: List[Finding] = []
        used: Set[Tuple[str, str]] = set()
        for finding in findings:
            key = (finding.code, finding.path)
            if key in entries:
                suppressed.append(finding)
                used.add(key)
            else:
                kept.append(finding)
        findings = kept
        unused = [f"{code} {path}" for code, path in entries
                  if (code, path) not in used]
    return LintResult(findings=findings, suppressed=suppressed,
                      unused_baseline=unused, files_checked=len(files),
                      partial=partial,
                      cache_hits=cache.hits if cache else 0)
