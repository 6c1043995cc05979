"""detlint: the determinism & layering linter (``repro-study lint``).

An AST-based static-analysis suite purpose-built for this repo's core
invariant -- same seed, same bits.  Four pass families:

* :mod:`.rules` -- the syntactic DET rule catalogue (DET001-006);
* :mod:`.dataflow` -- intra-procedural taint (DET007/DET008): entropy
  and iteration-order taint tracked through assignments until it
  reaches a scheduling/seed/message sink;
* :mod:`.layering` -- the import-DAG check (LAY001/LAY002);
* :mod:`.concurrency` -- shared-state lint (CONC001-003) for the
  telemetry threads that run alongside the simulation.

:mod:`.engine` holds configuration/baseline semantics, :mod:`.cache`
the content-addressed result cache and :mod:`.sarif` the SARIF export.
"""

from .cache import CACHE_DIR_NAME, LintCache, config_digest
from .concurrency import check_concurrency
from .dataflow import check_dataflow
from .engine import (BASELINE_ALLOWED_CODES, BaselineError, ConfigError,
                     LintConfig, LintResult, collect_modules, lint_modules,
                     lint_repo, load_baseline, load_config, module_passes)
from .findings import Finding, Module, Rule, parse_module
from .layering import ImportEdge, check_edges, check_layers, extract_edges
from .rules import DEFAULT_RULES, all_rules
from .sarif import render_sarif, to_sarif

__all__ = [
    "BASELINE_ALLOWED_CODES", "BaselineError", "ConfigError", "LintConfig",
    "LintResult", "collect_modules", "lint_modules", "lint_repo",
    "load_baseline", "load_config", "module_passes",
    "Finding", "Module", "Rule", "parse_module",
    "ImportEdge", "check_edges", "check_layers", "extract_edges",
    "DEFAULT_RULES", "all_rules",
    "check_dataflow", "check_concurrency",
    "CACHE_DIR_NAME", "LintCache", "config_digest",
    "render_sarif", "to_sarif",
]
