"""Helpers for the devtools (detlint / digest / lock-order) tests."""

import ast
from pathlib import Path

from repro.devtools.detlint import Module, all_rules


def lint_source(source, dotted="repro.gnutella.fake",
                relpath="src/repro/gnutella/fake.py",
                rng_modules=("repro.simnet.rng",)):
    """Run every DET rule over a source snippet; findings come sorted."""
    module = Module(path=Path(relpath), relpath=relpath, dotted=dotted,
                    tree=ast.parse(source), source=source)
    findings = []
    for rule in all_rules(tuple(rng_modules)):
        findings.extend(rule.check(module))
    return sorted(findings)


def codes(findings):
    return [finding.code for finding in findings]


def parse_source(source, dotted="repro.gnutella.fake",
                 relpath="src/repro/gnutella/fake.py"):
    """A Module for the pass-level checks (dataflow / concurrency)."""
    return Module(path=Path(relpath), relpath=relpath, dotted=dotted,
                  tree=ast.parse(source), source=source)


def dataflow_source(source, rng_modules=("repro.simnet.rng",), **kwargs):
    from repro.devtools.detlint import check_dataflow
    return check_dataflow(parse_source(source, **kwargs),
                          tuple(rng_modules))


def concurrency_source(source, **kwargs):
    from repro.devtools.detlint import check_concurrency
    return check_concurrency(parse_source(source, **kwargs))
