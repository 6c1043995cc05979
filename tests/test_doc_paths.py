"""Every repo path the docs cite in backticks exists.

README.md, docs/ARCHITECTURE.md and the verify skill name files,
directories and test node ids in inline code spans.  A word of a span
that starts with ``src/``, ``tests/``, ``perfbench/``, ``benchmarks/``
or ``docs/`` resolves from the repo root; one whose first part is a
``repro`` subpackage (``simnet/sched.py``) resolves under
``src/repro/``.  A ``file.py:name`` suffix is not checked, but every
``::Class::test`` part of a node id must be defined in its file.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DOCS = ("README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md")
ROOT_PREFIXES = ("src/", "tests/", "perfbench/", "benchmarks/", "docs/")
FENCE = re.compile(r"^ {0,3}```.*?^ {0,3}```", re.M | re.S)
SPAN = re.compile(r"(`+)(.+?)\1", re.S)


def cited_paths(doc):
    """``(word, base directory)`` for each path word of the doc's spans."""
    packages = {path.name for path in PACKAGE.iterdir()
                if (path / "__init__.py").exists()}
    text = FENCE.sub("", (ROOT / doc).read_text())
    for span in SPAN.finditer(text):
        for word in span.group(2).split():
            word = word.strip("()[],;.'\"")
            if word.startswith(ROOT_PREFIXES):
                yield word, ROOT
            elif "/" in word and word.split("/", 1)[0] in packages:
                yield word, PACKAGE


def resolves(word, base):
    """True when the path exists and defines every ``::`` node part."""
    path, *parts = word.split("::")
    target = base / path.split(":", 1)[0]
    if not target.exists():
        return False
    scope = ast.parse(target.read_text()).body if parts else []
    for part in parts:
        name = part.split("[", 1)[0]
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


@pytest.mark.parametrize("doc", DOCS)
def test_cited_paths_exist(doc):
    cited = list(cited_paths(doc))
    assert cited, f"found no cited paths in {doc}"
    missing = sorted({word for word, base in cited
                      if not resolves(word, base)})
    assert not missing, f"{doc} cites paths that do not exist: {missing}"


def test_node_ids_resolve_class_and_test():
    drain = "tests/simnet/test_sched.py::TestKernelDrain"
    assert resolves(drain + "::test_halt_stops_mid_window[plain]", ROOT)
    assert resolves("tests/test_doc_paths.py::test_cited_paths_exist", ROOT)
    assert resolves("simnet/sched.py:EventQueue.pop", PACKAGE)
    assert not resolves(drain + "::test_missing", ROOT)
    assert not resolves("tests/simnet/test_sched.py::TestMissing", ROOT)
    assert not resolves("simnet/missing.py", PACKAGE)
