"""Engine semantics: config, baseline policy, deterministic output."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.detlint import (BaselineError, ConfigError, engine,
                                    lint_repo, load_baseline, load_config)

REPO_ROOT = Path(__file__).resolve().parents[2]

PYPROJECT = """
[tool.detlint]
package = "pkg"
src = "src"
baseline = "baseline.txt"
rng_modules = ["pkg.rng"]
deferred_imports = ["high -> low"]

[tool.detlint.layers]
low = []
high = ["low"]
"<root>" = ["high", "low"]
"""


def build_repo(root: Path, files: dict, baseline: str = "",
               pyproject: str = PYPROJECT) -> Path:
    (root / "pyproject.toml").write_text(pyproject, encoding="utf-8")
    if baseline:
        (root / "baseline.txt").write_text(baseline, encoding="utf-8")
    for rel, source in files.items():
        path = root / "src" / "pkg" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


class TestConfig:
    def test_load_config_reads_detlint_table(self, tmp_path):
        build_repo(tmp_path, {"__init__.py": ""})
        config = load_config(tmp_path)
        assert config.package == "pkg"
        assert config.rng_modules == ("pkg.rng",)
        assert ("high", "low") in config.deferred_imports
        assert config.layers["high"] == ["low"]

    def test_missing_table_gives_defaults(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        config = load_config(tmp_path)
        assert config.package == "repro"
        assert config.layers == {}

    def test_bad_deferred_entry_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.detlint]\ndeferred_imports = ['nonsense']\n")
        with pytest.raises(ValueError, match="src -> dst"):
            load_config(tmp_path)

    def test_no_pyproject_gives_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engine, "tomllib", None)
        config = load_config(tmp_path)
        assert config.package == "repro"
        assert config.baseline is None

    def test_pyproject_without_a_toml_reader_is_refused(self, monkeypatch,
                                                        capsys):
        # Python 3.10 has no tomllib: linting with the defaults there
        # would drop the baseline, the layer DAG and the excludes
        monkeypatch.setattr(engine, "tomllib", None)
        with pytest.raises(ConfigError, match="tomllib") as refused:
            load_config(REPO_ROOT)
        assert str(REPO_ROOT / "pyproject.toml") in str(refused.value)
        for argv in (["lint", "--root", str(REPO_ROOT)],
                     ["lint", "--root", str(REPO_ROOT), "--changed-only"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith("error: cannot read ")
            assert "tomllib" in captured.err
            assert "detlint:" not in captured.out


class TestBaselinePolicy:
    def test_non_wallclock_code_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("DET001 src/pkg/x.py  # nope\n")
        with pytest.raises(BaselineError, match="DET002"):
            load_baseline(path)

    def test_entry_without_annotation_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("DET002 src/pkg/x.py\n")
        with pytest.raises(BaselineError, match="annotation"):
            load_baseline(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("DET002 src/pkg/x.py extra  # why\n")
        with pytest.raises(BaselineError, match="not 'CODE path"):
            load_baseline(path)

    def test_baseline_suppresses_only_listed_file(self, tmp_path):
        root = build_repo(tmp_path, {
            "__init__.py": "",
            "clock.py": "import time\n\ndef f():\n    return time.time()\n",
            "other.py": "import time\n\ndef f():\n    return time.time()\n",
        }, baseline="DET002 src/pkg/clock.py  # sampling whitelist\n")
        result = lint_repo(root)
        assert [f.path for f in result.findings] == ["src/pkg/other.py"]
        assert [f.path for f in result.suppressed] == ["src/pkg/clock.py"]

    def test_unused_baseline_entry_fails_strict_only(self, tmp_path):
        root = build_repo(tmp_path, {"__init__.py": ""},
                          baseline="DET002 src/pkg/gone.py  # stale\n")
        result = lint_repo(root)
        assert result.clean
        assert result.unused_baseline == ["DET002 src/pkg/gone.py"]
        assert result.exit_code(strict=False) == 0
        assert result.exit_code(strict=True) == 1


class TestDeterministicOutput:
    def test_two_runs_render_identically(self, tmp_path):
        root = build_repo(tmp_path, {
            "__init__.py": "",
            "a.py": "import random\n",
            "b.py": "def f(x):\n    return hash(x)\n",
            "low/__init__.py": "",
            "low/c.py": "from ..a import x\n",  # low importing <root>: LAY001
        })
        first = lint_repo(root)
        second = lint_repo(root)
        assert first.render(strict=True) == second.render(strict=True)
        assert [f.render() for f in first.findings] == \
               sorted(f.render() for f in first.findings)

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        root = build_repo(tmp_path, {
            "__init__.py": "",
            "z.py": "import random\n",
            "a.py": "import random\nimport time\n\ndef f():\n"
                    "    return time.time()\n",
        })
        result = lint_repo(root)
        locations = [(f.path, f.line) for f in result.findings]
        assert locations == sorted(locations)
