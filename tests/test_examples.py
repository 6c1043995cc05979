"""Smoke tests: every example script runs end to end.

Each example is executed in-process (``runpy``) with scaled-down
arguments so the whole set finishes in under a minute; assertions check
the narrative output carries the numbers the example exists to show.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, script: str, *argv: str) -> str:
    monkeypatch.setattr(sys, "argv", [script, *argv])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("script", [
    "quickstart.py", "full_study.py", "size_filter_deployment.py",
    "protocol_tour.py", "longitudinal.py", "investigate_host.py",
])
def test_example_exists(script):
    assert (EXAMPLES / script).exists()


def test_quickstart(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "quickstart.py", "2")
    assert "malware prevalence" in output
    assert "W32." in output


def test_protocol_tour(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "protocol_tour.py")
    assert "GNUTELLA CONNECT/0.6" in output
    assert "QueryHit" in output
    assert "OpenFT" in output
    assert "SearchRequest packet" in output


def test_longitudinal(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "longitudinal.py",
                         "--days", "0.5")
    assert "distinct samples" in output
    assert "new mal hosts" in output


def test_full_study(monkeypatch, capsys, tmp_path):
    output = run_example(monkeypatch, capsys, "full_study.py",
                         "--days", "0.25", "--out", str(tmp_path))
    assert "T2: malware prevalence" in output
    assert "T5: filtering effectiveness" in output
    assert (tmp_path / "limewire.jsonl").exists()
    assert (tmp_path / "openft.jsonl").exists()


def test_full_study_short_run_without_openft_malware(monkeypatch, capsys,
                                                     tmp_path):
    # 0.1 days at seed 2 collects no OpenFT malware: T4/F4 fall back to
    # all strains instead of crashing
    output = run_example(monkeypatch, capsys, "full_study.py",
                         "--days", "0.1", "--out", str(tmp_path))
    assert "F4 (openft): host CDF" in output


def test_investigate_host(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys, "investigate_host.py")
    assert "top strain" in output
    assert "browsing" in output


def test_size_filter_deployment(monkeypatch, capsys):
    output = run_example(monkeypatch, capsys,
                         "size_filter_deployment.py")
    assert "learned dictionary" in output
    assert "detection" in output
