"""Tests for the repro-study CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def saved_store(tmp_path_factory):
    """A tiny campaign saved to disk once for all CLI tests."""
    out = tmp_path_factory.mktemp("cli")
    code = main(["run", "--network", "limewire", "--days", "0.1",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    return out / "limewire.jsonl"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.network == "both"
        assert args.days == 1.0

    def test_invalid_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--network", "kazaa"])

    def test_invalid_table_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "x.jsonl",
                                       "--table", "t99"])

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", [
        "run --days", "run --scale", "replicate --days",
        "replicate --deadline", "replicate --stall-timeout",
        "replicate --journal-interval", "chaos --days", "chaos --scale",
        "analyze x.jsonl --days",
    ])
    def test_campaign_length_and_scale_must_be_finite_positive(
            self, command, value, capsys):
        *words, option = command.split()
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([*words, f"{option}={value}"])
        assert exited.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    @pytest.mark.parametrize("command", [
        "replicate --seeds", "replicate --workers", "chaos --seeds",
        "chaos --workers",
    ])
    def test_seed_and_worker_counts_must_be_positive(self, command, value,
                                                     capsys):
        *words, option = command.split()
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([*words, f"{option}={value}"])
        assert exited.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    @pytest.mark.parametrize("command", ["run", "replicate"])
    def test_serve_port_must_be_a_port(self, command, port, tmp_path,
                                       capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--telemetry-dir", str(tmp_path),
                  f"--serve-port={port}"])
        assert exited.value.code == 2
        assert "--serve-port" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestRun:
    def test_creates_store_file(self, saved_store):
        assert saved_store.exists()
        first_line = saved_store.read_text().splitlines()[0]
        assert "limewire" in first_line

    def test_campaign_commands_import_no_numpy(self, tmp_path):
        # a fresh interpreter: this test process has numpy loaded already.
        # Nor does a campaign load the telemetry HTTP server, whose
        # http.server pulls in email, html, http.client and ssl
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "out = sys.argv[1]\n"
            "assert main(['run', '--network', 'limewire', '--days', '0.02',"
            " '--scale', '0.35', '--out', out]) == 0\n"
            "assert main(['analyze', out + '/limewire.jsonl',"
            " '--days', '0.02']) == 0\n"
            "print('http.server' in sys.modules)\n"
            "print('numpy' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env,
                              timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["False", "False"]



class TestReplicate:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["replicate"])
        assert args.network == "limewire"
        assert args.seeds == 4
        assert args.workers is None

    def test_prints_report(self, capsys):
        code = main(["replicate", "--network", "limewire", "--seeds", "1",
                     "--days", "0.1", "--workers", "1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "replicating limewire" in output
        assert "prevalence" in output

    def test_rejects_zero_seeds(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["replicate", "--seeds", "0"])
        assert exited.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_checkpoint_journal_written_and_reused(self, tmp_path, capsys):
        journal = tmp_path / "resume.jsonl"
        args = ["replicate", "--network", "limewire", "--seeds", "1",
                "--days", "0.1", "--workers", "1",
                "--checkpoint", str(journal)]
        assert main(args) == 0
        assert journal.exists()
        lines = journal.read_text().splitlines()
        assert len(lines) == 2  # header + the one completed seed
        capsys.readouterr()
        assert main(args) == 0  # resume: nothing recomputed...
        assert len(journal.read_text().splitlines()) == 2  # ...or re-logged
        assert "prevalence" in capsys.readouterr().out


class TestChaos:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.network == "both"
        assert args.severities is None  # all rungs
        assert args.seeds == 3
        assert args.days == 0.25
        assert args.scale == 0.5
        assert not args.quick

    def test_invalid_severity_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--severities",
                                       "apocalyptic"])

    def test_sweep_prints_envelope_table(self, capsys):
        code = main(["chaos", "--network", "limewire",
                     "--severities", "off", "mild", "--seeds", "1",
                     "--days", "0.05", "--scale", "0.3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "R1 fault envelope" in output
        assert "hold" in output
        assert "claims hold across the entire swept envelope" in output


class TestAnalyze:
    def test_all_tables(self, saved_store, capsys):
        code = main(["analyze", str(saved_store)])
        assert code == 0
        output = capsys.readouterr().out
        for marker in ("T1", "T2", "T3", "T5", "T6", "F1", "F3"):
            assert marker in output

    def test_single_table(self, saved_store, capsys):
        code = main(["analyze", str(saved_store), "--table", "t2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "T2" in output
        assert "T3" not in output

    def test_missing_store_errors(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err


class TestExport:
    def test_writes_csvs(self, saved_store, tmp_path, capsys):
        out = tmp_path / "csv"
        code = main(["export", str(saved_store), "--out", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert "t2:" in output
        assert (out / "limewire_t2.csv").exists()
        assert (out / "limewire_f1.csv").exists()

    def test_missing_store_errors(self, tmp_path):
        code = main(["export", str(tmp_path / "nope.jsonl")])
        assert code == 2


class TestFilterEval:
    def test_prints_comparison(self, saved_store, capsys):
        code = main(["filter-eval", str(saved_store)])
        assert code == 0
        output = capsys.readouterr().out
        assert "existing-limewire" in output
        assert "size-based" in output
        assert "size dictionary" in output

    def test_missing_store_errors(self, tmp_path, capsys):
        code = main(["filter-eval", str(tmp_path / "nope.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("top_n", ["0", "-2"])
    def test_top_n_below_one_refused(self, saved_store, capsys, top_n):
        code = main(["filter-eval", str(saved_store), f"--top-n={top_n}"])
        assert code == 2
        assert "error: top_n must be >= 1" in capsys.readouterr().err


def _torn_mid_line(store, path):
    lines = store.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[:3]) + b"\n" + lines[3][:40])
    return "line 4:"


def _empty(store, path):
    path.write_bytes(b"")
    return "line 1:"


def _header_without_queries_issued(store, path):
    lines = store.read_text().splitlines()
    path.write_text("\n".join(['{"store_network":"limewire"}'] + lines[1:])
                    + "\n")
    return "line 1: missing field 'queries_issued'"


class TestMalformedStore:
    """A damaged store is an error (exit 2), not a traceback."""

    @pytest.mark.parametrize("damage", [
        _torn_mid_line, _empty, _header_without_queries_issued])
    @pytest.mark.parametrize("argv", [
        ["analyze"], ["filter-eval"], ["export", "--out", "{tmp}/csv"]],
        ids=["analyze", "filter-eval", "export"])
    def test_exits_2_with_error(self, saved_store, tmp_path, capsys,
                                damage, argv):
        path = tmp_path / "damaged.jsonl"
        expected = damage(saved_store, path)
        code = main([argv[0], str(path)]
                    + [arg.format(tmp=tmp_path) for arg in argv[1:]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: malformed store {path}, ")
        assert expected in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "csv").exists()


class TestServe:
    """``run --serve-port`` serves a campaign live while it runs."""

    def test_serve_port_requires_telemetry_dir(self, tmp_path, capsys):
        code = main(["run", "--serve-port", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "--telemetry-dir" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_replicate_serve_port_requires_telemetry_dir(self, capsys):
        code = main(["replicate", "--serve-port", "0"])
        assert code == 2
        assert "--telemetry-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("host", ["127.0.0.1", "localhost"])
    def test_replicate_serves_on_host(self, host, tmp_path, capsys):
        code = main(["replicate", "--seeds", "1", "--days", "0.01",
                     "--workers", "1", "--telemetry-dir", str(tmp_path),
                     "--serve-port", "0", "--host", host])
        assert code == 0
        assert (f"observability endpoint: http://{host}:"
                in capsys.readouterr().out)

    def test_serve_runs_and_writes_outputs(self, tmp_path, capsys):
        base = ["run", "--network", "limewire", "--days", "0.02",
                "--scale", "0.35", "--seed", "3"]
        served, telemetry = tmp_path / "served", tmp_path / "telemetry"
        code = main(base + ["--out", str(served),
                            "--telemetry-dir", str(telemetry),
                            "--serve-port", "0"])
        assert code == 0
        output = capsys.readouterr().out
        assert "observability endpoint: http://127.0.0.1:" in output
        for name in ("journal.jsonl", "metrics.prom", "spans.jsonl",
                     "trace.json"):
            assert (telemetry / f"limewire_{name}").stat().st_size > 0
        # serving and exporting observe the campaign without changing it
        bare = tmp_path / "bare"
        assert main(base + ["--out", str(bare)]) == 0
        assert ((served / "limewire.jsonl").read_bytes()
                == (bare / "limewire.jsonl").read_bytes())


class TestHotspots:
    """``run --telemetry-dir`` ends with the kernel hotspot table."""

    def test_prints_ranked_table(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        code = main(["run", "--network", "limewire", "--days", "0.02",
                     "--scale", "0.35", "--out", str(tmp_path / "out"),
                     "--telemetry-dir", str(telemetry)])
        assert code == 0
        output = capsys.readouterr().out
        assert "kernel hotspots" in output
        assert "share" in output
        assert "observability endpoint" not in output
        assert (telemetry / "limewire_metrics.prom").exists()


class TestDoctor:
    @staticmethod
    def make_torn_checkpoint(path):
        from repro.resilience import frame_line
        header = frame_line({"kind": "header", "fingerprint": "a" * 64})
        seed = frame_line({"kind": "seed", "seed": 1, "metrics": {"x": 1.0}})
        path.write_text(header + "\n" + seed + "\n" + seed[:11])
        return path

    def test_parser(self):
        args = build_parser().parse_args(["doctor", "out/", "--repair"])
        assert [p.name for p in args.paths] == ["out"] and args.repair

    def test_no_artifacts_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["doctor", str(empty)]) == 2
        assert "no artifacts" in capsys.readouterr().out

    def test_missing_explicit_path_is_damage(self, tmp_path):
        assert main(["doctor", str(tmp_path / "gone.jsonl")]) == 1

    def test_healthy_artifacts_exit_0(self, tmp_path, capsys):
        (tmp_path / "ok.json").write_text("{}")
        assert main(["doctor", str(tmp_path)]) == 0
        assert "healthy" in capsys.readouterr().out

    def test_damage_without_repair_exits_1(self, tmp_path, capsys):
        self.make_torn_checkpoint(tmp_path / "ckpt.jsonl")
        assert main(["doctor", str(tmp_path)]) == 1
        output = capsys.readouterr().out
        assert "torn" in output and "--repair" in output

    def test_repair_then_healthy(self, tmp_path, capsys):
        journal = self.make_torn_checkpoint(tmp_path / "ckpt.jsonl")
        assert main(["doctor", str(tmp_path), "--repair"]) == 0
        capsys.readouterr()
        # second pass sees the truncated file as healthy
        assert main(["doctor", str(journal)]) == 0
        assert "healthy" in capsys.readouterr().out


class TestSupervisedReplicate:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["replicate"])
        assert args.deadline is None  # opt-in: long seeds must not die
        assert args.stall_timeout == 60.0
        assert args.hang_seeds is None

    def test_hang_seeds_require_supervision(self, capsys):
        # one worker (asked for, or one seed) runs in-process, where no
        # watchdog could kill the hang
        for argv in (["--seeds", "1", "--workers", "2"],
                     ["--seeds", "2", "--workers", "1"]):
            assert main(["replicate", *argv, "--hang-seeds", "1"]) == 2
            assert "needs 2+ workers" in capsys.readouterr().err

    def test_hang_seeds_must_be_seeds_of_the_run(self, capsys):
        code = main(["replicate", "--seeds", "2", "--workers", "2",
                     "--hang-seeds", "2", "99"])
        assert code == 2
        assert "[99] are not seeds of this run" in capsys.readouterr().err

    def test_supervised_run_matches_plain(self, capsys):
        base = ["replicate", "--network", "limewire", "--seeds", "2",
                "--days", "0.05"]
        assert main(base + ["--workers", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(base + ["--workers", "2", "--stall-timeout", "10"]) == 0
        supervised = capsys.readouterr().out
        assert "2 workers, watched" in supervised
        # identical science: every metric line agrees bit-for-bit
        metrics = [line for line in plain.splitlines() if "%" in line]
        assert metrics
        assert metrics == [line for line in supervised.splitlines()
                           if "%" in line]
