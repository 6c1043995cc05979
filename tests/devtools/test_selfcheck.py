"""The tree's own determinism checks, run in tier-1.

The digest campaign the golden fixtures pin, the repo-is-clean lint
gate (and its SARIF export), and the lock-order check over a live,
scraped campaign.  Together with the golden fixtures and the replay
tests these are the whole determinism check: there is no separate
runtime guard or ``selfcheck`` command.
"""

import threading
from pathlib import Path
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.devtools.digest import run_digest_campaign

FAST = dict(days=0.02, scale=0.25)


class TestRunDigestCampaign:
    def test_same_seed_twice_matches(self):
        first = run_digest_campaign("limewire", seed=5, **FAST)
        second = run_digest_campaign("limewire", seed=5, **FAST)
        assert first == second  # digest, events, metrics, store sha

    def test_different_seeds_differ(self):
        first = run_digest_campaign("limewire", seed=5, **FAST)
        second = run_digest_campaign("limewire", seed=6, **FAST)
        assert first[0] != second[0]

    def test_openft_network_supported(self):
        digest, events, metrics, store_sha = run_digest_campaign(
            "openft", seed=5, **FAST)
        assert events > 0
        assert "prevalence" in metrics
        assert len(store_sha) == 64

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            run_digest_campaign("napster", seed=1, **FAST)


class TestRepoIsClean:
    """`repro-study lint --strict` exits 0 on this very tree.

    This is the enforcement: a determinism hazard anywhere in src/
    fails tier-1, not just the CI lint job.
    """

    def test_lint_strict_exit_zero(self, capsys):
        root = Path(__file__).resolve().parents[2]
        assert (root / "pyproject.toml").exists()
        code = main(["lint", "--strict", "--root", str(root)])
        out = capsys.readouterr().out
        assert code == 0, f"detlint found hazards:\n{out}"
        assert "0 findings" in out

    def test_lint_cached_run_is_byte_identical(self, capsys):
        from repro.devtools.detlint import lint_repo
        root = Path(__file__).resolve().parents[2]
        cold = lint_repo(root, use_cache=False)
        warm = lint_repo(root, use_cache=True)  # populates
        hot = lint_repo(root, use_cache=True)  # all hits
        assert cold.render(strict=True) == warm.render(strict=True) \
            == hot.render(strict=True)
        assert hot.cache_hits > 0

    def test_baseline_entries_stay_annotated_and_allowed(self):
        from repro.devtools.detlint import (BASELINE_ALLOWED_CODES,
                                            load_baseline)
        root = Path(__file__).resolve().parents[2]
        entries = load_baseline(root / "detlint-baseline.txt")
        assert entries, "baseline should carry the telemetry whitelist"
        # load_baseline enforces annotations + the allowed-code policy;
        # re-assert the policy itself so a loosening shows up here
        assert all(code in BASELINE_ALLOWED_CODES for code, _ in entries)
        assert "DET001" not in BASELINE_ALLOWED_CODES
        assert "LAY001" not in BASELINE_ALLOWED_CODES
        # every entry is observability- or supervision-side wall clock:
        # telemetry exporters, the kernel's sampled-callback pair, or
        # the resilience supervisor's watchdogs -- never simulation
        # state
        assert all("telemetry" in path or "kernel" in path
                   or "resilience" in path
                   for _, path in entries)

    def test_baseline_rejects_unannotated_entry(self, tmp_path):
        from repro.devtools.detlint import BaselineError, load_baseline
        bad = tmp_path / "baseline.txt"
        bad.write_text("DET002 src/repro/telemetry/spans.py\n")
        with pytest.raises(BaselineError, match="annotation"):
            load_baseline(bad)

    def test_baseline_rejects_hard_error_codes(self, tmp_path):
        from repro.devtools.detlint import BaselineError, load_baseline
        bad = tmp_path / "baseline.txt"
        bad.write_text("DET001 src/repro/core/x.py  # please\n")
        with pytest.raises(BaselineError, match="hard error"):
            load_baseline(bad)


class TestLockOrderCheck:
    """Record every lock acquisition while a live campaign is scraped.

    The runtime counterpart of detlint's CONC002: the full telemetry
    plane (hub + HTTP server) is built under a
    :class:`LockOrderRecorder`, a scrape thread hammers it over real
    HTTP while an instrumented campaign runs on the mainline, and any
    cycle in the observed acquisition graph fails.  CONC002 cannot see
    a lock taken through another object; this check can.
    """

    def test_lock_order_check_passes_on_clean_tree(self):
        from repro.core.measure.campaign import (CampaignConfig,
                                                 run_limewire_campaign)
        from repro.devtools.lockorder import LockOrderRecorder
        from repro.peers.profiles import GnutellaProfile
        from repro.telemetry import CampaignTelemetry
        from repro.telemetry.httpd import ObservatoryHub, TelemetryServer

        scrapes = [0]
        with LockOrderRecorder() as recorder:
            hub = ObservatoryHub(title="lock-order check")
            telemetry = CampaignTelemetry()
            hub.add_campaign("limewire", telemetry)
            server = TelemetryServer(hub).start()
            url = server.url
            stop = threading.Event()

            def scrape() -> None:
                while not stop.is_set():
                    for endpoint in ("metrics", "healthz", "snapshot.json"):
                        try:
                            with urlopen(url + endpoint,
                                         timeout=1) as response:
                                response.read()
                            scrapes[0] += 1
                        except OSError:
                            pass

            scraper = threading.Thread(target=scrape, daemon=True,
                                       name="lock-order-scraper")
            scraper.start()
            try:
                run_limewire_campaign(
                    CampaignConfig(seed=1, duration_days=0.02),
                    profile=GnutellaProfile().scaled(0.25),
                    telemetry=telemetry)
            finally:
                stop.set()
                scraper.join(timeout=5.0)
                server.stop()
        # zero tracked locks or scrapes would mean the recorder never
        # saw the telemetry plane: a broken check, not a pass
        assert recorder.locks_created > 0
        assert scrapes[0] > 0
        assert recorder.cycles() == [], recorder.render()


class TestCli:
    def test_cli_lint_sarif_output(self, capsys, tmp_path):
        import json
        root = Path(__file__).resolve().parents[2]
        sarif_path = tmp_path / "lint.sarif"
        code = main(["lint", "--strict", "--root", str(root),
                     "--sarif", str(sarif_path)])
        assert code == 0
        log = json.loads(sarif_path.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["tool"]["driver"]["name"] == "detlint"
        # clean tree: no results, and the file is deterministic
        assert log["runs"][0]["results"] == []
