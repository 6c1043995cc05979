"""End-to-end telemetry: instrumented campaigns and replication merges.

One scaled-down instrumented Limewire campaign is shared module-wide;
everything here reads from the same run, mirroring how a real campaign
exports one registry, one journal and one span file.
"""

import json

import pytest

from repro.core.experiments import run_replications
from repro.core.measure import campaign
from repro.core.measure.campaign import (CampaignConfig,
                                         run_limewire_campaign)
from repro.peers.profiles import GnutellaProfile
from repro.telemetry import CampaignTelemetry, MetricRegistry, RunJournal

CONFIG = CampaignConfig(seed=2, duration_days=0.1)
PROFILE_SCALE = 0.4


def journaled(directory):
    """A bundle whose journal snapshots every 600 virtual seconds."""
    registry = MetricRegistry()
    journal = RunJournal(directory / "limewire_journal.jsonl",
                         interval_s=600.0, registry=registry)
    return CampaignTelemetry(registry=registry, journal=journal)


@pytest.fixture(scope="module")
def instrumented(tmp_path_factory):
    directory = tmp_path_factory.mktemp("telemetry")
    telemetry = journaled(directory)
    result = run_limewire_campaign(
        CONFIG, profile=GnutellaProfile().scaled(PROFILE_SCALE),
        telemetry=telemetry)
    paths = telemetry.write_outputs(directory, "limewire")
    return result, telemetry, paths


class TestMetricsExport:
    def test_metric_names_span_every_layer(self, instrumented):
        _, telemetry, _ = instrumented
        names = {metric.name for metric in telemetry.registry}
        assert len(names) >= 12
        layers = {"sim": False, "scanner": False, "downloader": False,
                  "collector": False}
        for name in names:
            prefix = name.split("_", 1)[0]
            if prefix in layers:
                layers[prefix] = True
        assert all(layers.values()), f"missing layers in {sorted(names)}"

    def test_prometheus_file_written(self, instrumented):
        _, telemetry, paths = instrumented
        text = paths["metrics"].read_text()
        assert text == telemetry.registry.render_prometheus()
        assert "sim_events_total" in text
        assert "scanner_cache_requests_total" in text

    def test_counters_agree_with_campaign_result(self, instrumented):
        result, telemetry, _ = instrumented
        registry = telemetry.registry
        assert (registry.get("collector_responses_total").value
                == len(result.store))
        # the scanner compat properties read the same registry counters
        engine = result.engine
        assert (registry.get("scanner_cache_requests_total").labels("hit")
                .value == engine.cache_hits)
        assert (registry.get("scanner_scans_total").value
                == engine.scans_performed)
        success = (registry.get("downloader_attempts_total")
                   .labels("success").value)
        assert success > 0
        assert success == registry.get("downloader_enqueued_total").value \
            - registry.get("downloader_attempts_total").labels("offline").value


class TestJournal:
    def test_journal_has_periodic_rows_with_probes(self, instrumented):
        result, _, paths = instrumented
        rows = [json.loads(line)
                for line in paths["journal"].read_text().splitlines()]
        assert len(rows) >= 3
        assert rows[-1]["final"] is True
        # virtual time advances monotonically at the configured cadence
        times = [row["virtual_time"] for row in rows]
        assert times == sorted(times)
        assert times[0] == pytest.approx(600.0)
        last = rows[-1]
        assert last["responses_collected"] == len(result.store)
        assert 0.0 <= last["scan_cache_hit_rate"] <= 1.0
        assert isinstance(last["top_malware"], list)
        assert last["top_malware"][0]["responses"] >= \
            last["top_malware"][-1]["responses"]


class TestTopMalwareTally:
    def test_equals_a_store_walk_at_every_snapshot(self, tmp_path,
                                                   monkeypatch):
        # beside the tally probe, a second probe walks the whole store
        # the way the journal used to; both read the same instant
        def walk(store):
            counts = {}
            for record in store:
                if record.malware_name:
                    counts[record.malware_name] = (
                        counts.get(record.malware_name, 0) + 1)
            ranked = sorted(counts.items(),
                            key=lambda item: (-item[1], item[0]))
            return [{"name": name, "responses": count}
                    for name, count in ranked[:3]]

        install = campaign._install_journal

        def install_with_walk(telemetry, sim, store, *args, **kwargs):
            telemetry.journal.add_probe("walked", lambda: walk(store))
            install(telemetry, sim, store, *args, **kwargs)

        monkeypatch.setattr(campaign, "_install_journal", install_with_walk)
        telemetry = journaled(tmp_path)
        run_limewire_campaign(
            CONFIG, profile=GnutellaProfile().scaled(PROFILE_SCALE),
            telemetry=telemetry)
        rows = [json.loads(line)
                for line in telemetry.journal.path.read_text().splitlines()]
        assert len(rows) >= 3
        assert rows[-1]["top_malware"], "campaign saw no malware"
        for row in rows:
            assert row["top_malware"] == row["walked"]


class TestSpans:
    def test_scan_spans_chain_back_to_query(self, instrumented):
        _, telemetry, _ = instrumented
        tracer = telemetry.tracer
        scans = tracer.spans("scan")
        assert scans
        for scan in scans[:50]:
            chain = [span.name for span in tracer.chain(scan)]
            assert chain == ["query", "response", "download", "scan"]

    def test_chains_cover_virtual_time(self, instrumented):
        _, telemetry, _ = instrumented
        tracer = telemetry.tracer
        durations = [tracer.chain_virtual_duration(scan)
                     for scan in tracer.spans("scan")]
        assert all(duration >= 0.0 for duration in durations)
        assert max(durations) > 0.0

    def test_span_file_round_trips(self, instrumented):
        _, telemetry, paths = instrumented
        rows = [json.loads(line)
                for line in paths["spans"].read_text().splitlines()]
        assert len(rows) == len(telemetry.tracer.spans())
        assert {row["name"] for row in rows} >= {
            "query", "response", "download", "scan"}


class TestDeterminism:
    def test_store_bit_identical_with_and_without_telemetry(
            self, instrumented, tmp_path):
        result, _, _ = instrumented
        plain = run_limewire_campaign(
            CONFIG, profile=GnutellaProfile().scaled(PROFILE_SCALE))
        assert len(plain.store) == len(result.store)
        assert ([record.to_json() for record in plain.store]
                == [record.to_json() for record in result.store])


def _stable_lines(path):
    """Prometheus lines minus the wall-clock-valued histogram.

    ``sim_callback_wall_seconds`` buckets real elapsed time, which
    varies run to run; everything else in a campaign registry is a
    function of the seed alone.
    """
    return [line for line in path.read_text().splitlines()
            if "sim_callback_wall_seconds" not in line]


class TestReplicationMerge:
    def test_merged_registry_deterministic_across_worker_counts(
            self, tmp_path):
        profile = GnutellaProfile().scaled(PROFILE_SCALE)
        seeds = (3, 4)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_replications("limewire", seeds, CONFIG,
                                  profile=profile, workers=1,
                                  telemetry_dir=serial_dir)
        parallel = run_replications("limewire", seeds, CONFIG,
                                    profile=profile, workers=2,
                                    telemetry_dir=parallel_dir)
        for name in serial.metrics:
            assert (serial.metrics[name].values
                    == parallel.metrics[name].values)
        assert serial.telemetry_path.name == "limewire_merged_metrics.prom"
        assert (_stable_lines(serial.telemetry_path)
                == _stable_lines(parallel.telemetry_path))
        # merged counters sum across seeds: each seed's events land once
        merged = serial.registry.get("sim_events_total").value
        per_seed = []
        for seed in seeds:
            prom = serial_dir / f"limewire_seed{seed}_metrics.prom"
            assert prom.exists()
            journal = serial_dir / f"limewire_seed{seed}_journal.jsonl"
            assert journal.read_text().strip()
            total = 0.0
            for line in prom.read_text().splitlines():
                if line.startswith("sim_events_total{"):
                    total += float(line.rsplit(" ", 1)[1])
            per_seed.append(total)
        assert merged == sum(per_seed)
