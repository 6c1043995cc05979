"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q

They cover the span fold, the wrappers, the output check, and the two
properties a traced run must keep: it saves the same store as an
untraced one, and a layer that does not run reads zero.
"""

from __future__ import annotations

import gc
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from check import check_outputs, load_reference  # noqa: E402
from pace import REFERENCE_S, Pace  # noqa: E402
from probes import LAYERS, combine, per_layer, timer_span  # noqa: E402
from run import world_env  # noqa: E402
from tracer import Recorder, fold  # noqa: E402
from workloads import WORKLOADS, pool, sweep_seeds, worlds  # noqa: E402


class FakeClock:
    """A clock that reads whatever the test set last."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- fold -------------------------------------------------------------------

def test_fold_self_times_add_up_to_the_root():
    names = [("harness", "root"), ("gnutella", "on_message"),
             ("simnet", "send"), ("python", "gc")]
    # root 0-10 > on_message 1-7 > send 2-4 > on_message 2.5-3.5;
    # root > gc 8-9
    name_id = [0, 1, 2, 1, 3]
    parent = [-1, 0, 1, 2, 0]
    start = [0.0, 1.0, 2.0, 2.5, 8.0]
    end = [10.0, 7.0, 4.0, 3.5, 9.0]
    result = fold(names, name_id, parent, start, end)
    assert result.layer_self == {"harness": 3.0, "gnutella": 5.0,
                                 "simnet": 1.0, "python": 1.0}
    assert sum(result.layer_self.values()) == result.root_s == 10.0
    assert result.unattributed_s == 3.0
    # the handler re-entered through send is one 6 s stretch, not 7 s
    assert result.name_inclusive["gnutella:on_message"] == 6.0
    assert result.name_calls["gnutella:on_message"] == 2


def test_fold_direct_recursion_counts_outermost_span_once():
    names = [("harness", "root"), ("files", "add")]
    result = fold(names, [0, 1, 1, 1], [-1, 0, 1, 2],
                  [0.0, 1.0, 2.0, 3.0], [9.0, 8.0, 7.0, 4.0])
    assert result.name_inclusive["files:add"] == 7.0
    assert result.layer_self["files"] == 7.0
    assert result.unattributed_s == 2.0


def test_recorder_wrappers_nest_and_count():
    clock = FakeClock()
    recorder = Recorder(clock)

    def leaf(value):
        clock.now += 1.0
        return value

    def outer(depth):
        clock.now += 2.0
        if depth:
            return outer_span(depth - 1)
        return counted(leaf_span(7))

    leaf_span = recorder.span("scanner", "leaf", leaf)
    outer_span = recorder.span("gnutella", "outer", outer)
    counted = recorder.counter("files:tokenize", lambda value: value)
    recorder.open_root()
    assert outer_span(1) == 7
    clock.now += 0.5
    assert recorder.close_root() == 5.5
    result = recorder.fold()
    assert result.layer_self == {"harness": 0.5, "gnutella": 4.0,
                                 "scanner": 1.0}
    assert result.name_inclusive["gnutella:outer"] == 5.0
    assert recorder.cells["files:tokenize"] == [1]


def test_gc_pause_is_a_python_span_inside_the_open_span():
    recorder = Recorder()
    work = recorder.span("peers", "build", gc.collect)
    recorder.open_root()
    with recorder:
        work()
    recorder.close_root()
    result = recorder.fold()
    assert result.name_calls["python:gc"] >= 1
    gc_ids = [index for index in range(recorder.size)
              if recorder.names[recorder.name_id[index]] == ("python", "gc")]
    assert all(recorder.names[recorder.name_id[recorder.parent[index]]]
               == ("peers", "build") for index in gc_ids)
    assert abs(sum(result.layer_self.values()) - result.root_s) < 1e-9


def test_spans_after_the_root_closes_are_left_out():
    recorder = Recorder()
    late = recorder.span("scanner", "late", lambda: None)
    recorder.open_root()
    recorder.close_root()
    late()
    assert recorder.fold().name_calls == {"harness:root": 1}


def test_timer_callbacks_are_charged_by_label():
    assert timer_span("download-retry") == ("core.measure", "timer:download")
    assert timer_span("churn") == ("peers", "timer:churn")
    assert timer_span("infect:worm-a") == ("peers", "timer:infect")
    assert timer_span("fault:partition") == ("faults", "timer:fault")
    assert timer_span("deliver") is None
    assert timer_span("something-new") == ("simnet", "timer:other")


def test_totals_add_up_over_worlds_and_fractions_use_the_sums():
    world = {"simnet.delivered": 90, "simnet.dropped": 10,
             "core.measure.download_attempts": 10,
             "core.measure.download_successes": 5,
             "scanner.scan_requests": 4, "scanner.cache_hits": 1,
             "peers.build_rss_mb": 20.0, "simnet.self_s": 1.5}
    other = dict(world, **{"simnet.delivered": 10, "simnet.dropped": 90,
                           "core.measure.download_successes": 10,
                           "peers.build_rss_mb": 30.0})
    metrics = per_layer(combine([world, other]))
    assert metrics["simnet.delivered_frac"] == 0.5
    assert metrics["core.measure.download_ok_frac"] == 0.75
    assert metrics["scanner.cache_hit_frac"] == 0.25
    assert metrics["peers.build_rss_mb"] == 30.0
    assert metrics["simnet.self_s"] == 3.0
    assert "simnet.delivered" not in metrics


def test_pace_scales_a_stretch_by_the_samples_inside_it():
    pace = Pace()
    pace.at.extend([0.0, 1.0, 2.0, 3.0])
    pace.took.extend([REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S,
                      2 * REFERENCE_S])
    # at the reference speed only the sampling's own time comes off
    assert pace.scaled(0.0, 2.0) == pytest.approx(2.0 - 2 * REFERENCE_S)
    # at half speed the stretch reads half as long
    assert pace.scaled(2.0, 4.0) == pytest.approx((2.0 - 4 * REFERENCE_S)
                                                  / 2)
    # a short stretch reads its speed from the samples around it
    assert pace.scaled(2.45, 2.55) == pytest.approx(0.1 / 2)
    # and from all of them when none is near
    assert pace.scaled(10.0, 10.1) == pytest.approx(0.1 / 1.5)


def test_pace_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Pace(interval=0.01) as pace:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(pace.took) >= 10
    assert all(took > 0 for took in pace.took)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_run_covers_pool_worlds_set_by_its_arguments():
    workload = WORKLOADS["oft-study"]
    picked = worlds(workload, 3, 5 * workload.world_s)
    assert picked == worlds(workload, 3, 5 * workload.world_s)
    assert len(set(picked)) == 5 and set(picked) <= set(pool(workload))
    assert picked != worlds(workload, 4, 5 * workload.world_s)
    assert len(worlds(workload, 3, 1.0)) == 1
    assert sorted(worlds(workload, 3, 1e6)) == pool(workload)


def test_every_pool_world_is_pinned():
    reference = load_reference()
    for name, workload in WORKLOADS.items():
        assert sorted(int(world) for world in reference[name]) == \
            pool(workload), name


# -- check ------------------------------------------------------------------

def _flip_one_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    at = data.index(b'"filename":"') + len(b'"filename":"')
    data[at] = ord("x") if data[at] != ord("x") else ord("y")
    path.write_bytes(bytes(data))


def test_check_rejects_a_store_with_one_byte_changed(tmp_path):
    from repro.core.measure import CampaignConfig, run_openft_campaign
    from repro.core.measure.campaign import default_profile

    result = run_openft_campaign(CampaignConfig(seed=3, duration_days=0.1),
                                 profile=default_profile("openft", 0.3))
    store = tmp_path / "openft.jsonl"
    result.store.save(store)
    workload = WORKLOADS["oft-study"]
    outputs = workload.outputs({"store": store, "report": "tables"})
    assert outputs["store_sha256"] == result.store.content_digest()
    assert check_outputs(workload, 3, outputs, outputs) == {}

    _flip_one_byte(store)
    changed = workload.outputs({"store": store, "report": "tables"})
    problems = check_outputs(workload, 3, changed, outputs)
    assert "store_sha256" in problems["study"][0]


def _sweep_outputs(seed, values, degraded=False, failed=()):
    headline = {str(each): dict(values) for each in sweep_seeds(seed)
                if each not in failed}
    return {"degraded": degraded, "failed_seeds": list(failed),
            "headline": headline}


def test_check_rejects_a_degraded_sweep():
    workload = WORKLOADS["lw-sweep"]
    good = {"prevalence": 0.7, "top3_share": 0.99, "private_share": 0.27}
    assert check_outputs(workload, 5, _sweep_outputs(5, good), None) == {}

    quarantined = _sweep_outputs(5, good, degraded=True, failed=(11,))
    assert list(check_outputs(workload, 5, quarantined, None)) == ["11"]
    flagged = _sweep_outputs(5, good, degraded=True)
    assert list(check_outputs(workload, 5, flagged, None)) == ["sweep"]


def test_check_holds_other_seeds_to_the_claim_bands():
    workload = WORKLOADS["lw-sweep"]
    low = {"prevalence": 0.2, "top3_share": 0.99, "private_share": 0.27}
    problems = check_outputs(workload, 5, _sweep_outputs(5, low), None)
    assert sorted(problems) == ["10", "11"]
    assert "prevalence" in problems["10"][0]


# -- traced campaigns (fresh interpreters, like the benchmark) --------------

_CAMPAIGN = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
from probes import Probes, per_layer
from tracer import Recorder
network, traced = sys.argv[1], sys.argv[2] == "trace"
recorder = Recorder() if traced else None
probes = Probes(recorder)
probes.install()
from repro.core.measure import campaign
runner = getattr(campaign, f"run_{{network}}_campaign")
config = campaign.CampaignConfig(seed=3, duration_days=0.1)
profile = campaign.default_profile(network, 0.3)
if recorder is None:
    result = runner(config, profile=profile)
    layers, fired = {{}}, {{}}
else:
    recorder.open_root()
    with recorder:
        result = runner(config, profile=profile)
        recorder.close_root()
    fold = recorder.fold()
    layers = per_layer(probes.layer_totals(fold))
    fired = probes.fired(fold)
print(json.dumps({{"digest": result.store.content_digest(),
                  "setup_s": probes.setup_s, "layers": layers,
                  "fired": fired}}))
"""


def _campaign(network: str, mode: str, env=None) -> dict:
    script = _CAMPAIGN.format(perfbench=str(HERE), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, network, mode],
                          capture_output=True, text=True, timeout=120,
                          check=True, env=env)
    return json.loads(done.stdout.splitlines()[-1])


def test_counts_repeat_exactly_for_a_world():
    runs = [_campaign("limewire", "trace", env=world_env(3))["layers"]
            for _ in range(2)]
    counts = sorted(name for name, value in runs[0].items()
                    if isinstance(value, int))
    assert "gnutella.qrp_hash_calls" in counts
    assert [runs[0][name] for name in counts] == \
        [runs[1][name] for name in counts]


@pytest.mark.parametrize("network", ["limewire", "openft"])
def test_traced_campaign_saves_the_untraced_store(network):
    plain = _campaign(network, "plain")
    traced = _campaign(network, "trace")
    assert traced["digest"] == plain["digest"]
    assert plain["setup_s"] > 0 and traced["setup_s"] > 0
    layers = traced["layers"]
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    assert abs(total + layers["unattributed_s"] - layers["trace.wall_s"]) \
        < 1e-6 * layers["trace.wall_s"]
    assert layers["simnet.events"] > 0 and layers["scanner.scans"] > 0
    # timer callbacks and the collector's response handler are charged
    # to their layers, not to the kernel or the protocol handler
    fired = traced["fired"]
    for key in ("core.measure:timer:query", "core.measure:timer:download",
                "peers:timer:churn"):
        assert fired.get(key), key
    assert layers["core.measure.self_s"] > 0 and layers["peers.self_s"] > 0
    if network == "openft":
        assert fired.get("core.measure:OpenFTCollector._on_result")
        assert layers["openft.deliveries"] > 0
        for name in ("gnutella.qrp_syncs", "gnutella.qrp_sync_s",
                     "gnutella.qrp_hash_calls", "gnutella.deliveries"):
            assert layers[name] == 0, name
    else:
        assert fired.get("core.measure:LimewireCollector._on_hit")
        assert layers["gnutella.qrp_hash_calls"] > 0
        assert layers["openft.deliveries"] == 0


# -- contract ---------------------------------------------------------------

def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py",
                           "--workload", "lw-study", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
