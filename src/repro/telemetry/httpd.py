"""Live observability plane: a read-only HTTP server over telemetry.

The paper's authors could *watch* their instrumented clients collect
responses; :class:`TelemetryServer` gives a running campaign the same
property over plain HTTP, stdlib only:

========================  ==============================================
``/``                     zero-dependency auto-refreshing HTML dashboard
``/metrics``              Prometheus text format (scrapeable)
``/healthz``              liveness JSON
``/snapshot.json``        merged registry snapshot + latest journal rows
``/dashboard.json``       the dashboard's pre-digested state
``/journal``              safe tail of the JSONL run journal(s)
``/trace.json``           Chrome trace-event export of the span chains
``/hotspots.json``        per-label kernel hotspot report
========================  ==============================================

Determinism contract -- the server must be invisible to the run:

* it never schedules simulator events, never mutates a campaign
  registry (every render merges *snapshots* into a throwaway registry),
  and never writes anything;
* it reads no wall clock, so ``detlint --strict`` needs no new
  baseline entry for this module;
* a campaign's event digest and store sha256 are bit-identical with
  the server on or off (asserted under concurrent scrapes by
  ``tests/integration/test_observability.py::TestServerEquivalence``
  and by the ``bench_observability`` leg).

Handlers race the simulation thread only through the GIL: a registry
snapshot taken mid-mutation can raise ``RuntimeError`` (dict changed
size during iteration), which the hub absorbs by retrying; after
:data:`_SNAPSHOT_RETRIES` misses the source is skipped for that
request rather than crashing the scrape.

An :class:`ObservatoryHub` is the aggregation point the server renders
from.  It serves one live :class:`~repro.telemetry.runtime.
CampaignTelemetry` bundle just as happily as a replication fan-out:
``run_replications`` records each finished worker's registry snapshot
under its seed, and every render merges live bundles first, then
recorded snapshots in ascending seed order -- the same deterministic
merge order the offline ``<network>_merged_metrics.prom`` uses.
"""

from __future__ import annotations

import html
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .registry import MetricRegistry

__all__ = ["ObservatoryHub", "TelemetryServer", "tail_journal"]

#: snapshot attempts per live registry before a request skips it
_SNAPSHOT_RETRIES = 8

#: default bytes read from the end of a journal file per tail
_TAIL_MAX_BYTES = 256 * 1024


def tail_journal(path: Path, limit: int = 50,
                 max_bytes: int = _TAIL_MAX_BYTES) -> List[dict]:
    """The last ``limit`` well-formed rows of a JSONL journal.

    Tolerates a writer mid-line: only the final ``max_bytes`` are read,
    a first line that may have been cut by the seek is dropped, and any
    line that does not parse as a JSON object (most likely the last,
    still being written) is skipped.  A missing file is an empty tail,
    not an error -- replication journals appear as workers start.
    """
    try:
        with Path(path).open("rb") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            start = max(0, size - max_bytes)
            handle.seek(start)
            data = handle.read()
    except OSError:
        return []
    lines = data.decode("utf-8", errors="replace").split("\n")
    if start > 0:
        lines = lines[1:]  # the seek may have landed mid-record
    rows: List[dict] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue  # partial write in progress
        if isinstance(row, dict):
            rows.append(row)
    return rows[-limit:] if limit > 0 else rows


class ObservatoryHub:
    """Thread-safe, read-only aggregation point the server renders from.

    Sources are registered once (cheap, lock-guarded) and *read* on
    every request; nothing here holds simulator state.  Keys passed to
    :meth:`record_snapshot` must be mutually sortable (replication
    seeds are ints) -- renders merge recorded snapshots in ascending
    key order so the output is deterministic.
    """

    def __init__(self, title: str = "repro-study") -> None:
        self.title = title
        self._lock = threading.Lock()
        #: (name, CampaignTelemetry) live bundles, registration order
        self._campaigns: List[Tuple[str, object]] = []
        #: key -> registry snapshot (finished replication workers)
        self._snapshots: Dict[object, dict] = {}
        #: (name, path) JSONL journals to tail
        self._journals: List[Tuple[str, Path]] = []
        #: static facts shown on the dashboard (network, seed, ...)
        self._status: Dict[str, object] = {}

    # -- registration -------------------------------------------------------
    def add_campaign(self, name: str, telemetry) -> None:
        """Serve a live :class:`CampaignTelemetry` bundle."""
        with self._lock:
            self._campaigns.append((name, telemetry))
            journal = getattr(telemetry, "journal", None)
            if journal is not None:
                self._journals.append((name, Path(journal.path)))

    def add_journal(self, name: str, path: Path) -> None:
        """Tail a journal file that no live bundle owns (replications)."""
        with self._lock:
            self._journals.append((name, Path(path)))

    def record_snapshot(self, key, snapshot: dict) -> None:
        """Record (or replace) one worker's registry snapshot."""
        with self._lock:
            self._snapshots[key] = snapshot

    def set_status(self, **fields) -> None:
        """Merge static facts into the dashboard status block."""
        with self._lock:
            self._status.update(fields)

    # -- reads --------------------------------------------------------------
    def _sources(self):
        with self._lock:
            return (list(self._campaigns),
                    sorted(self._snapshots.items()),
                    list(self._journals),
                    dict(self._status))

    @staticmethod
    def _live_snapshot(registry) -> Optional[dict]:
        """Snapshot a registry the simulation thread may be mutating."""
        for _ in range(_SNAPSHOT_RETRIES):
            try:
                return registry.snapshot()
            except RuntimeError:
                continue  # dict grew mid-iteration; take it again
        return None

    def merged_registry(self) -> MetricRegistry:
        """A throwaway registry holding every source, merged fresh.

        Live bundles are snapshotted at request time; recorded worker
        snapshots merge after them in ascending key order.  The merge
        never touches a source registry, which is what keeps the
        server strictly read-only.
        """
        campaigns, recorded, _journals, _status = self._sources()
        merged = MetricRegistry(max_label_cardinality=None)
        for _name, telemetry in campaigns:
            snapshot = self._live_snapshot(telemetry.registry)
            if snapshot is not None:
                merged.merge_snapshot(snapshot)
        for _key, snapshot in recorded:
            if snapshot:
                merged.merge_snapshot(snapshot)
        return merged

    def render_prometheus(self) -> str:
        """The merged ``/metrics`` body."""
        return self.merged_registry().render_prometheus()

    def journal_rows(self, limit: int = 50) -> Dict[str, List[dict]]:
        """Tail every registered journal; name -> rows (oldest first)."""
        _campaigns, _recorded, journals, _status = self._sources()
        return {name: tail_journal(path, limit=limit)
                for name, path in journals}

    def health(self) -> dict:
        """The cheap ``/healthz`` body (no registry merge)."""
        campaigns, recorded, journals, _status = self._sources()
        return {"status": "ok", "title": self.title,
                "campaigns": len(campaigns),
                "worker_snapshots": len(recorded),
                "journals": len(journals)}

    def snapshot(self) -> dict:
        """The ``/snapshot.json`` body: registry + latest journal rows."""
        _campaigns, _recorded, _journals, status = self._sources()
        latest = {name: rows[-1] for name, rows
                  in self.journal_rows(limit=1).items() if rows}
        return {"title": self.title, "status": status,
                "registry": self.merged_registry().snapshot(),
                "journals": latest}

    def dashboard_state(self) -> dict:
        """Pre-digested numbers for the HTML dashboard."""
        registry = self.merged_registry()
        _campaigns, _recorded, _journals, status = self._sources()

        def value(name: str) -> float:
            metric = registry.get(name)
            if metric is None:
                return 0.0
            try:
                return float(metric.value)
            except ValueError:  # labelled gauge: no scalar to show
                return 0.0

        latest = {name: rows[-1] for name, rows
                  in self.journal_rows(limit=1).items() if rows}
        events_per_sec = sum(
            float(row.get("events_per_sec") or 0.0)
            for row in latest.values())
        top: Dict[str, int] = {}
        for row in latest.values():
            for entry in row.get("top_malware") or ():
                if isinstance(entry, dict) and "name" in entry:
                    top[str(entry["name"])] = (
                        top.get(str(entry["name"]), 0)
                        + int(entry.get("responses") or 0))
        top_malware = [{"name": name, "responses": count}
                       for name, count in sorted(
                           top.items(),
                           key=lambda item: (-item[1], item[0]))[:5]]
        return {
            "title": self.title,
            "status": status,
            "virtual_time": value("sim_virtual_time_seconds"),
            "events_total": value("sim_events_total"),
            "events_per_sec": events_per_sec,
            "queue_depth": value("sim_queue_depth"),
            "queue_near_depth": value("sim_queue_near_depth"),
            "queue_wheel_depth": value("sim_queue_wheel_depth"),
            "downloads_in_flight": value("downloader_in_flight"),
            "infections": value("downloader_malicious_total"),
            "responses_collected": value("collector_responses_total"),
            "queries_issued": value("collector_queries_total"),
            "top_malware": top_malware,
            "journals": latest,
        }

    def trace(self, sample_every: int = 1) -> dict:
        """Chrome trace-event export across every live campaign."""
        from .tracer import build_trace
        campaigns, _recorded, _journals, _status = self._sources()
        events: List[dict] = []
        for index, (name, telemetry) in enumerate(campaigns):
            tracer = getattr(telemetry, "tracer", None)
            if tracer is None:
                continue
            part = build_trace(tracer, sample_every=sample_every,
                               pid=index + 1, process_name=name)
            events.extend(part["traceEvents"])
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"campaigns": len(campaigns)}}

    def hotspots(self) -> dict:
        """The ``/hotspots.json`` body."""
        from .profiler import HotspotReport
        return HotspotReport.from_registry(self.merged_registry()).to_dict()


_DASHBOARD_TEMPLATE = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>__TITLE__</title>
<noscript><meta http-equiv="refresh" content="2"></noscript>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 46rem; color: #222; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 1.5rem; }
table { border-collapse: collapse; width: 100%; }
td, th { padding: .25rem .6rem; border-bottom: 1px solid #ddd;
         text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
small { color: #777; }
</style>
</head>
<body>
<h1>__TITLE__ <small>live campaign observatory</small></h1>
<table>
<tr><th>virtual time</th><td class="num" id="virtual_time">__VIRTUAL__</td></tr>
<tr><th>kernel events</th><td class="num" id="events_total">__EVENTS__</td></tr>
<tr><th>events / s (wall)</th><td class="num" id="events_per_sec">__EPS__</td></tr>
<tr><th>queue depth (near + wheel)</th><td class="num" id="queue">__QUEUE__</td></tr>
<tr><th>responses collected</th><td class="num" id="responses">__RESPONSES__</td></tr>
<tr><th>downloads in flight</th><td class="num" id="in_flight">__INFLIGHT__</td></tr>
<tr><th>infections (dirty scans)</th><td class="num" id="infections">__INFECTIONS__</td></tr>
</table>
<h2>top malware so far</h2>
<ol id="top_malware">__TOP__</ol>
<p><small>endpoints: <a href="metrics">/metrics</a> &middot;
<a href="snapshot.json">/snapshot.json</a> &middot;
<a href="journal">/journal</a> &middot;
<a href="trace.json">/trace.json</a> &middot;
<a href="hotspots.json">/hotspots.json</a> &middot;
<a href="healthz">/healthz</a> &mdash; refreshes every 2s</small></p>
<script>
function fmt(x, digits) {
  return Number(x).toLocaleString(undefined,
    {maximumFractionDigits: digits === undefined ? 0 : digits});
}
async function tick() {
  try {
    const response = await fetch('dashboard.json', {cache: 'no-store'});
    if (!response.ok) return;
    const d = await response.json();
    document.getElementById('virtual_time').textContent =
      fmt(d.virtual_time, 1) + ' s';
    document.getElementById('events_total').textContent =
      fmt(d.events_total);
    document.getElementById('events_per_sec').textContent =
      fmt(d.events_per_sec);
    document.getElementById('queue').textContent =
      fmt(d.queue_depth) + '  (' + fmt(d.queue_near_depth) + ' + '
      + fmt(d.queue_wheel_depth) + ')';
    document.getElementById('responses').textContent =
      fmt(d.responses_collected);
    document.getElementById('in_flight').textContent =
      fmt(d.downloads_in_flight);
    document.getElementById('infections').textContent =
      fmt(d.infections);
    const list = document.getElementById('top_malware');
    list.textContent = '';
    for (const row of d.top_malware) {
      const item = document.createElement('li');
      item.textContent = row.name + ' — ' + fmt(row.responses)
        + ' responses';
      list.appendChild(item);
    }
  } catch (e) { /* server mid-restart: try again next tick */ }
}
setInterval(tick, 2000);
tick();
</script>
</body>
</html>
"""


def _render_dashboard(state: dict) -> str:
    """Server-side fill of the template (works without JavaScript)."""
    top = "".join(
        f"<li>{html.escape(str(row['name']))} &mdash; "
        f"{row['responses']:,} responses</li>"
        for row in state["top_malware"]) or "<li><small>none yet</small></li>"
    queue = (f"{state['queue_depth']:,.0f}  "
             f"({state['queue_near_depth']:,.0f} + "
             f"{state['queue_wheel_depth']:,.0f})")
    page = _DASHBOARD_TEMPLATE
    for marker, text in (
            ("__TITLE__", html.escape(state["title"])),
            ("__VIRTUAL__", f"{state['virtual_time']:,.1f} s"),
            ("__EVENTS__", f"{state['events_total']:,.0f}"),
            ("__EPS__", f"{state['events_per_sec']:,.0f}"),
            ("__QUEUE__", queue),
            ("__RESPONSES__", f"{state['responses_collected']:,.0f}"),
            ("__INFLIGHT__", f"{state['downloads_in_flight']:,.0f}"),
            ("__INFECTIONS__", f"{state['infections']:,.0f}"),
            ("__TOP__", top)):
        page = page.replace(marker, text)
    return page


class _ObservatoryHandler(BaseHTTPRequestHandler):
    """Routes GET requests to hub reads; everything else is a 405."""

    server_version = "repro-observatory/1"
    protocol_version = "HTTP/1.1"

    @property
    def hub(self) -> ObservatoryHub:
        return self.server.hub  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # scrapes must not spam the campaign's stdout

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload: dict, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        query = parse_qs(parsed.query)
        try:
            if route == "/":
                body = _render_dashboard(self.hub.dashboard_state())
                self._send(200, body.encode("utf-8"),
                           "text/html; charset=utf-8")
            elif route == "/metrics":
                self._send(200,
                           self.hub.render_prometheus().encode("utf-8"),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif route == "/healthz":
                self._json(self.hub.health())
            elif route == "/snapshot.json":
                self._json(self.hub.snapshot())
            elif route == "/dashboard.json":
                self._json(self.hub.dashboard_state())
            elif route == "/journal":
                limit = self._int_param(query, "n", 50)
                self._json({"journals": self.hub.journal_rows(limit=limit)})
            elif route == "/trace.json":
                sample = max(1, self._int_param(query, "sample", 1))
                self._json(self.hub.trace(sample_every=sample))
            elif route == "/hotspots.json":
                self._json(self.hub.hotspots())
            else:
                self._send(404, b"not found\n", "text/plain; charset=utf-8")
        except Exception as error:  # a scrape must never kill the server
            self._json({"status": "unavailable",
                        "error": f"{type(error).__name__}: {error}"},
                       status=503)

    @staticmethod
    def _int_param(query: dict, name: str, default: int) -> int:
        try:
            return int(query.get(name, [default])[0])
        except (TypeError, ValueError):
            return default


class TelemetryServer:
    """A daemon-threaded :class:`ThreadingHTTPServer` over one hub.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` / :attr:`url` after :meth:`start`).  The server is a
    context manager; :meth:`stop` is idempotent and joins the accept
    thread so tests can assert clean shutdown.
    """

    def __init__(self, hub: ObservatoryHub, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.hub = hub
        self.host = host
        self._requested_port = port
        # start()/stop() and the running/port/url reads race: callers
        # hand ``self`` to scrape threads (cli's serve loop reads
        # ``server.url`` while the mainline may be tearing down), so
        # the server-handle fields go through one lock.
        self._state_lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "TelemetryServer":
        """Bind and serve in a background daemon thread; returns self."""
        with self._state_lock:
            if self._httpd is not None:
                return self
            httpd = ThreadingHTTPServer((self.host, self._requested_port),
                                        _ObservatoryHandler)
            httpd.daemon_threads = True
            httpd.hub = self.hub  # type: ignore[attr-defined]
            thread = threading.Thread(
                target=httpd.serve_forever, name="telemetry-httpd",
                daemon=True)
            self._httpd = httpd
            self._thread = thread
        thread.start()
        return self

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        with self._state_lock:
            return self._httpd is not None

    @property
    def port(self) -> int:
        """The bound port (the requested one before :meth:`start`)."""
        with self._state_lock:
            if self._httpd is not None:
                return self._httpd.server_address[1]
            return self._requested_port

    @property
    def url(self) -> str:
        """Base URL, trailing slash included."""
        return f"http://{self.host}:{self.port}/"

    def stop(self) -> None:
        """Shut down, close the socket and join the accept thread."""
        with self._state_lock:
            httpd, thread = self._httpd, self._thread
            self._httpd = self._thread = None
        if httpd is None:
            return
        # shutdown() blocks until serve_forever() returns -- never hold
        # the state lock across it or a concurrent port read deadlocks
        httpd.shutdown()
        if thread is not None:
            thread.join(timeout=5.0)
        httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
