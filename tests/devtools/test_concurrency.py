"""Concurrency lint (CONC001-003): seeded-mutation pairs.

The bad fixture reproduces the shape of the real TelemetryServer race
this pass caught (handler thread reading fields the mainline mutates
without a lock); the fixed fixture is the shape of the fix.
"""

import textwrap

from .conftest import codes, concurrency_source


def lint(snippet, **kwargs):
    return concurrency_source(textwrap.dedent(snippet), **kwargs)


BAD_SERVER = """
    import threading
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            if self.server.owner._httpd is None:
                return
            self.server.owner.hits += 1

    class Server:
        def __init__(self):
            self._httpd = None
            self.hits = 0
            self._thread = None

        def start(self):
            self._httpd = object()
            self._thread = threading.Thread(target=self._serve)
            self._thread.start()

        def _serve(self):
            while self._httpd is not None:
                pass

        def stop(self):
            self._httpd = None
            self._thread = None
"""

FIXED_SERVER = """
    import threading
    from http.server import BaseHTTPRequestHandler

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            owner = self.server.owner
            with owner._lock:
                if owner._httpd is None:
                    return
                owner.hits += 1

    class Server:
        def __init__(self):
            self._lock = threading.Lock()
            self._httpd = None
            self.hits = 0
            self._thread = None

        def start(self):
            with self._lock:
                self._httpd = object()
                thread = threading.Thread(target=self._serve)
                self._thread = thread
            thread.start()

        def _serve(self):
            with self._lock:
                alive = self._httpd is not None
            while alive:
                with self._lock:
                    alive = self._httpd is not None

        def stop(self):
            with self._lock:
                self._httpd = None
                self._thread = None
"""


class TestCONC001SharedState:
    def test_bad_unlocked_cross_thread_mutation_fires(self):
        findings = lint(BAD_SERVER)
        assert "CONC001" in codes(findings)

    def test_fixed_locked_access_is_silent(self):
        findings = lint(FIXED_SERVER)
        assert findings == []

    def test_thread_owning_class_rule(self):
        # a class that starts a thread over its own method: any
        # unlocked mutation of state the thread reads is flagged even
        # without an HTTP handler in sight
        findings = lint("""
            import threading

            class Pump:
                def __init__(self):
                    self.total = 0

                def start(self):
                    threading.Thread(target=self._work).start()

                def _work(self):
                    self.total += 1

                def bump(self):
                    self.total += 1
        """)
        assert "CONC001" in codes(findings)

    def test_single_threaded_class_is_silent(self):
        findings = lint("""
            class Counter:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1
        """)
        assert findings == []


class TestCONC002LockOrder:
    def test_inversion_fires(self):
        findings = lint("""
            import threading

            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def ab(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def ba(self):
                    with self._b_lock:
                        with self._a_lock:
                            pass
        """)
        assert "CONC002" in codes(findings)

    def test_consistent_order_is_silent(self):
        findings = lint("""
            import threading

            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def one(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def two(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
        """)
        assert findings == []


class TestCONC003BlockingInCallback:
    def test_sleep_in_kernel_callback_fires(self):
        findings = lint("""
            import time

            def install(sim):
                def tick():
                    time.sleep(0.1)
                sim.after(1.0, tick)
        """)
        assert "CONC003" in codes(findings)

    def test_sleep_in_method_a_scheduled_lambda_calls_fires(self):
        # the downloader's idiom: sim.after(delay, lambda: self._attempt())
        findings = lint("""
            import time

            class Downloader:
                def enqueue(self, delay):
                    self.sim.after(delay, lambda: self._attempt(),
                                   label="download")

                def _attempt(self):
                    time.sleep(0)
        """)
        assert "CONC003" in codes(findings)

    def test_argless_join_in_callback_fires(self):
        findings = lint("""
            def install(sim, worker):
                def tick():
                    worker.join()
                sim.after(1.0, tick)
        """)
        assert "CONC003" in codes(findings)

    def test_str_join_is_not_blocking(self):
        findings = lint("""
            def install(sim, parts):
                def tick():
                    return ", ".join(parts)
                sim.after(1.0, tick)
        """)
        assert findings == []

    def test_sleep_outside_callbacks_is_silent(self):
        # blocking on the mainline (e.g. a CLI serve loop) is fine;
        # only kernel callbacks must never stall virtual time
        findings = lint("""
            import time

            def serve_forever():
                while True:
                    time.sleep(0.5)
        """)
        assert findings == []


class TestRealTelemetryPlane:
    def test_httpd_and_runtime_are_clean(self):
        from pathlib import Path

        from repro.devtools.detlint import check_concurrency, parse_module
        root = Path(__file__).resolve().parents[2]
        for rel in ("src/repro/telemetry/httpd.py",
                    "src/repro/telemetry/runtime.py"):
            module = parse_module(root / rel, rel,
                                  rel[4:-3].replace("/", "."))
            assert check_concurrency(module) == [], rel


class TestResilienceSupervisor:
    def test_supervisor_module_is_clean(self):
        # the watchdog pool runs a real heartbeat thread next to the
        # parent poll loop; the CONC pass must walk it and find nothing
        from pathlib import Path

        from repro.devtools.detlint import check_concurrency, parse_module
        root = Path(__file__).resolve().parents[2]
        rel = "src/repro/resilience/supervisor.py"
        module = parse_module(root / rel, rel,
                              rel[4:-3].replace("/", "."))
        assert check_concurrency(module) == []

    def test_unlocked_beat_state_would_be_flagged(self):
        # coverage is not vacuous: the supervisor's shape -- a beat
        # thread sharing state with the poll loop -- trips CONC001 the
        # moment the shared field loses its synchronization
        findings = lint("""
            import threading

            class Pool:
                def __init__(self):
                    self.last_beat = 0.0
                    self._thread = None

                def start(self):
                    self._thread = threading.Thread(target=self._beat)
                    self._thread.start()

                def _beat(self):
                    while True:
                        self.last_beat += 1.0

                def watchdog(self):
                    return self.last_beat
        """)
        assert "CONC001" in codes(findings)
