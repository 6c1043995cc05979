"""The downloader: verify responses by fetching and scanning content.

The paper downloaded responded files and ran AV over them; here every
response gets a download attempt a short (configurable) delay after it
arrives -- long enough that the responder may have churned offline, which
is exactly what separates "responses" from "downloadable responses".
Content is scanned once per distinct identity -- the scan engine's
content-addressed verdict cache dedupes byte-identical blobs -- matching
the one-scan-per-unique-file post-processing of the study.

With telemetry attached the downloader keeps labelled outcome counters
and an in-flight gauge in the run's registry, and traces one
``download`` span per response (child of the collector's ``response``
span) with a nested ``scan`` span, so a malicious verdict can be walked
back to the query that provoked it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ...files.payload import Blob
from ...scanner.engine import ScanEngine
from ...simnet.kernel import Simulator
from ...simnet.rng import SeededStream
from ...telemetry.registry import MetricRegistry
from ...telemetry.spans import Span, SpanTracer
from .records import ResponseRecord

__all__ = ["DownloadPolicy", "Downloader"]

FetchFn = Callable[[], Optional[Blob]]

_HEX_DIGITS = frozenset("0123456789abcdef")


def _is_hex(value: str) -> bool:
    """True for a lowercase hex string (an OpenFT md5 content id)."""
    return all(char in _HEX_DIGITS for char in value)


@dataclass(frozen=True)
class DownloadPolicy:
    """When and how often to attempt each response's download.

    The defaults reproduce the historical schedule exactly: a backoff
    factor of 1.0 makes every retry gap equal ``retry_gap_s``, and the
    timeout only matters when a fault injector stalls a serve.
    """

    delay_min_s: float = 10.0
    delay_max_s: float = 120.0
    retries: int = 1
    retry_gap_s: float = 1800.0
    #: a serve stalled past this resolves as a ``timeout`` outcome
    attempt_timeout_s: float = 600.0
    #: exponential backoff multiplier applied per retry, capped below
    backoff_factor: float = 1.0
    max_retry_gap_s: float = 21600.0

    def __post_init__(self) -> None:
        if self.delay_min_s < 0 or self.delay_max_s < self.delay_min_s:
            raise ValueError("need 0 <= delay_min_s <= delay_max_s")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.max_retry_gap_s < self.retry_gap_s:
            raise ValueError("need max_retry_gap_s >= retry_gap_s")

    def retry_gap(self, attempt_index: int) -> float:
        """Gap before the retry following attempt ``attempt_index``."""
        gap = self.retry_gap_s * self.backoff_factor ** attempt_index
        return min(gap, self.max_retry_gap_s)


class Downloader:
    """Schedules download attempts and annotates records with outcomes."""

    def __init__(self, sim: Simulator, engine: ScanEngine,
                 policy: Optional[DownloadPolicy] = None,
                 stream: Optional[SeededStream] = None,
                 registry: Optional[MetricRegistry] = None,
                 tracer: Optional[SpanTracer] = None,
                 faults=None) -> None:
        self.sim = sim
        self.engine = engine
        self.policy = policy or DownloadPolicy()
        self.stream = stream if stream is not None else sim.stream(
            "downloader")
        #: fetch-path fault hook (``FetchFaults``-shaped); None means the
        #: attempt path is byte-for-byte the uninjected one
        self.faults = faults
        self.attempts = 0
        self.successes = 0
        #: responses per malware name so far (the journal ranks it)
        self.malware_counts: Dict[str, int] = {}
        self.tracer = tracer
        self._in_flight_gauge = None
        self._attempt_counter = None
        self._enqueued_counter = None
        self._malicious_counter = None
        if registry is not None:
            self._enqueued_counter = registry.counter(
                "downloader_enqueued_total",
                "Responses handed to the downloader.")
            self._attempt_counter = registry.counter(
                "downloader_attempts_total",
                "Download attempts by outcome.",
                labels=("outcome",))
            self._in_flight_gauge = registry.gauge(
                "downloader_in_flight",
                "Responses enqueued whose download has not yet resolved.")
            self._malicious_counter = registry.counter(
                "downloader_malicious_total",
                "Downloads whose content scanned dirty.")

    def enqueue(self, record: ResponseRecord, fetch: FetchFn,
                parent_span: Optional[Span] = None) -> None:
        """Schedule the first download attempt for ``record``."""
        delay = self.stream.uniform(self.policy.delay_min_s,
                                    self.policy.delay_max_s)
        if self._enqueued_counter is not None:
            self._enqueued_counter.inc()
            self._in_flight_gauge.inc()
        span = None
        if self.tracer is not None:
            span = self.tracer.start(
                "download", self.sim.now, parent=parent_span,
                responder=record.responder_key, filename=record.filename)
        self.sim.after(delay,
                       lambda: self._attempt(record, fetch,
                                             self.policy.retries, span),
                       label="download")

    def _resolve(self, span: Optional[Span], outcome: str,
                 malware: Optional[str] = None) -> None:
        """Final bookkeeping once a download stops being in flight."""
        if self._in_flight_gauge is not None:
            self._in_flight_gauge.dec()
        if self.tracer is not None:
            self.tracer.end(span, self.sim.now, outcome=outcome,
                            malware=malware)

    def _attempt(self, record: ResponseRecord, fetch: FetchFn,
                 retries_left: int, span: Optional[Span] = None) -> None:
        record.download_attempted = True
        self.attempts += 1
        intervention = None
        if self.faults is not None:
            intervention = self.faults.on_fetch(
                record, self.policy.retries - retries_left)
        if intervention is not None and intervention.stall_s > 0.0:
            if intervention.stall_s > self.policy.attempt_timeout_s:
                # the serve never finishes inside the timeout: give up
                # at the deadline without ever seeing the bytes
                self.sim.after(
                    self.policy.attempt_timeout_s,
                    lambda: self._attempt_failed(record, fetch,
                                                 retries_left, span,
                                                 "timeout"),
                    label="download-timeout")
                return
            self.sim.after(
                intervention.stall_s,
                lambda: self._complete(record, fetch, retries_left, span,
                                       intervention),
                label="download-stall")
            return
        self._complete(record, fetch, retries_left, span, intervention)

    def _complete(self, record: ResponseRecord, fetch: FetchFn,
                  retries_left: int, span: Optional[Span],
                  intervention) -> None:
        """The serve finished (immediately, or after a survivable stall)."""
        blob = fetch()
        if blob is None:
            self._attempt_failed(record, fetch, retries_left, span,
                                 "offline")
            return
        if intervention is not None:
            blob = intervention.tamper_blob(blob)
        failure = self._integrity_failure(record, blob)
        if failure is not None:
            self._attempt_failed(record, fetch, retries_left, span, failure)
            return
        self.successes += 1
        record.downloaded = True
        record.download_outcome = "success"
        if self._attempt_counter is not None:
            self._attempt_counter.labels("success").inc()
        scan_span = None
        if self.tracer is not None:
            scan_span = self.tracer.start("scan", self.sim.now, parent=span)
        # byte-identical content is deduped by the engine's verdict cache
        verdict = self.engine.scan(blob)
        record.malware_name = verdict.primary_name
        if verdict.primary_name:
            self.malware_counts[verdict.primary_name] = (
                self.malware_counts.get(verdict.primary_name, 0) + 1)
        if self.tracer is not None:
            self.tracer.end(scan_span, self.sim.now,
                            clean=verdict.clean,
                            malware=verdict.primary_name)
        if not verdict.clean and self._malicious_counter is not None:
            self._malicious_counter.inc()
        self._resolve(span, "success", malware=verdict.primary_name)

    def _attempt_failed(self, record: ResponseRecord, fetch: FetchFn,
                        retries_left: int, span: Optional[Span],
                        outcome: str) -> None:
        """One attempt failed (``offline``/``timeout``/``truncated``/
        ``corrupt``): back off and retry, or resolve terminally."""
        if retries_left > 0:
            if self._attempt_counter is not None:
                self._attempt_counter.labels("retry").inc()
            gap = self.policy.retry_gap(self.policy.retries - retries_left)
            self.sim.after(gap,
                           lambda: self._attempt(record, fetch,
                                                 retries_left - 1, span),
                           label="download-retry")
            return
        record.download_outcome = outcome
        if self._attempt_counter is not None:
            self._attempt_counter.labels(outcome).inc()
        self._resolve(span, outcome)

    def _integrity_failure(self, record: ResponseRecord,
                           blob: Blob) -> Optional[str]:
        """Verify fetched bytes against the advertised content id.

        Returns None when the blob checks out (or the id scheme is
        unknown, e.g. synthetic test ids); otherwise the labelled
        failure -- a short payload reads as a cut-off transfer, a
        full-length mismatch as corruption.  Either way the bytes are
        *never* scanned, so a tampered payload can't fake a verdict.
        """
        content_id = record.content_id
        if content_id.startswith("urn:sha1:"):
            if blob.sha1_urn() == content_id:
                return None
        elif len(content_id) == 32 and _is_hex(content_id):
            if blob.md5_hex() == content_id:
                return None
        else:
            return None
        return "truncated" if blob.size < record.size else "corrupt"
