"""Collectors: turn protocol responses into measurement records.

One collector per network wraps the instrumented client's result callback,
builds :class:`ResponseRecord` rows from the *decoded wire data only*, and
hands each record to the downloader together with a fetch closure bound to
that responder (the only place ground-truth object references are allowed
to flow, because a real client would likewise open a connection to the
address in the response).
"""

from __future__ import annotations

from typing import Dict, Optional

from ...gnutella.guid import guid_hex
from ...gnutella.messages import Header, QueryHit
from ...gnutella.network import GnutellaNetwork
from ...gnutella.servent import GnutellaServent
from ...openft.network import OpenFTNetwork
from ...openft.nodes import OpenFTNode
from ...openft.packets import SearchResponse
from ...simnet.kernel import Simulator
from ...telemetry.registry import MetricRegistry
from ...telemetry.spans import Span, SpanTracer
from .download import Downloader
from .records import ResponseRecord
from .store import MeasurementStore

__all__ = ["LimewireCollector", "OpenFTCollector"]


class _CollectorTelemetry:
    """Shared query/response instrumentation for both collectors.

    Each issued query opens an instant ``query`` span (its id anchors
    the chain); each decoded result opens an instant ``response`` child
    span, which the downloader extends with ``download`` and ``scan``
    children -- together one query->response->download->scan chain per
    response.
    """

    def __init__(self, network: str,
                 registry: Optional[MetricRegistry] = None,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.tracer = tracer
        self._queries = None
        self._responses = None
        if registry is not None:
            self._queries = registry.counter(
                "collector_queries_total", "Queries issued by the crawler.",
                labels=("network",)).labels(network)
            self._responses = registry.counter(
                "collector_responses_total",
                "Response records collected from decoded hits.",
                labels=("network",)).labels(network)

    def note_query(self, criteria: str, now: float) -> Optional[Span]:
        if self._queries is not None:
            self._queries.inc()
        if self.tracer is None:
            return None
        span = self.tracer.start("query", now, query=criteria)
        self.tracer.end(span, now)
        return span

    def note_response(self, record: ResponseRecord,
                      query_span: Optional[Span]) -> Optional[Span]:
        if self._responses is not None:
            self._responses.inc()
        if self.tracer is None:
            return None
        span = self.tracer.start(
            "response", record.time, parent=query_span,
            responder=record.responder_key, filename=record.filename,
            content_id=record.content_id)
        self.tracer.end(span, record.time)
        return span


class LimewireCollector:
    """Instrumentation harness around a Gnutella crawler leaf."""

    def __init__(self, sim: Simulator, network: GnutellaNetwork,
                 crawler: GnutellaServent, store: MeasurementStore,
                 downloader: Downloader,
                 registry: Optional[MetricRegistry] = None,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.sim = sim
        self.network = network
        self.crawler = crawler
        self.store = store
        self.downloader = downloader
        self.telemetry = _CollectorTelemetry("limewire", registry, tracer)
        self._query_by_guid: Dict[str, str] = {}
        self._issue_time_by_guid: Dict[str, float] = {}
        self._query_span_by_guid: Dict[str, Span] = {}
        crawler.on_local_hit = self._on_hit

    def issue_query(self, criteria: str) -> None:
        """Send one query and remember its GUID for hit correlation."""
        guid = self.crawler.originate_query(criteria)
        self._query_by_guid[guid_hex(guid)] = criteria
        self._issue_time_by_guid[guid_hex(guid)] = self.sim.now
        span = self.telemetry.note_query(criteria, self.sim.now)
        if span is not None:
            self._query_span_by_guid[guid_hex(guid)] = span
        self.store.note_query()

    def _on_hit(self, hit: QueryHit, header: Header) -> None:
        query = self._query_by_guid.get(guid_hex(header.guid))
        if query is None:
            return  # hit for a query we did not issue (should not happen)
        for result in hit.results:
            record = ResponseRecord(
                network="limewire",
                time=self.sim.now,
                query=query,
                responder_host=hit.address,
                responder_port=hit.port,
                responder_key=guid_hex(hit.servent_guid),
                filename=result.filename,
                size=result.file_size,
                content_id=result.sha1_urn,
                push_needed=hit.push_needed,
                busy=hit.busy,
                vendor=hit.vendor.decode("ascii", errors="replace"),
                query_time=self._issue_time_by_guid.get(
                    guid_hex(header.guid), -1.0),
            )
            self.store.add(record)
            response_span = self.telemetry.note_response(
                record, self._query_span_by_guid.get(guid_hex(header.guid)))
            servent_guid = hit.servent_guid
            sha1_urn = result.sha1_urn
            crawler_id = self.crawler.endpoint_id
            self.downloader.enqueue(
                record,
                lambda guid=servent_guid, urn=sha1_urn:
                self.network.fetch(guid, urn, requester_id=crawler_id),
                parent_span=response_span)


class OpenFTCollector:
    """Instrumentation harness around a giFT/OpenFT crawler node."""

    def __init__(self, sim: Simulator, network: OpenFTNetwork,
                 crawler: OpenFTNode, store: MeasurementStore,
                 downloader: Downloader,
                 registry: Optional[MetricRegistry] = None,
                 tracer: Optional[SpanTracer] = None) -> None:
        self.sim = sim
        self.network = network
        self.crawler = crawler
        self.store = store
        self.downloader = downloader
        self.telemetry = _CollectorTelemetry("openft", registry, tracer)
        self._query_by_search_id: Dict[int, str] = {}
        self._issue_time_by_search_id: Dict[int, float] = {}
        self._query_span_by_search_id: Dict[int, Span] = {}
        #: (search_id, host, md5, name) tuples already recorded -- the OpenFT
        #: mesh can deliver the same result via several parents.  Each
        #: tuple holds the store's shared strings, not the response's
        self._seen: set = set()
        crawler.on_search_result = self._on_result

    def issue_query(self, query: str) -> None:
        """Send one search and remember its id for result correlation."""
        search_id = self.crawler.originate_search(query)
        self._query_by_search_id[search_id] = query
        self._issue_time_by_search_id[search_id] = self.sim.now
        span = self.telemetry.note_query(query, self.sim.now)
        if span is not None:
            self._query_span_by_search_id[search_id] = span
        self.store.note_query()

    def _on_result(self, response: SearchResponse) -> None:
        if response.is_end_marker:
            return
        query = self._query_by_search_id.get(response.search_id)
        if query is None:
            return
        if (response.search_id, response.host, response.md5,
                response.filename) in self._seen:
            return
        record = ResponseRecord(
            network="openft",
            time=self.sim.now,
            query=query,
            responder_host=response.host,
            responder_port=response.port,
            responder_key=f"{response.host}:{response.port}",
            filename=response.filename,
            size=response.size,
            content_id=response.md5,
            push_needed=False,
            busy=response.availability == 0,
            vendor="GIFT",
            query_time=self._issue_time_by_search_id.get(
                response.search_id, -1.0),
        )
        self.store.add(record)
        self._seen.add((response.search_id, record.responder_host,
                        record.content_id, record.filename))
        response_span = self.telemetry.note_response(
            record, self._query_span_by_search_id.get(response.search_id))
        host, md5 = response.host, response.md5
        crawler_id = self.crawler.endpoint_id
        self.downloader.enqueue(
            record,
            lambda host=host, md5=md5:
            self.network.fetch(host, md5, requester_id=crawler_id),
            parent_span=response_span)
