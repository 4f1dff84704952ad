"""The coordinator daemon: shard, proxy, failover, aggregate.

``repro serve --role coordinator`` accepts the exact request surface of
a standalone daemon (``POST /v1/evaluate``) but owns no worker pool:
each admitted request is routed to the worker node that rendezvous-
hashing ranks highest for its ``request_key()`` and the node's response
bytes are passed through **verbatim** — the coordinator never re-shapes
a result document, which is what makes cluster results byte-identical
to single-node serve.  A connection-level failure (the node died
mid-request) marks the node, walks to the next node in the same
deterministic ranking, and counts a failover; an HTTP *error document*
from a live node (400/429/504...) is a real answer and passes through.

Beyond routing the coordinator serves:

* ``POST /cluster/register`` / ``/cluster/heartbeat`` — membership
  (:mod:`~repro.cluster.registry`);
* ``POST /cluster/events`` — the monitoring channel ingest
  (:mod:`~repro.cluster.monitor`);
* ``GET``/``PUT /store/<stage>/<key>`` — the remote artifact store
  workers read through (:mod:`repro.pipeline.store`);
* ``GET /metrics`` — cluster-wide aggregate (nodes, shard
  distribution, tenant queues, store traffic, recent events);
* ``GET /dashboard`` — the same aggregate as server-rendered HTML.

Admission is *queueing*, not shedding: a bounded per-tenant FIFO pool
drained round-robin (:mod:`~repro.cluster.fairqueue`), so a flooding
tenant saturates only its own queue while others keep their fair share
of dispatch slots.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..api import (API_SCHEMA_VERSION, EvaluateRequest, LocalStore,
                   RequestValidationError, default_cache_dir)
from ..service.admission import DEFAULT_TENANT
from ..service.config import ServiceConfig
from .dashboard import render_dashboard
from .fairqueue import TenantFairQueue, TenantQueueFullError
from .hashring import rank_nodes
from .monitor import MonitoringChannel
from .registry import MISSED_HEARTBEATS, NodeRegistry

METRICS_SCHEMA = "repro.cluster.metrics/v1"

MAX_BODY_BYTES = 1 << 20

#: Allowed characters in store stage/key path segments (anything else
#: is a 400 — keys are hex digests, stages are short slugs).
_SEGMENT = re.compile(r"^[A-Za-z0-9._-]+$")

#: Extra seconds on top of the per-request budget when proxying to a
#: node: the node itself degrades (stale/504) at ``request_timeout``,
#: so the coordinator only hits this on a truly wedged connection.
PROXY_SLACK = 10.0

COUNTERS = (
    "requests_total", "routed_total", "failovers_total",
    "proxy_errors_total", "no_nodes_total", "shed_total",
    "validation_errors", "store_gets", "store_get_misses", "store_puts",
    "events_received",
)


def _json_bytes(document: Dict[str, object]) -> bytes:
    return json.dumps(document).encode("utf-8")


class CoordinatorService:
    """HTTP-agnostic coordinator core: admission + routing + aggregate."""

    def __init__(self, config: ServiceConfig,
                 store_directory: Optional[str] = None):
        self.config = config.validate()
        self.registry = NodeRegistry(
            heartbeat_timeout=MISSED_HEARTBEATS
            * config.heartbeat_interval)
        self.queue = TenantFairQueue(
            slots=config.queue_limit,
            tenant_depth=config.tenant_limit or config.queue_limit)
        self.channel = MonitoringChannel()
        self.store = LocalStore(store_directory or default_cache_dir())
        self.started_at = time.time()
        self._lock = threading.Lock()
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._shards: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # -- membership --------------------------------------------------------

    def register_node(self, node_id: str, url: str) -> Dict[str, object]:
        self.registry.register(node_id, url)
        return {"ok": True, "node_id": node_id,
                "heartbeat_interval": self.config.heartbeat_interval}

    def ingest_events(self, node_id: str, events) -> Dict[str, object]:
        if not isinstance(events, list):
            events = []
        accepted = self.channel.publish(node_id, events)
        self.incr("events_received", accepted)
        known = True
        for event in events:
            if isinstance(event, dict) and event.get("kind") == "gauges":
                gauges = event.get("gauges")
                if isinstance(gauges, dict):
                    known = self.registry.update_gauges(node_id, gauges)
        return {"ok": True, "accepted": accepted, "known": known}

    # -- request routing ---------------------------------------------------

    def handle_evaluate(self, body: object,
                        tenant: str = DEFAULT_TENANT
                        ) -> Tuple[int, bytes, str, Optional[str]]:
        """Admit, shard, and proxy one evaluation request.  Returns
        ``(status, response_bytes, outcome, request_key)`` — response
        bytes are the owning node's answer verbatim."""
        self.incr("requests_total")
        try:
            request = EvaluateRequest.from_dict(body)
        except RequestValidationError as error:
            self.incr("validation_errors")
            return (400, _json_bytes({"error": str(error),
                                      "kind": "validation"}),
                    "invalid", None)
        key = request.request_key()
        try:
            ticket = self.queue.submit(tenant)
        except TenantQueueFullError as error:
            self.incr("shed_total")
            return (429, _json_bytes({"error": str(error), "kind": "shed",
                                      "tenant": tenant,
                                      "queue_limit": error.limit}),
                    "shed", key)
        granted = ticket.wait(self.config.request_timeout + PROXY_SLACK)
        if not granted:
            self.queue.cancel(ticket)
            self.incr("shed_total")
            return (503, _json_bytes({"error": "admission wait timed out",
                                      "kind": "overload",
                                      "tenant": tenant}),
                    "overload", key)
        try:
            return self._route(body, tenant, key)
        finally:
            self.queue.release(ticket)

    def _route(self, body: object, tenant: str, key: str
               ) -> Tuple[int, bytes, str, Optional[str]]:
        nodes = self.registry.healthy()
        if not nodes:
            self.incr("no_nodes_total")
            return (503, _json_bytes({"error": "no healthy worker nodes",
                                      "kind": "no-nodes"}),
                    "no-nodes", key)
        payload = _json_bytes(body if isinstance(body, dict) else {})
        attempts = 0
        for node_id in rank_nodes(key, nodes):
            url = self.registry.url_of(node_id)
            if url is None:
                continue
            attempts += 1
            try:
                status, raw = self._post_node(url, payload, tenant)
            except Exception:
                # Connection-level failure: the node is gone or wedged
                # — mark it and fail over along the same ranking.
                self.registry.mark_dispatch(node_id, ok=False)
                self.incr("failovers_total")
                continue
            self.registry.mark_dispatch(node_id, ok=True)
            self.incr("routed_total")
            with self._lock:
                self._shards[node_id] = self._shards.get(node_id, 0) + 1
            outcome = "ok" if status == 200 else "node-%d" % status
            return status, raw, outcome, key
        self.incr("proxy_errors_total")
        return (503,
                _json_bytes({"error": "all %d candidate nodes failed"
                             % attempts,
                             "kind": "failover-exhausted"}),
                "failover-exhausted", key)

    def _post_node(self, url: str, payload: bytes,
                   tenant: str) -> Tuple[int, bytes]:
        request = urllib.request.Request(
            url + "/v1/evaluate", data=payload, method="POST",
            headers={"Content-Type": "application/json",
                     "X-Repro-Tenant": tenant})
        timeout = self.config.request_timeout + PROXY_SLACK
        try:
            with urllib.request.urlopen(request,
                                        timeout=timeout) as reply:
                return reply.status, reply.read()
        except urllib.error.HTTPError as error:
            # A status line from a live node is an answer (400/429/
            # 504...), not a transport failure — pass it through.
            with error:
                return error.code, error.read()
        except (urllib.error.URLError, socket.timeout, OSError):
            raise

    # -- store -------------------------------------------------------------

    def store_get(self, stage: str, key: str) -> Optional[bytes]:
        blob = self.store.get(stage, key)
        if blob is None:
            self.incr("store_get_misses")
        else:
            self.incr("store_gets")
        return blob

    def store_put(self, stage: str, key: str, blob: bytes) -> None:
        self.store.put(stage, key, blob)
        self.incr("store_puts")

    @staticmethod
    def valid_segment(segment: str) -> bool:
        return bool(_SEGMENT.match(segment))

    # -- observability -----------------------------------------------------

    def health(self) -> Dict[str, object]:
        nodes = self.registry.snapshot()
        healthy = [n for n, doc in nodes.items() if doc["healthy"]]
        return {"status": "ok" if healthy else "degraded",
                "role": "coordinator",
                "nodes": len(nodes), "healthy_nodes": len(healthy),
                "uptime_seconds": time.time() - self.started_at}

    def metrics_document(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self.counters)
            shards = dict(self._shards)
        return {
            "schema": METRICS_SCHEMA,
            "role": "coordinator",
            "uptime_seconds": time.time() - self.started_at,
            "cluster": {
                "nodes": self.registry.snapshot(),
                "healthy_nodes": self.registry.healthy(),
                "shard_distribution": shards,
                "counters": counters,
                "admission": self.queue.stats(),
                "monitoring": {
                    "published_total": self.channel.published_total},
                "recent_events": self.channel.recent(20),
            },
        }


class CoordinatorDaemon:
    """HTTP front end owning one :class:`CoordinatorService`."""

    def __init__(self, config: ServiceConfig,
                 store_directory: Optional[str] = None):
        self.config = config
        self.service = CoordinatorService(config, store_directory)
        handler = _make_handler(self)
        self.server = ThreadingHTTPServer((config.host, config.port),
                                          handler)
        self.server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.server.server_address[0],
                                 self.port)

    def start(self) -> "CoordinatorDaemon":
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True,
            name="repro-coordinator-http")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.log_event({"event": "serving", "role": "coordinator",
                        "address": self.address, "port": self.port,
                        "queue_limit": self.config.queue_limit,
                        "schema": API_SCHEMA_VERSION})
        try:
            self.server.serve_forever()
        finally:
            self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            # Only a background loop needs stopping: serve_forever()
            # on the calling thread has returned by now (and shutdown()
            # would wait forever on a loop that never started).
            self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(2.0)
        self.log_event({"event": "stopped", "role": "coordinator"})

    def log_event(self, fields: Dict[str, object]) -> None:
        if self.config.quiet:
            return
        stream = self.config.log_stream or sys.stderr
        record = {"ts": round(time.time(), 3)}
        record.update(fields)
        try:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            stream.flush()
        except Exception:
            pass


def _make_handler(daemon: CoordinatorDaemon):
    service = daemon.service

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-coordinator/" + API_SCHEMA_VERSION
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002
            pass

        # -- plumbing ------------------------------------------------------

        def _send(self, status: int, body: bytes,
                  content_type: str = "application/json",
                  retry_after: bool = False) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if retry_after:
                self.send_header("Retry-After", "1")
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                pass

        def _send_json(self, status: int,
                       document: Dict[str, object]) -> None:
            self._send(status, _json_bytes(document),
                       retry_after=(status == 429))

        def _log(self, status: int, outcome: str, started: float,
                 request_key: Optional[str] = None) -> None:
            daemon.log_event({
                "event": "request", "method": self.command,
                "path": self.path, "status": status,
                "seconds": round(time.perf_counter() - started, 4),
                "outcome": outcome, "request_key": request_key})

        def _read_body(self) -> Tuple[Optional[bytes], Optional[str]]:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                return None, "invalid Content-Length"
            if length <= 0:
                return None, "missing request body"
            if length > MAX_BODY_BYTES:
                return None, "request body too large"
            return self.rfile.read(length), None

        def _read_json(self) -> Tuple[Optional[object], Optional[str]]:
            raw, error = self._read_body()
            if error is not None:
                return None, error
            try:
                return json.loads(raw.decode("utf-8")), None
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return None, "invalid JSON body: %s" % (error,)

        def _store_segments(self) -> Optional[Tuple[str, str]]:
            parts = self.path.split("?", 1)[0].split("/")
            # ['', 'store', stage, key]
            if (len(parts) != 4 or parts[1] != "store"
                    or not service.valid_segment(parts[2])
                    or not service.valid_segment(parts[3])):
                return None
            return parts[2], parts[3]

        # -- routes --------------------------------------------------------

        def do_GET(self) -> None:
            started = time.perf_counter()
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                self._send_json(200, service.health())
                self._log(200, "health", started)
            elif path == "/metrics":
                self._send_json(200, service.metrics_document())
                self._log(200, "metrics", started)
            elif path == "/dashboard":
                page = render_dashboard(service.metrics_document())
                self._send(200, page.encode("utf-8"),
                           content_type="text/html; charset=utf-8")
                self._log(200, "dashboard", started)
            elif path == "/v1/schema":
                self._send_json(200, {"schema": API_SCHEMA_VERSION,
                                      "role": "coordinator"})
                self._log(200, "schema", started)
            elif path == "/cluster/nodes":
                self._send_json(200,
                                {"nodes": service.registry.snapshot()})
                self._log(200, "nodes", started)
            elif path.startswith("/store/"):
                segments = self._store_segments()
                if segments is None:
                    self._send_json(400, {"error": "bad store path",
                                          "kind": "store"})
                    self._log(400, "store-bad-path", started)
                    return
                blob = service.store_get(*segments)
                if blob is None:
                    self._send_json(404, {"error": "no such artifact",
                                          "kind": "store"})
                    self._log(404, "store-miss", started)
                else:
                    self._send(200, blob,
                               content_type="application/octet-stream")
                    self._log(200, "store-hit", started)
            else:
                self._send_json(404,
                                {"error": "no such endpoint: %s" % path,
                                 "kind": "routing"})
                self._log(404, "not-found", started)

        def do_PUT(self) -> None:
            started = time.perf_counter()
            segments = self._store_segments()
            if segments is None:
                self._send_json(404, {"error": "no such endpoint",
                                      "kind": "routing"})
                self._log(404, "not-found", started)
                return
            raw, error = self._read_body()
            if error is not None:
                self._send_json(400, {"error": error, "kind": "body"})
                self._log(400, "store-bad-body", started)
                return
            service.store_put(segments[0], segments[1], raw)
            self._send_json(200, {"ok": True})
            self._log(200, "store-put", started)

        def do_POST(self) -> None:
            started = time.perf_counter()
            path = self.path.split("?", 1)[0]
            if path == "/v1/evaluate":
                body, error = self._read_json()
                if error is not None:
                    self._send_json(400, {"error": error, "kind": "body"})
                    self._log(400, "invalid", started)
                    return
                tenant = (self.headers.get("X-Repro-Tenant")
                          or "default").strip() or "default"
                status, raw, outcome, key = \
                    service.handle_evaluate(body, tenant)
                self._send(status, raw, retry_after=(status == 429))
                self._log(status, outcome, started, key)
                return
            body, error = self._read_json()
            if error is not None:
                self._send_json(400, {"error": error, "kind": "body"})
                self._log(400, "invalid", started)
                return
            if path == "/cluster/register":
                node_id = str((body or {}).get("node_id", "")).strip()
                url = str((body or {}).get("url", "")).strip()
                if not node_id or not url:
                    self._send_json(400,
                                    {"error": "node_id and url required",
                                     "kind": "validation"})
                    self._log(400, "register-invalid", started)
                    return
                self._send_json(200, service.register_node(node_id, url))
                self._log(200, "register", started)
            elif path == "/cluster/heartbeat":
                node_id = str((body or {}).get("node_id", "")).strip()
                known = service.registry.heartbeat(node_id)
                self._send_json(200, {"ok": known, "node_id": node_id})
                self._log(200, "heartbeat", started)
            elif path == "/cluster/events":
                node_id = str((body or {}).get("node_id", "")).strip()
                document = service.ingest_events(
                    node_id, (body or {}).get("events"))
                self._send_json(200, document)
                self._log(200, "events", started)
            else:
                self._send_json(404,
                                {"error": "no such endpoint: %s" % path,
                                 "kind": "routing"})
                self._log(404, "not-found", started)

    return Handler
