"""JSON-over-HTTP front end: ``python -m repro serve``.

A :class:`~http.server.ThreadingHTTPServer` (one thread per connection;
evaluation concurrency is governed by the worker pool and admission
queue, not by socket threads) exposing:

* ``POST /v1/evaluate`` — body: an ``EvaluateRequest`` JSON object;
  answers the ``EvaluateResult`` document, or 400/429/500/504 error
  JSON (see :mod:`repro.service.app` for the request lifecycle);
* ``GET /healthz`` — liveness + worker/queue gauges;
* ``GET /metrics`` — the full observability document (queue depth,
  in-flight count, request/stage latency histograms, cache traffic);
* ``GET /v1/schema`` — the API schema version this daemon speaks.

Every request emits one structured JSON log line (method, path, status,
seconds, outcome, request key, queue gauges) to the configured stream.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..api import API_SCHEMA_VERSION
from .app import (HTTP_BAD_REQUEST, HTTP_NOT_FOUND, SchedulerService)
from .config import ServiceConfig

MAX_BODY_BYTES = 1 << 20  # a request describes one cell; 1 MiB is ample


class ServiceDaemon:
    """Owns one :class:`SchedulerService` plus its HTTP server."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.service = SchedulerService(config)
        handler = _make_handler(self)
        self.server = ThreadingHTTPServer((config.host, config.port),
                                          handler)
        self.server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- addresses ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``--port 0``)."""
        return self.server.server_address[1]

    @property
    def address(self) -> str:
        return "http://%s:%d" % (self.server.server_address[0],
                                 self.port)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServiceDaemon":
        """Serve on a background thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self.server.serve_forever, daemon=True,
            name="repro-serve-http")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI)."""
        self.log_event({"event": "serving", "address": self.address,
                        "port": self.port,
                        "workers": self.config.workers,
                        "worker_pids": self.service.pool.worker_pids(),
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
        self.service.close()
        if self._thread is not None:
            self._thread.join(2.0)
        self.log_event({"event": "stopped"})

    # -- logging -----------------------------------------------------------

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
            pass  # logging must never take the daemon down


def _make_handler(daemon: ServiceDaemon):
    """A request-handler class bound to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/" + API_SCHEMA_VERSION
        protocol_version = "HTTP/1.1"

        # -- plumbing ------------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002
            pass  # replaced by the structured JSON log below

        def _respond(self, status: int, document: Dict[str, object],
                     started: float, outcome: str,
                     request_key: Optional[str] = None) -> None:
            body = json.dumps(document).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if status == 429:
                self.send_header("Retry-After", "1")
            self.end_headers()
            try:
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                outcome = outcome + "+client-gone"
            snap = daemon.service.pool.snapshot()
            daemon.log_event({
                "event": "request", "method": self.command,
                "path": self.path, "status": status,
                "seconds": round(time.perf_counter() - started, 4),
                "outcome": outcome, "request_key": request_key,
                "queue_depth": snap["queue_depth"],
                "in_flight": snap["in_flight"],
            })

        def _read_json(self) -> Tuple[Optional[object], Optional[str]]:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                return None, "invalid Content-Length"
            if length <= 0:
                return None, "missing request body"
            if length > MAX_BODY_BYTES:
                return None, "request body too large"
            raw = self.rfile.read(length)
            try:
                return json.loads(raw.decode("utf-8")), None
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return None, "invalid JSON body: %s" % (error,)

        # -- routes --------------------------------------------------------

        def do_GET(self) -> None:
            started = time.perf_counter()
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                self._respond(200, daemon.service.health(), started,
                              "health")
            elif path == "/metrics":
                self._respond(200, daemon.service.metrics_document(),
                              started, "metrics")
            elif path == "/v1/schema":
                self._respond(200, {"schema": API_SCHEMA_VERSION},
                              started, "schema")
            else:
                self._respond(HTTP_NOT_FOUND,
                              {"error": "no such endpoint: %s" % path,
                               "kind": "routing"}, started, "not-found")

        def do_POST(self) -> None:
            started = time.perf_counter()
            path = self.path.split("?", 1)[0]
            if path != "/v1/evaluate":
                self._respond(HTTP_NOT_FOUND,
                              {"error": "no such endpoint: %s" % path,
                               "kind": "routing"}, started, "not-found")
                return
            body, error = self._read_json()
            if error is not None:
                self._respond(HTTP_BAD_REQUEST,
                              {"error": error, "kind": "body"},
                              started, "invalid")
                return
            key = None
            if isinstance(body, dict) and ("program" in body
                                           or "workload" in body):
                # Best-effort key for the log line; real validation is
                # the service's job.
                try:
                    from ..api import EvaluateRequest
                    key = EvaluateRequest.from_dict(body).request_key()
                except Exception:
                    key = None
            tenant = (self.headers.get("X-Repro-Tenant")
                      or "default").strip() or "default"
            status, document, outcome = \
                daemon.service.handle_evaluate(body, tenant=tenant)
            self._respond(status, document, started, outcome, key)

    return Handler


def serve(config: ServiceConfig) -> ServiceDaemon:
    """Build a daemon and serve on the calling thread (CLI path)."""
    daemon = ServiceDaemon(config)
    daemon.serve_forever()
    return daemon
