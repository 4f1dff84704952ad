"""End-to-end loopback test of ``repro serve``: boot the daemon on an
ephemeral port, fire concurrent evaluation requests over real HTTP, and
check the responses against an in-process ``evaluate_workload`` run."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import (API_SCHEMA_VERSION, configure_cache,
                       evaluate_workload, get_cache)
from repro.service import ServiceConfig, ServiceDaemon
from repro.workloads import get_workload

#: 8 distinct cells — the daemon must sustain these concurrently.
CELLS = [
    dict(program={"kind": "registry", "value": "ks"},
         technique="gremio", n_threads=n, scale="train", coco=coco)
    for n in (1, 2, 3, 4) for coco in (False, True)
]


@pytest.fixture
def isolated_cache(tmp_path):
    previous = configure_cache(str(tmp_path / "artifacts"))
    try:
        yield get_cache()
    finally:
        configure_cache(previous.directory, previous.enabled)


@pytest.fixture
def daemon(isolated_cache):
    log = io.StringIO()
    instance = ServiceDaemon(ServiceConfig(
        host="127.0.0.1", port=0, workers=2, queue_limit=32,
        request_timeout=60.0, log_stream=log))
    instance.start()
    try:
        yield instance
    finally:
        instance.close()


def _get(daemon, path):
    with urllib.request.urlopen(daemon.address + path, timeout=30) as reply:
        return reply.status, json.loads(reply.read().decode("utf-8"))


def _post(daemon, body, timeout=90):
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        daemon.address + "/v1/evaluate", data=data,
        headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestServeEndToEnd:
    def test_concurrent_evaluations_match_in_process(self, daemon):
        responses = [None] * len(CELLS)

        def post(index):
            responses[index] = _post(daemon, CELLS[index])

        threads = [threading.Thread(target=post, args=(index,))
                   for index in range(len(CELLS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)

        assert all(response is not None for response in responses)
        assert [status for status, _ in responses] == [200] * len(CELLS)
        for cell, (_, document) in zip(CELLS, responses):
            assert document["schema_version"] == API_SCHEMA_VERSION
            assert (document["request"]["workload"]
                    == cell["program"]["value"])
            assert document["request"]["n_threads"] == cell["n_threads"]
            assert document["metrics"]["speedup"] > 0.0
            assert not document["stale"]

        # The daemon's answer equals running the pipeline in-process.
        direct = evaluate_workload(get_workload("ks"), technique="gremio",
                                   n_threads=2, scale="train")
        served = next(document for cell, (_, document)
                      in zip(CELLS, responses)
                      if cell["n_threads"] == 2 and not cell["coco"])
        assert served["metrics"]["speedup"] == pytest.approx(direct.speedup)

        # A repeat of any cell is memoized, not re-evaluated.
        status, again = _post(daemon, CELLS[0])
        assert status == 200 and again["memoized"] is True

        # Observability: non-zero counters, latency histograms, gauges.
        status, health = _get(daemon, "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert health["workers"] >= 1
        status, metrics = _get(daemon, "/metrics")
        assert status == 200
        counters = metrics["counters"]
        assert counters["requests_total"] >= len(CELLS) + 1
        assert counters["responses_ok"] >= len(CELLS) + 1
        assert counters["evaluations_completed"] >= len(CELLS)
        assert counters["memo_hits"] >= 1
        assert metrics["request_latency"]["count"] >= len(CELLS)
        assert metrics["queue"]["limit"] == 32
        assert metrics["stages"], "per-stage telemetry missing"
        for record in metrics["stages"].values():
            assert record["runs"] + record["cache_hits"] >= 0

    def test_error_paths_over_http(self, daemon):
        status, document = _post(daemon, {
            "program": {"kind": "registry", "value": "no-such-workload"}})
        assert status == 400 and document["kind"] == "validation"

        # The removed PR-9 wire shim: workload=-only bodies are 400 now.
        status, document = _post(daemon, {"workload": "ks"})
        assert status == 400 and document["kind"] == "validation"

        status, document = _post(daemon, {
            "program": {"kind": "registry", "value": "ks"}, "threds": 4})
        assert status == 400 and "threds" in document["error"]

        status, document = _get(daemon, "/v1/schema")
        assert status == 200
        assert document["schema"] == API_SCHEMA_VERSION

        request = urllib.request.Request(
            daemon.address + "/nowhere", method="GET")
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                status = reply.status
        except urllib.error.HTTPError as error:
            status = error.code
        assert status == 404

    def test_structured_request_log(self, daemon):
        _post(daemon, CELLS[0])
        # The log line lands just after the response body is flushed;
        # give the handler thread a beat.
        requests = []
        deadline = time.time() + 5.0
        while not requests and time.time() < deadline:
            lines = [json.loads(line) for line
                     in daemon.config.log_stream.getvalue().splitlines()]
            requests = [line for line in lines
                        if line.get("event") == "request"]
            if not requests:
                time.sleep(0.05)
        assert requests, "no structured request log emitted"
        record = requests[-1]
        assert record["method"] == "POST"
        assert record["path"] == "/v1/evaluate"
        assert record["status"] == 200
        assert record["request_key"]
        assert "queue_depth" in record and "in_flight" in record


def _alive(pid):
    """Whether ``pid`` still runs (a zombie awaiting its reaper does
    not count: it has exited)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@pytest.mark.skipif(os.name != "posix",
                    reason="needs POSIX signals")
def test_sigterm_stops_the_worker_pool(tmp_path):
    """``kill -TERM`` on ``repro serve`` shuts down like Ctrl-C: every
    pool worker the daemon logged at start-up exits with it."""
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    source_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = source_root + os.pathsep + env.get("PYTHONPATH",
                                                           "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        serving = None
        for line in process.stderr:
            record = json.loads(line)
            if record.get("event") == "serving":
                serving = record
                break
        assert serving is not None, "daemon never logged 'serving'"
        pids = serving["worker_pids"]
        assert len(pids) == 1 and _alive(pids[0])
        process.send_signal(signal.SIGTERM)
        process.wait(10)
        deadline = time.time() + 5.0
        while any(_alive(pid) for pid in pids) and time.time() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids), \
            "worker processes outlived the daemon: %s" % pids
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(10)
        process.stderr.close()
