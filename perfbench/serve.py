"""The ``serve-open`` workload: an open-loop request mix against a
``repro serve --workers 1`` daemon.

The daemon runs in its own process group and every exit path signals
the whole group: its pool workers are forked children that outlive a
signal sent to the daemon alone.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time
import urllib.request
from typing import Dict, List, Optional, Tuple

from . import common
from .loadgen import REQUEST_TIMEOUT_S, arrival_offsets, drive
from .oracle import compare_frozen, load_expected
from .spans import LAYER_METRICS, STAGE_LAYERS
from .universe import HOT_SET, SCALE, cell_key, inline_pool, serve_draw

#: Offered load, about a fifth of one worker's capacity on this mix:
#: higher rates let queueing amplify host-speed swings into the median.
#: At the benchmark's 25-second window the registry share is 96
#: requests, six per workload, and each configuration's count is fixed
#: (see ``universe.serve_draw``), so seeds differ in pairing and order.
RATE_PER_S = 6.4
#: Share of requests that repeat the hot set / send an inline kernel;
#: the rest are distinct registry cells.
HOT_SHARE = 0.2
INLINE_SHARE = 0.2
#: A request counts as ok when answered correctly within this limit.
LATENCY_LIMIT_S = 0.5
CONNECTIONS = 2
SETUP_REPEATS = 3


# -- the request mix ----------------------------------------------------------

class Item:
    """One scheduled request: its body and how to check the answer."""

    __slots__ = ("kind", "body", "label", "expected")

    def __init__(self, kind: str, body: Dict[str, object], label: str,
                 expected: Optional[Dict[str, float]]) -> None:
        self.kind = kind
        self.body = json.dumps(body, sort_keys=True).encode("utf-8")
        self.label = label
        self.expected = expected


def _cell_body(cell: Dict[str, object]) -> Dict[str, object]:
    body = {key: value for key, value in cell.items() if key != "workload"}
    body["program"] = {"kind": "registry", "value": cell["workload"]}
    body["scale"] = SCALE
    return body


def request_mix(seed: int, count: int, workloads: List[str],
                expected: Dict[str, Dict]) -> List[Item]:
    """``count`` requests: ~20% hot-set repeats, ~20% distinct inline
    kernels, the rest distinct registry cells, in a seeded order."""
    rng = random.Random("mix:%d" % seed)
    hot = int(round(HOT_SHARE * count))
    inline = int(round(INLINE_SHARE * count))
    registry = count - hot - inline
    pool = inline_pool()
    if inline > len(pool):
        raise ValueError("run too long for the inline pool: %d > %d"
                         % (inline, len(pool)))
    items = [Item("hot", _cell_body(cell), cell_key(cell),
                  expected["cells"].get(cell_key(cell)))
             for cell in (rng.choice(HOT_SET) for _ in range(hot))]
    items += [Item("registry", _cell_body(cell), cell_key(cell),
                   expected["cells"].get(cell_key(cell)))
              for cell in serve_draw(workloads, registry, rng)]
    for index in rng.sample(range(len(pool)), inline):
        kernel = pool[index]
        items.append(Item("inline", {
            "program": {"kind": "source", "value": kernel["source"]},
            "technique": kernel["technique"], "coco": kernel["coco"],
            "n_threads": kernel["n_threads"], "scale": SCALE},
            "inline %d" % index, expected["inline"].get(str(index))))
    rng.shuffle(items)
    return items


def judge(item: Item, status: Optional[int], body: bytes,
          error: Optional[str]) -> Tuple[Optional[str], Dict[str, object]]:
    """``(problem or None, response document)`` for one answer."""
    if error is not None:
        return "%s: %s" % (item.label, error), {}
    if status != 200:
        return "%s: HTTP %s" % (item.label, status), {}
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "%s: unreadable response" % item.label, {}
    problems = compare_frozen(document.get("metrics", {}), item.expected,
                              item.label)
    return ("; ".join(problems) if problems else None), document


def score(items: List[Item], samples, result: common.Result):
    """Judge every answer into ``result``.  Returns ``(latencies, ok,
    verified, documents)``: latency in seconds from due time, with every
    failed, refused or wrong answer counted at no less than the client
    timeout (so it misses any latency limit); ``ok`` counts correct
    answers within :data:`LATENCY_LIMIT_S`; ``verified[i]`` says whether
    answer ``i`` was correct."""
    latencies: List[float] = []
    documents: List[Dict[str, object]] = []
    verified: List[bool] = []
    ok = 0
    for item, sample in zip(items, samples):
        result.attempted += 1
        problem, document = judge(item, sample.status, sample.body,
                                  sample.error)
        documents.append(document)
        verified.append(problem is None)
        if problem is not None:
            result.fail(problem)
            latencies.append(max(sample.latency, REQUEST_TIMEOUT_S))
            continue
        latencies.append(sample.latency)
        ok += sample.latency <= LATENCY_LIMIT_S
    return latencies, ok, verified, documents


def stage_seconds(document: Dict[str, object]) -> float:
    """Pipeline stage time the daemon's worker spent on one answer."""
    stages = (document.get("telemetry") or {}).get("stages", {})
    return sum(stage["seconds"] for stage in stages.values())


# -- the daemon ---------------------------------------------------------------

class Daemon:
    """A ``repro serve`` child in its own process group."""

    def __init__(self, workdir: common.Workdir) -> None:
        cache = workdir.fresh("serve-cache")
        self.log_path = os.path.join(workdir.path, "daemon-%d.log"
                                     % len(os.listdir(workdir.path)))
        self.log = open(self.log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            cwd=common.ROOT, env=common.child_env(REPRO_CACHE_DIR=cache),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True)
        self.pgid = self.process.pid
        self.host = "127.0.0.1"
        try:
            self.port = self._read_port(60.0)
        except BaseException:
            self.close()
            raise

    def _read_port(self, timeout: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + timeout
        buffered = b""
        try:
            while b"\n" not in buffered:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise RuntimeError("daemon did not start in %.0f s"
                                       % timeout)
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("daemon exited: see %s"
                                       % self.log_path)
                buffered += chunk
        finally:
            selector.close()
        line = buffered.split(b"\n", 1)[0].decode("utf-8", "replace")
        address = line.split("listening on ", 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def get(self, path: str) -> Dict[str, object]:
        url = "http://%s:%d%s" % (self.host, self.port, path)
        with urllib.request.urlopen(url, timeout=REQUEST_TIMEOUT_S) as reply:
            return json.loads(reply.read().decode("utf-8"))

    def pids(self) -> List[int]:
        """The daemon and its pool workers (its direct children)."""
        pids = [self.process.pid]
        task_dir = "/proc/%d/task" % self.process.pid
        try:
            for task in os.listdir(task_dir):
                with open(os.path.join(task_dir, task, "children")) as fh:
                    pids += [int(pid) for pid in fh.read().split()]
        except OSError:
            pass
        return pids

    def peak_rss_mb(self) -> float:
        total = 0.0
        for pid in self.pids():
            try:
                with open("/proc/%d/status" % pid) as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except OSError:
                pass
        return total

    def _group_alive(self) -> bool:
        """Any non-zombie process left in the daemon's group?"""
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/stat" % entry) as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == self.pgid and fields[0] != "Z":
                return True
        return False

    def _wait_gone(self, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None and not self._group_alive():
                return True
            time.sleep(0.02)
        return False

    def close(self) -> None:
        """Interrupt the group (a graceful pool shutdown), then kill
        whatever remains, and wait until the group is gone."""
        for sig in (signal.SIGINT, signal.SIGKILL):
            try:
                os.killpg(self.pgid, sig)
            except ProcessLookupError:
                break
            if self._wait_gone(5.0):
                break
        self.process.stdout.close()
        self.log.close()
        if self._group_alive():
            common.log("WARNING: processes of group %d survived SIGKILL"
                       % self.pgid)


def _run_requests(daemon: Daemon, offsets, bodies):
    return asyncio.run(drive(daemon.host, daemon.port, offsets, bodies,
                             connections=CONNECTIONS))


# -- the workload ---------------------------------------------------------------

class ServeOpen:
    name = "serve-open"

    def __init__(self, seed: int, seconds: float, result: common.Result,
                 workdir: common.Workdir) -> None:
        self.seed = seed
        self.seconds = seconds
        self.result = result
        self.workdir = workdir
        self.daemon: Optional[Daemon] = None

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None

    def _boot(self) -> float:
        """Start a daemon, wait until healthy, warm the hot set."""
        self.close()
        start = time.perf_counter()
        self.daemon = Daemon(self.workdir)
        self.daemon.get("/healthz")
        bodies = [json.dumps(_cell_body(cell), sort_keys=True).encode()
                  for cell in HOT_SET]
        samples = _run_requests(self.daemon, [0.0] * len(bodies), bodies)
        seconds = time.perf_counter() - start
        bad = [s for s in samples if s.status != 200]
        if bad:
            raise RuntimeError("warm-up request failed: %s %s"
                               % (bad[0].status, bad[0].error))
        return seconds

    def run(self, traced: bool) -> None:
        from repro.api import workload_names
        expected = load_expected()
        times = [self._boot() for _ in range(SETUP_REPEATS)]
        common.log("setup runs: %s s" % ", ".join("%.3f" % t for t in times))
        offsets = arrival_offsets(self.seed, RATE_PER_S, self.seconds)
        items = request_mix(self.seed, len(offsets), workload_names(),
                            expected)
        before = self.daemon.get("/metrics")
        started = time.perf_counter()
        samples = _run_requests(self.daemon, offsets,
                                [item.body for item in items])
        wall = time.perf_counter() - started
        after = self.daemon.get("/metrics")
        peak_rss = self.daemon.peak_rss_mb()
        self.close()

        result = self.result
        latencies, ok, verified, documents = score(items, samples, result)
        common.log("%d requests (%d hot, %d inline) in %.2f s"
                   % (len(items), sum(i.kind == "hot" for i in items),
                      sum(i.kind == "inline" for i in items), wall))
        # Latency figures cover the computed requests (registry cells and
        # inline kernels): a median over them and the memo hits would
        # fall between two populations.
        computed = [1000.0 * latency
                    for item, latency in zip(items, latencies)
                    if item.kind != "hot"]
        if not traced:
            evaluated = [document for item, good, document
                         in zip(items, verified, documents)
                         if good and item.kind != "hot"
                         and not document.get("memoized")]
            hot = [1000.0 * latency for item, latency
                   in zip(items, latencies) if item.kind == "hot"]
            result.metric("setup_s", common.median(times), SETUP_REPEATS)
            service_s = sum(stage_seconds(document)
                            for document in evaluated)
            result.metric("cells_per_s", (len(evaluated) / service_s
                                          if service_s else 0.0),
                          len(evaluated))
            result.metric("latency_p50_ms", common.median(computed),
                          len(computed))
            result.note("latency_p90_ms",
                        common.percentile(computed, 0.9)[0], "ms",
                        len(computed))
            if hot:
                result.note("memo_latency_p50_ms", common.median(hot),
                            "ms", len(hot))
            result.metric("ok_frac", ok / len(samples), len(samples))
            result.metric("peak_rss_mb", peak_rss)
            return
        self._report_layers(items, samples, computed, documents, before,
                            after)

    def _report_layers(self, items, samples, computed_ms, documents,
                       before, after) -> None:
        from .inprocess import emit_layers
        from repro.api import ProgramSpec
        counters = {name: after["counters"][name]
                    - before["counters"].get(name, 0)
                    for name in after["counters"]}
        metrics: Dict[str, float] = {
            "service.requests": counters["requests_total"],
            "service.memo_hits": counters["memo_hits"],
            "service.memo_hit_ratio": (counters["memo_hits"]
                                       / max(counters["requests_total"], 1)),
            "service.evaluations": counters["evaluations_completed"],
            "service.shed": counters["shed_total"],
            "service.timeouts": counters["timeouts_total"],
            "service.respawns": counters["worker_respawns"],
            "service.retries": counters["retries_total"],
        }
        for stage, layer in STAGE_LAYERS.items():
            if layer not in LAYER_METRICS:
                continue
            runs_name, seconds_name = LAYER_METRICS[layer]
            now = after["stages"].get(stage, {})
            then = before["stages"].get(stage, {})
            if runs_name is not None:
                metrics[runs_name] = now.get("runs", 0) - then.get("runs", 0)
            metrics[seconds_name] = (now.get("seconds", 0.0)
                                     - then.get("seconds", 0.0))
        cache_now, cache_then = after["cache"], before["cache"]
        for name in ("hits", "misses", "stores", "invalidations"):
            metrics["cache." + name] = (cache_now.get(name, 0)
                                        - cache_then.get(name, 0))
        lookups = metrics["cache.hits"] + metrics["cache.misses"]
        metrics["cache.hit_ratio"] = (metrics["cache.hits"] / lookups
                                      if lookups else 0.0)
        eval_ms = [1000.0 * stage_seconds(document)
                   for document in documents
                   if document.get("telemetry") and not
                   document.get("memoized")]
        if eval_ms:
            metrics["service.eval_p50_ms"] = common.median(eval_ms)
        metrics["loadgen.latency_p90_ms"] = common.percentile(
            computed_ms, 0.9)[0] or 0.0
        waits = [1000.0 * sample.conn_wait for sample in samples]
        wait_p90, _ = common.percentile(waits, 0.9)
        metrics["loadgen.conn_wait_p90_ms"] = (max(waits) if wait_p90 is None
                                               else wait_p90)
        metrics["loadgen.late_max_ms"] = max(1000.0 * sample.late
                                             for sample in samples)
        # Client-side: the frontend's cost on the same inline programs.
        inline = [json.loads(item.body)["program"]["value"]
                  for item in items if item.kind == "inline"]
        start = time.perf_counter()
        for source in inline:
            ProgramSpec.source(source).validate()
        metrics["frontend.compiles"] = len(inline)
        metrics["frontend.compile_s"] = time.perf_counter() - start
        write_loadgen_trace(items, samples, "%s-seed%d" % (self.name,
                                                           self.seed))
        emit_layers(self.result, metrics, None, 0.0, "")


def write_loadgen_trace(items: List[Item], samples, label: str) -> None:
    """Client-side spans as Chrome trace events: per request a
    ``request`` span from due time to answer, nesting the wait for a
    connection and the time on the wire.  Overlapping requests go to
    separate tracks."""
    origin = min(sample.due for sample in samples)
    lanes: List[float] = []
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": "perfbench " + label}}]

    def event(name, start, end, lane, args=None):
        events.append({"name": name, "cat": "loadgen", "ph": "X", "pid": 1,
                       "tid": lane, "ts": round((start - origin) * 1e6, 3),
                       "dur": round((end - start) * 1e6, 3),
                       "args": args or {}})

    for item, sample in sorted(zip(items, samples),
                               key=lambda pair: pair[1].due):
        lane = next((index for index, end in enumerate(lanes)
                     if end <= sample.due), len(lanes))
        if lane == len(lanes):
            lanes.append(0.0)
        lanes[lane] = sample.done
        event("request:" + item.kind, sample.due, sample.done, lane + 1,
              {"cell": item.label, "status": sample.status or 0,
               "error": sample.error or ""})
        event("wait", sample.due, sample.acquired, lane + 1)
        event("server", sample.acquired, sample.done, lane + 1)
    os.makedirs(common.TRACE_DIR, exist_ok=True)
    path = os.path.join(common.TRACE_DIR, label + ".trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    common.log("span file: %s (%d requests on %d tracks)"
               % (os.path.relpath(path, common.ROOT), len(samples),
                  len(lanes)))
