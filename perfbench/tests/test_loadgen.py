"""The open-loop generator: seeded schedules, latency from due time,
percentile reporting rules, and failures missing the latency limit."""

import asyncio
import json

import pytest

from perfbench import common
from perfbench.loadgen import REQUEST_TIMEOUT_S, arrival_offsets, drive
from perfbench.oracle import load_expected
from perfbench.serve import (LATENCY_LIMIT_S, RATE_PER_S, Item, request_mix,
                             score)


def test_arrival_schedule_is_deterministic_in_the_seed():
    first = arrival_offsets(7, RATE_PER_S, 20.0)
    assert first == arrival_offsets(7, RATE_PER_S, 20.0)
    assert first != arrival_offsets(8, RATE_PER_S, 20.0)
    assert len(first) == round(RATE_PER_S * 20.0)
    assert first == sorted(first) and 0.0 <= first[0] and first[-1] < 20.0


def test_request_mix_is_deterministic_and_distinct():
    from repro.api import workload_names
    expected = load_expected()
    names = workload_names()
    mix = request_mix(3, 120, names, expected)
    again = request_mix(3, 120, names, expected)
    assert [item.body for item in mix] == [item.body for item in again]
    assert [item.body for item in mix] != [
        item.body for item in request_mix(4, 120, names, expected)]
    kinds = [item.kind for item in mix]
    assert kinds.count("hot") == 24 and kinds.count("inline") == 24
    distinct = [item.body for item in mix if item.kind != "hot"]
    assert len(set(distinct)) == len(distinct)
    assert all(item.expected for item in mix)


def test_registry_draw_balances_workloads_and_configurations():
    import collections
    import random

    from repro.api import workload_names
    from perfbench.universe import cell_key, serve_draw, serve_universe
    names = workload_names()
    universe = {cell_key(cell) for cell in serve_universe(names)}

    def census(seed):
        cells = serve_draw(names, 96, random.Random(seed))
        assert len({cell_key(cell) for cell in cells}) == 96
        assert {cell_key(cell) for cell in cells} <= universe
        workloads = collections.Counter(cell["workload"] for cell in cells)
        configs = collections.Counter(
            (cell["technique"], cell.get("local_schedule"),
             cell.get("topology")) for cell in cells)
        return workloads, configs

    first, second = census(1), census(2)
    assert set(first[0].values()) == {6}
    assert first == second


async def _serve(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _responder(stall_on: int, stall_s: float, statuses=None):
    """A fake HTTP server answering in arrival order; the request with
    index ``stall_on`` stalls for ``stall_s`` seconds."""
    seen = []

    async def handler(reader, writer):
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = int([line.split(b":")[1] for line in head.split(b"\r\n")
                          if line.lower().startswith(b"content-length")][0])
            await reader.readexactly(length)
            index = len(seen)
            seen.append(index)
            if index == stall_on:
                await asyncio.sleep(stall_s)
            status = (statuses or {}).get(index, 200)
            body = b'{"metrics": {}}'
            writer.write(b"HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n%s"
                         % (status, len(body), body))
            await writer.drain()
    return handler


def _run(offsets, stall_on, stall_s, statuses=None, connections=1):
    async def main():
        server, port = await _serve(_responder(stall_on, stall_s, statuses))
        async with server:
            return await drive("127.0.0.1", port, offsets,
                               [b"{}"] * len(offsets),
                               connections=connections, timeout=5.0)
    return asyncio.run(main())


def test_latency_is_timed_from_due_time():
    offsets = [0.02 * index for index in range(8)]
    stall = 0.5
    samples = _run(offsets, stall_on=0, stall_s=stall)
    assert all(sample.status == 200 for sample in samples)
    # Every request due during the stall waits for it: its latency grows
    # by the rest of the stall, though the server answers it at once.
    for sample, offset in zip(samples[1:], offsets[1:]):
        assert sample.latency >= stall - offset - 0.01
        assert sample.conn_wait >= stall - offset - 0.05
    quiet = _run(offsets, stall_on=-1, stall_s=0.0)
    assert max(sample.latency for sample in quiet) < 0.1


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 100))
    assert common.percentile(values, 0.9) == (None, 9)
    value, beyond = common.percentile(list(range(1, 101)), 0.9)
    assert (value, beyond) == (90, 10)
    result = common.Result()
    result.note("latency_p90_ms", None, "ms", 99)
    assert "latency_p90_ms" not in result.metrics
    result.metric("latency_p50_ms", 5.0, 99)
    assert result.metrics["latency_p50_ms"] == {"value": 5.0, "unit": "ms"}


class _Sample:
    def __init__(self, latency, status, body=b'{"metrics": {}}',
                 error=None):
        self.latency = latency
        self.status = status
        self.body = body
        self.error = error


def _item(expected):
    return Item("registry", {"program": {}}, "cell", expected)


def test_refusals_and_errors_miss_the_latency_limit():
    items = [_item({}), _item({}), _item({})]
    samples = [_Sample(0.01, 200), _Sample(0.01, 429),
               _Sample(0.01, None, b"", "ConnectionError")]
    result = common.Result()
    latencies, ok, verified, _ = score(items, samples, result)
    assert verified == [True, False, False]
    assert (ok, result.failed, result.attempted) == (1, 2, 3)
    assert latencies[0] == pytest.approx(0.01)
    assert min(latencies[1:]) >= REQUEST_TIMEOUT_S > LATENCY_LIMIT_S


def test_planted_wrong_answer_raises_failed_frac(capsys):
    expected = {"mt_cycles": 100.0, "st_cycles": 200.0}
    right = json.dumps({"metrics": {"mt_cycles": 100, "st_cycles": 200}})
    wrong = json.dumps({"metrics": {"mt_cycles": 101, "st_cycles": 200}})
    result = common.Result()
    score([_item(expected), _item(expected)],
          [_Sample(0.01, 200, right.encode()),
           _Sample(0.01, 200, wrong.encode())], result)
    assert (result.failed, result.attempted) == (1, 2)
    result.emit()
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
