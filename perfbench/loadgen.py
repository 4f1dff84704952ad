"""Open-loop load generation: a seeded arrival schedule and a
single-threaded asyncio sender over a fixed number of keep-alive HTTP
connections.

Every request is timed from the moment it was **due**, not from when a
connection became free, so a stall in the server shows up in the
latency of every request scheduled behind it.
"""

from __future__ import annotations

import asyncio
import random
from typing import List, Optional, Sequence, Tuple

#: Client-side budget per request; a request still unanswered after it
#: counts as timed out (failed).
REQUEST_TIMEOUT_S = 10.0


def arrival_offsets(seed: int, rate: float, seconds: float) -> List[float]:
    """A Poisson arrival schedule over ``[0, seconds)`` conditioned on
    exactly ``round(rate * seconds)`` arrivals: given its count, a
    Poisson process's arrival times are sorted independent uniforms.
    Fixing the count keeps the offered load identical across seeds."""
    rng = random.Random("arrivals:%d" % seed)
    count = int(round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


class Sample:
    """Timestamps and outcome of one sent request (loop-clock seconds)."""

    __slots__ = ("index", "due", "dispatched", "acquired", "done",
                 "status", "body", "error")

    def __init__(self, index: int, due: float, dispatched: float) -> None:
        self.index = index
        self.due = due
        self.dispatched = dispatched
        self.acquired = dispatched
        self.done = dispatched
        self.status: Optional[int] = None
        self.body = b""
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        """Seconds from due time to the complete response."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """How late the generator dispatched the request."""
        return self.dispatched - self.due

    @property
    def conn_wait(self) -> float:
        """Seconds the request waited for a free connection."""
        return self.acquired - self.dispatched


class Connection:
    """A minimal HTTP/1.1 keep-alive client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str,
                      body: bytes) -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        head = ("%s %s HTTP/1.1\r\nHost: %s:%d\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n\r\n"
                % (method, path, self.host, self.port, len(body)))
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by server")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        data = await self.reader.readexactly(length)
        if close:
            self.close()
        return status, data

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


async def drive(host: str, port: int, offsets: Sequence[float],
                bodies: Sequence[bytes], connections: int = 2,
                timeout: float = REQUEST_TIMEOUT_S) -> List[Sample]:
    """POST ``bodies[i]`` to ``/v1/evaluate`` at ``offsets[i]`` seconds
    after the start, regardless of how earlier requests fare (open
    loop), over at most ``connections`` connections in this one
    thread."""
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    pool = [Connection(host, port) for _ in range(connections)]
    for connection in pool:
        free.put_nowait(connection)

    async def send(index: int, due: float) -> Sample:
        sample = Sample(index, due, loop.time())
        connection = await free.get()
        sample.acquired = loop.time()
        try:
            sample.status, sample.body = await asyncio.wait_for(
                connection.request("POST", "/v1/evaluate",
                                   bodies[index]), timeout)
        except (asyncio.TimeoutError, OSError, ValueError, IndexError,
                asyncio.IncompleteReadError) as error:
            sample.error = type(error).__name__
            connection.close()
        sample.done = loop.time()
        free.put_nowait(connection)
        return sample

    start = loop.time() + 0.05
    tasks = []
    try:
        for index, offset in enumerate(offsets):
            delay = start + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(send(index, start + offset)))
        return list(await asyncio.gather(*tasks))
    finally:
        for task in tasks:
            task.cancel()
        for connection in pool:
            connection.close()
