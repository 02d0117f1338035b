"""Out-of-process load generator: one process, one asyncio thread.

A minimal HTTP/1.1 keep-alive client on asyncio streams drives the
service from outside its process, so client work never competes with
the server for one interpreter lock.  Two schedules:

- **open loop** at a fixed rate: request ``i`` is due at ``t0 + i/rate``
  whatever the server does; it waits in a queue for one of the
  keep-alive connections, and its latency is timed from when it was
  *due*, so a stall is charged to every request it delays.  The
  generator's own lateness is recorded separately.
- **closed loop**: each connection sends its next request as soon as
  the previous answer arrives, so the completed rate is the service's
  peak on that many connections.

Bodies are kept as raw bytes during a phase; parsing them is the
correctness check's job, after the clock stops.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Shortest wait handed to the event loop's timer; closer to the due
#: time the generator yields in a loop instead, because the selector
#: rounds timeouts up to whole milliseconds.
_SPIN_S = 0.0015


@dataclass
class Record:
    """One request's fate."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: transport error, no response
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def queue_wait_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def encode(method: str, path: str, body: Optional[bytes] = None) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
    if body is not None:
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    return (head + "\r\n").encode("ascii") + (body or b"")


async def _round_trip(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, payload: bytes
) -> Tuple[int, bytes]:
    writer.write(payload)
    head = await reader.readuntil(b"\r\n\r\n")
    status = int(head[9:12])
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
            break
    body = await reader.readexactly(length) if length else b""
    return status, body


class _Connection:
    """One keep-alive connection that reconnects after a transport error."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def send(self, payload: bytes) -> Tuple[int, bytes]:
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection(
                    self.host, self.port
                )
            return await _round_trip(self.reader, self.writer, payload)
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
            await self.close()
            return 0, b""

    async def close(self) -> None:
        writer, self.writer, self.reader = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _open_loop(
    host: str, port: int, payloads: Sequence[bytes], rate: float, conns: int
) -> Tuple[List[Record], List[float]]:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    t0 = loop.time() + 0.05
    records = [Record(i, t0 + i / rate) for i in range(len(payloads))]
    lags: List[float] = []

    async def generate() -> None:
        for rec in records:
            delay = rec.due - loop.time()
            if delay > _SPIN_S:
                await asyncio.sleep(delay - _SPIN_S)
            while loop.time() < rec.due:
                await asyncio.sleep(0)
            lags.append((loop.time() - rec.due) * 1e3)
            queue.put_nowait(rec)
        for _ in range(conns):
            queue.put_nowait(None)

    async def serve_queue() -> None:
        conn = _Connection(host, port)
        try:
            while True:
                rec = await queue.get()
                if rec is None:
                    return
                rec.sent = loop.time()
                rec.status, rec.body = await conn.send(payloads[rec.index])
                rec.done = loop.time()
        finally:
            await conn.close()

    await asyncio.gather(generate(), *(serve_queue() for _ in range(conns)))
    return records, lags


async def _closed_loop(
    host: str, port: int, payloads: Sequence[bytes], conns: int
) -> Tuple[List[Record], float]:
    loop = asyncio.get_running_loop()
    records = [Record(i, 0.0) for i in range(len(payloads))]
    pending = iter(records)
    connections = [_Connection(host, port) for _ in range(conns)]
    # connect first, so the pass times requests, not handshakes
    for conn in connections:
        conn.reader, conn.writer = await asyncio.open_connection(host, port)

    async def drive(conn: _Connection) -> None:
        for rec in pending:
            rec.due = rec.sent = loop.time()
            rec.status, rec.body = await conn.send(payloads[rec.index])
            rec.done = loop.time()

    start = loop.time()
    try:
        await asyncio.gather(*(drive(conn) for conn in connections))
    finally:
        wall = loop.time() - start
        for conn in connections:
            await conn.close()
    return records, wall


def _without_gc(coro):
    """Run a phase with the collector paused, so its pauses are not charged to the server."""
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(coro)
    finally:
        gc.enable()


def open_loop(
    host: str, port: int, payloads: Sequence[bytes], rate: float, conns: int
) -> Tuple[List[Record], List[float]]:
    """Send ``payloads`` at ``rate`` per second; returns records and lags (ms)."""
    return _without_gc(_open_loop(host, port, payloads, rate, conns))


def closed_loop(
    host: str, port: int, payloads: Sequence[bytes], conns: int
) -> Tuple[List[Record], float]:
    """Send ``payloads`` back to back on ``conns`` connections; returns wall s."""
    return _without_gc(_closed_loop(host, port, payloads, conns))


def wait_healthy(host: str, port: int, deadline: float, alive) -> float:
    """Poll ``/healthz`` until it answers 200; returns the monotonic time."""
    import http.client

    while time.perf_counter() < deadline:
        if not alive():
            raise ConnectionError("server exited during start-up")
        conn = http.client.HTTPConnection(host, port, timeout=2.0)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return time.perf_counter()
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.005)
    raise TimeoutError("server did not become healthy in time")


def get_json(host: str, port: int, path: str):
    """One blocking GET outside any timed phase."""
    import http.client
    import json

    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise ConnectionError(f"GET {path}: HTTP {response.status}")
        return json.loads(data)
    finally:
        conn.close()
