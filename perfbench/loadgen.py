"""Open-loop and closed-loop policy traffic from one thread, one event loop.

Every connection is a pipelined Postfix policy connection.  The policy
protocol answers in order on each connection, so a FIFO of request
indices per connection pairs every response with its request; each
response's verb is checked against the request's expected verb.

Two phases share one :class:`Traffic`:

* :meth:`Traffic.paced` — open loop.  Request ``i`` (in global order,
  dealt round-robin over the connections) is *due* at ``t0 + i / rate``.
  The sender wakes, writes everything due in one write per connection
  and sleeps until the next due time; it never waits for responses.
  Latency is counted from the due time, and the send delay past the due
  time is the generator's lag.
* :meth:`Traffic.saturate` — closed loop.  Each connection keeps a fixed
  window of requests outstanding, refilled as responses arrive, so the
  server is never idle.

Both phases keep the connections in lockstep: the paced deal is
round-robin, and in the closed loop no connection may run more than
``lockstep`` requests ahead of the slowest one.  Replay daemons clamp
their virtual clock to the highest stamp seen, so a connection far ahead
would age the others' pending triplets.
"""

from __future__ import annotations

import asyncio
from array import array
from collections import deque
from time import perf_counter
from typing import Deque, List, Optional, Sequence

#: Closed-loop requests outstanding per connection.
WINDOW = 256

#: Maximum requests one connection may run ahead of another (closed loop).
LOCKSTEP = 1024


class Stream:
    """One connection's requests: wire bytes plus the expected verb."""

    __slots__ = ("payloads", "expected")

    def __init__(self, payloads: List[bytes], expected: List[bytes]) -> None:
        if len(payloads) != len(expected):
            raise ValueError("one expected verb per request")
        self.payloads = payloads
        self.expected = expected

    def __len__(self) -> int:
        return len(self.payloads)


class _Connection(asyncio.Protocol):
    def __init__(self, traffic: "Traffic", index: int) -> None:
        self.traffic = traffic
        self.index = index
        self.transport: Optional[asyncio.Transport] = None
        self.pending: Deque[int] = deque()  # local indices in flight
        self.sent = 0  # next local index to send
        self.acked = 0  # responses received
        self.residue = b""
        self.lost: Optional[BaseException] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if self.pending:
            self.lost = exc or ConnectionError(
                f"connection {self.index} closed with "
                f"{len(self.pending)} responses outstanding"
            )
            self.traffic._wake()

    def data_received(self, data: bytes) -> None:
        now = perf_counter()
        if self.residue:
            data = self.residue + data
        parts = data.split(b"\n\n")
        self.residue = parts.pop()
        traffic = self.traffic
        expected = traffic.streams[self.index].expected
        pending = self.pending
        received = traffic.received
        mismatches = 0
        for part in parts:
            local = pending.popleft()
            if (part[:7] != b"action="
                    or part[7:].split(b" ", 1)[0] != expected[local]):
                mismatches += 1
            if received is not None:
                received[local * traffic.width + self.index] = now
        self.acked += len(parts)
        traffic.mismatches += mismatches
        traffic.outstanding -= len(parts)
        traffic.on_responses(self)

    def send(self, lo: int, hi: int) -> None:
        stream = self.traffic.streams[self.index]
        self.transport.write(b"".join(stream.payloads[lo:hi]))
        self.pending.extend(range(lo, hi))
        self.sent = hi
        self.traffic.outstanding += hi - lo


class Traffic:
    """Connections to one server plus the per-connection request streams."""

    def __init__(self, streams: Sequence[Stream]) -> None:
        self.streams = list(streams)
        self.width = len(self.streams)
        self.conns: List[_Connection] = []
        self.mismatches = 0
        self.outstanding = 0
        self.inflight_max = 0
        self.received: Optional["array[float]"] = None
        self._mode = "idle"
        self._limit = 0
        self._done: Optional[asyncio.Future] = None

    async def connect(self, host: str, port: int) -> None:
        """Open one connection per stream.  After :meth:`close` the new
        connections carry on where the old ones stopped, so a run may
        hold its connections open only while it drives this server."""
        loop = asyncio.get_running_loop()
        old, self.conns = self.conns, []
        if any(conn.pending for conn in old):
            raise RuntimeError("reconnecting with responses outstanding")
        for index in range(self.width):
            _, conn = await loop.create_connection(
                lambda i=index: _Connection(self, i), host, port
            )
            if old:
                conn.sent = conn.acked = old[index].sent
            self.conns.append(conn)

    def close(self) -> None:
        for conn in self.conns:
            if conn.transport is not None:
                conn.transport.close()

    @property
    def sent(self) -> int:
        return sum(conn.sent for conn in self.conns)

    # ------------------------------------------------------------------
    def _wake(self) -> None:
        if self._done is not None and not self._done.done():
            self._done.set_result(None)

    def on_responses(self, conn: _Connection) -> None:
        if self._mode == "closed":
            self._refill()
        if all(c.acked >= self._limit for c in self.conns):
            self._wake()

    def _refill(self) -> None:
        floor = min(conn.acked for conn in self.conns)
        for conn in self.conns:
            hi = min(conn.acked + WINDOW, floor + LOCKSTEP, self._limit)
            if hi > conn.sent:
                conn.send(conn.sent, hi)

    async def _wait(self, timeout: float) -> None:
        try:
            await asyncio.wait_for(asyncio.shield(self._done), timeout)
        finally:
            self._mode = "idle"
        for conn in self.conns:
            if conn.lost is not None:
                raise ConnectionError(str(conn.lost))

    # ------------------------------------------------------------------
    async def saturate(self, per_connection: int, timeout: float) -> float:
        """Closed loop until every connection has ``per_connection`` more
        answers; returns the wall time from the first send to the last
        answer.
        """
        start = self.conns[0].sent
        if any(conn.sent != start for conn in self.conns):
            raise RuntimeError("connections must start a phase in lockstep")
        self._limit = start + per_connection
        if self._limit > min(len(s) for s in self.streams):
            raise ValueError("streams too short for the closed-loop phase")
        self._done = asyncio.get_running_loop().create_future()
        self._mode = "closed"
        began = perf_counter()
        self._refill()
        await self._wait(timeout)
        return perf_counter() - began

    async def paced(
        self, count: int, rate: float, timeout: float
    ) -> "PacedResult":
        """Open loop: ``count`` requests in total at ``rate`` per second."""
        width = self.width
        if count % width:
            raise ValueError("the paced count must divide over the connections")
        base = self.conns[0].sent
        if any(conn.sent != base for conn in self.conns):
            raise RuntimeError("connections must start a phase in lockstep")
        self._limit = base + count // width
        if self._limit > min(len(s) for s in self.streams):
            raise ValueError("streams too short for the paced phase")
        # Request g of the phase goes to connection g % width as its local
        # request base + g // width; ``received`` is indexed by g.
        offset = base * width
        received = array("d", bytes(8 * (offset + count)))
        self.received = received
        sent_at = array("d", bytes(8 * count))
        self._done = asyncio.get_running_loop().create_future()
        self._mode = "paced"
        conns = self.conns
        t0 = perf_counter() + 0.01
        i = 0
        inflight_max = 0
        while i < count:
            now = perf_counter()
            j = min(count, int((now - t0) * rate) + 1)
            if j > i:
                for conn in conns:
                    lo = base + (i - conn.index + width - 1) // width
                    hi = base + (j - conn.index + width - 1) // width
                    if hi > lo:
                        conn.send(lo, hi)
                for g in range(i, j):
                    sent_at[g] = now
                i = j
                if self.outstanding > inflight_max:
                    inflight_max = self.outstanding
            delay = t0 + i / rate - perf_counter()
            await asyncio.sleep(delay if delay > 0 else 0)
        await self._wait(timeout)
        self.received = None
        self.inflight_max = max(self.inflight_max, inflight_max)
        return PacedResult(t0, rate, sent_at, received[offset:])


class PacedResult:
    """Per-request timestamps of one open-loop phase."""

    def __init__(
        self,
        t0: float,
        rate: float,
        sent_at: "array[float]",
        received: "array[float]",
    ) -> None:
        self.t0 = t0
        self.rate = rate
        self.sent_at = sent_at
        self.received = received

    @property
    def count(self) -> int:
        return len(self.sent_at)

    def intended(self) -> List[float]:
        return [self.t0 + i / self.rate for i in range(self.count)]

    @property
    def first_send(self) -> float:
        return self.sent_at[0]

    @property
    def last_answer(self) -> float:
        return max(self.received)
