"""A policy server that answers every stanza with ``action=DUNNO`` at once.

Run against the paced generator it measures the generator's own latency
floor (the serve workloads' calibration).  ``--stall-after N
--stall-ms M`` blocks the event loop for ``M`` ms once, after ``N``
answers: the generator self-test uses it to check that a stall shows up
in the latency of every request queued behind it.

Prints ``listening on HOST:PORT`` when ready and ``served N decisions``
on SIGTERM, like ``repro serve``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import time

ANSWER = b"action=DUNNO\n\n"


class _Responder(asyncio.Protocol):
    def __init__(self, state: dict) -> None:
        self.state = state
        self.carry = False  # previous read ended in a lone newline

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        count = data.count(b"\n\n")
        if self.carry and data[:1] == b"\n":
            count += 1
        self.carry = data.endswith(b"\n") and not data.endswith(b"\n\n")
        state = self.state
        before = state["served"]
        state["served"] = before + count
        stall_after = state["stall_after"]
        if before < stall_after <= state["served"] and state["stall_s"]:
            time.sleep(state["stall_s"])
        self.transport.write(ANSWER * count)


async def serve(port: int, stall_after: int, stall_ms: float) -> int:
    state = {"served": 0, "stall_after": stall_after, "stall_s": stall_ms / 1e3}
    loop = asyncio.get_running_loop()
    server = await loop.create_server(
        lambda: _Responder(state), "127.0.0.1", port
    )
    host, bound = server.sockets[0].getsockname()[:2]
    print(f"listening on {host}:{bound}", flush=True)
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    server.close()
    await server.wait_closed()
    print(f"served {state['served']} decisions", flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--stall-after", type=int, default=0)
    parser.add_argument("--stall-ms", type=float, default=0.0)
    args = parser.parse_args()
    return asyncio.run(serve(args.port, args.stall_after, args.stall_ms))


if __name__ == "__main__":
    raise SystemExit(main())
