"""The two serve workloads: a policy daemon under paced and saturating load.

The daemon is ``python -m repro serve --clock replay`` (one worker) in a
subprocess; this process is the single client.  With two or more usable
cores the daemon and the client are pinned to different cores.

A run: spawn the daemon ``SETUP_SPAWNS`` times (``setup_s`` is the
median spawn-to-``listening on`` time; all but the last two are stopped
at once), warm up, alternate paced windows on the last daemon with
closed-loop chunks on the one before it, then stop both with SIGTERM
and require each one's ``served N decisions`` line to equal the requests
sent to it.  Both cores are kept awake by
:func:`idle_spinners` throughout.

Request streams come from a Kelihos campaign captured by
``repro.serve.loadgen.capture_bot_trace``:

Every request carries a virtual-time ``stamp`` of ``STAMP_STEP`` times its
position on its connection, the same on every connection, so the
connections advance virtual time in lockstep.  The daemon's replay clock
jumps to the highest stamp it has seen; a connection running ``d``
requests ahead therefore ages the others' triplets by at most
``d * STAMP_STEP``, and every first attempt is placed far enough before
its retry that such a lead cannot turn the retry into an early one.

* ``serve-fresh``: every triplet is seen exactly twice (greylisted, then
  passed), 50 % of each.  The campaign's triplets are tiled with a
  client /24 per tile and connection, so no triplet repeats; after the
  first ``RETRY_LAG`` first attempts each first attempt is followed by
  the retry of the triplet ``RETRY_LAG`` earlier in retry order, at least
  ``RETRY_LAG - messages`` positions after its first attempt.
* ``serve-known``: a fixed working set is greylisted, passed, and then
  replayed lap after lap; every measured request is ``PASSED_KNOWN``.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import loadgen
import stats
from loadgen import Stream, Traffic

#: The daemon's greylisting delay (``repro serve --delay`` default).
DELAY = 300.0

#: Virtual seconds per request position on a connection.
STAMP_STEP = 1.0

#: Retry distance in first attempts (serve-fresh); see the module doc.
RETRY_LAG = 2000

#: Daemon spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5

#: The generator fell behind when its send lag p99 exceeds this.
LAG_LIMIT_MS = 20.0

DEFER = b"DEFER_IF_PERMIT"
DUNNO = b"DUNNO"


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    backend: str
    rate: float  # paced offered load, requests/s over all connections
    messages: int  # campaign size captured per tile / working set
    extra_args: Tuple[str, ...] = ()


WORKLOADS: Dict[str, ServeWorkload] = {
    "serve-fresh": ServeWorkload(
        "serve-fresh", "memory", rate=6000.0, messages=500,
    ),
    "serve-known": ServeWorkload(
        "serve-known", "shm", rate=4000.0, messages=5000,
        extra_args=("--shm-capacity", "32768"),
    ),
}

#: Share of ``--seconds`` spent in paced windows; the closed-loop chunks
#: between them take most of the rest.
PACED_SHARE = 0.75
#: Requests per connection sent before any phase is timed (serve-fresh):
#: past the first RETRY_LAG, which are all first attempts.
WARMUP_PER_CONNECTION = RETRY_LAG + 500


# ----------------------------------------------------------------------
# Request streams
# ----------------------------------------------------------------------
def _render(client: str, sender: str, recipient: str, stamp: float) -> bytes:
    from repro.serve.client import make_request_attrs
    from repro.serve.protocol import format_request

    return format_request(make_request_attrs(client, sender, recipient, stamp))


def _campaign(messages: int, seed: int):
    """First attempts and retries of a captured Kelihos campaign."""
    from repro.serve.loadgen import capture_bot_trace

    trace = capture_bot_trace(num_messages=messages, seed=seed)
    firsts, retries = [], []
    seen = set()
    for request in trace.requests:
        key = (request.client, request.sender, request.recipient)
        if key not in seen:
            seen.add(key)
            if request.expected != DEFER.decode():
                raise RuntimeError("campaign first attempt was not deferred")
            firsts.append(request)
        else:
            if request.expected != DUNNO.decode():
                raise RuntimeError("campaign retry was not passed")
            retries.append(request)
    if len(retries) != len(firsts):
        raise RuntimeError("campaign triplets are not seen exactly twice")
    return firsts, retries


def _rebase(client: str, tile: int) -> str:
    host = client.rsplit(".", 1)[1]
    return f"10.{(tile >> 8) & 0xFF}.{tile & 0xFF}.{host}"


def fresh_streams(
    seed: int, messages: int, connections: int, measured: int
) -> Tuple[List[Stream], int]:
    """Never-repeating first attempts and retries, 50 % each after the
    warm-up; returns the streams and the warm-up length per connection."""
    per_connection = WARMUP_PER_CONNECTION + measured
    firsts, retries = _campaign(messages, seed)
    if RETRY_LAG - messages < loadgen.LOCKSTEP + DELAY / STAMP_STEP:
        raise ValueError("campaign too large for the retry lag")
    streams = []
    for conn in range(connections):
        payloads: List[bytes] = []
        expected: List[bytes] = []

        def add(request, tile: int, verb: bytes) -> None:
            payloads.append(_render(
                _rebase(request.client, tile * connections + conn),
                request.sender, request.recipient,
                len(payloads) * STAMP_STEP,
            ))
            expected.append(verb)

        index = 0
        while len(payloads) < per_connection:
            add(firsts[index % messages], index // messages, DEFER)
            if index >= RETRY_LAG:
                back = index - RETRY_LAG
                add(retries[back % messages], back // messages, DUNNO)
            index += 1
        streams.append(
            Stream(payloads[:per_connection], expected[:per_connection])
        )
    return streams, WARMUP_PER_CONNECTION


def known_streams(
    seed: int, messages: int, connections: int, measured: int
) -> Tuple[List[Stream], int]:
    """Greylist, pass, then replay a fixed working set; returns the streams
    and the per-connection number of warm-up requests (the first two laps).
    """
    firsts, _ = _campaign(messages, seed)
    streams = []
    lap = len(firsts[connections - 1::connections])
    if lap < loadgen.LOCKSTEP + DELAY / STAMP_STEP:
        raise ValueError("working set too small for lockstep replay")
    total = 2 * lap + measured
    for conn in range(connections):
        mine = firsts[conn::connections][:lap]
        payloads = [
            _render(r.client, r.sender, r.recipient, position * STAMP_STEP)
            for position, r in zip(range(total), itertools.cycle(mine))
        ]
        expected = [DEFER] * lap + [DUNNO] * (total - lap)
        streams.append(Stream(payloads, expected))
    return streams, 2 * lap


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------
@dataclass
class Placement:
    nproc: int
    daemon_cpus: Optional[List[int]]
    client_cpus: Optional[List[int]]
    connections: int

    @classmethod
    def detect(cls) -> "Placement":
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            return cls(len(cpus), [cpus[0]], [cpus[-1]], 2)
        return cls(len(cpus), None, None, 1)

    def describe(self) -> str:
        if self.daemon_cpus is None:
            return (
                f"nproc={self.nproc} connections={self.connections} "
                "placement=unpinned (fewer than 2 cores: client and daemon "
                "share the cpu)"
            )
        return (
            f"nproc={self.nproc} connections={self.connections} "
            f"daemon_cpus={self.daemon_cpus} client_cpus={self.client_cpus}"
        )

    def pin_client(self) -> None:
        if self.client_cpus is not None:
            os.sched_setaffinity(0, self.client_cpus)

    def pin_daemon(self, pid: int) -> None:
        if self.daemon_cpus is not None:
            os.sched_setaffinity(pid, self.daemon_cpus)

    @property
    def cpus(self) -> List[int]:
        """Every core the daemon and the client may run on."""
        if self.daemon_cpus is None:
            return sorted(os.sched_getaffinity(0))
        return self.daemon_cpus + (self.client_cpus or [])


#: Body of an idle spinner: lowest scheduling class, one core, busy loop.
_SPIN = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)


@contextlib.contextmanager
def idle_spinners(cpus: Sequence[int]) -> Iterator[None]:
    """Keep ``cpus`` busy with ``SCHED_IDLE`` loops while the block runs.

    Under a hypervisor an idle virtual CPU is descheduled, and waking it
    for the next request costs a host-dependent delay that swamps the
    sub-millisecond latencies of the paced phase.  A spinner in the idle
    scheduling class keeps each core awake but yields the moment the
    daemon or the client becomes runnable, and its time is not charged
    to either.
    """
    spinners = [
        subprocess.Popen([sys.executable, "-c", _SPIN, str(cpu)])
        for cpu in cpus
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()


# ----------------------------------------------------------------------
# The daemon under test
# ----------------------------------------------------------------------
_LISTENING = re.compile(r"listening on (\S+):(\d+)")
#: A policy request at a protocol state the daemon holds no opinion on.
PING = b"request=smtpd_access_policy\nprotocol_state=CONNECT\n\n"
_SERVED = re.compile(r"served (\d+) decisions")


class Daemon:
    """One policy daemon subprocess."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str], cwd: str,
                 log_path: str) -> None:
        self.argv = list(argv)
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.host = ""
        self.port = 0

    async def start(self, placement: Placement, timeout: float = 60.0) -> float:
        """Spawn and wait for the ``listening on`` line; returns seconds."""
        with open(self.log_path, "ab") as log:
            began = time.perf_counter()
            self.proc = await asyncio.create_subprocess_exec(
                *self.argv, stdout=subprocess.PIPE, stderr=log,
                env=self.env, cwd=self.cwd,
            )
        placement.pin_daemon(self.proc.pid)
        assert self.proc.stdout is not None
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), timeout)
            if not line:
                raise RuntimeError(
                    f"daemon exited before listening (see {self.log_path})"
                )
            match = _LISTENING.search(line.decode(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return time.perf_counter() - began

    async def ping(self, timeout: float = 60.0) -> None:
        """One round trip with a request no plugin is asked about.

        ``repro serve`` prints ``listening on`` just before it installs
        its SIGTERM handler; an answer proves the handler is in place, so
        a SIGTERM sent now drains the daemon instead of killing it (a
        killed shm daemon leaves its segment behind).
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(PING)
            await asyncio.wait_for(reader.readuntil(b"\n\n"), timeout)
        finally:
            writer.close()
            await writer.wait_closed()

    def cpu_seconds(self) -> float:
        """Daemon on-CPU time (user + system) in seconds.

        Read from ``/proc/<pid>/schedstat`` (nanoseconds) rather than the
        utime/stime of ``/proc/<pid>/stat``, whose 10 ms ticks are too
        coarse for the paced windows.  The daemon is single-threaded.
        """
        with open(f"/proc/{self.proc.pid}/schedstat") as handle:
            return int(handle.read().split()[0]) / 1e9

    def vm_hwm_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self, timeout: float = 60.0) -> Tuple[int, Optional[int]]:
        """SIGTERM, wait; returns (exit code, served decisions or None)."""
        assert self.proc is not None and self.proc.stdout is not None
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        rest = await asyncio.wait_for(self.proc.stdout.read(), timeout)
        code = await asyncio.wait_for(self.proc.wait(), timeout)
        served = None
        for match in _SERVED.finditer(rest.decode(errors="replace")):
            served = int(match.group(1))
        return code, served

    async def kill(self) -> None:
        """Kill the daemon if it still runs, and reap it."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


def daemon_argv(
    workload: ServeWorkload, launcher: Optional[List[str]] = None
) -> List[str]:
    """The serve command line; ``launcher`` (a script and its leading
    arguments) replaces ``-m repro`` for the traced daemon."""
    return [sys.executable, *(launcher or ["-m", "repro"]),
        "--store-backend", workload.backend,
        "serve", "--clock", "replay", "--port", "0",
        *workload.extra_args,
    ]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
@dataclass
class PhaseNumbers:
    """What the paced windows measured."""

    windows: List[List[float]] = field(default_factory=list)  # latency ms
    lags_ms: List[float] = field(default_factory=list)
    cpu_s: List[float] = field(default_factory=list)  # daemon CPU per window
    first_send: float = 0.0
    last_answer: float = 0.0

    @property
    def decisions(self) -> int:
        return sum(len(w) for w in self.windows)

    @property
    def cpu_us_per_decision(self) -> float:
        """Over every window together."""
        return sum(self.cpu_s) / self.decisions * 1e6

    def window_cpu_us(self) -> List[float]:
        return [cpu / len(w) * 1e6 for cpu, w in zip(self.cpu_s, self.windows)]


@dataclass
class ServeOutcome:
    setup_s: List[float] = field(default_factory=list)
    paced: PhaseNumbers = field(default_factory=PhaseNumbers)
    chunk_decisions: List[int] = field(default_factory=list)
    chunk_s: List[float] = field(default_factory=list)
    chunk_cpu_us: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    inflight_max: int = 0

    @property
    def chunk_dps(self) -> List[float]:
        return [n / s for n, s in zip(self.chunk_decisions, self.chunk_s)]

    @property
    def max_dps(self) -> float:
        """Decisions per second over every closed-loop chunk together."""
        return sum(self.chunk_decisions) / sum(self.chunk_s)


#: Seconds of offered load per paced window.  A stall of S raises its
#: window's p99 to about S less 1 % of the window (the answers queued
#: behind it are late by S down to 0), so a longer window hides more of
#: the host's own short stalls but takes a fixed amount off every
#: collection and so magnifies their run-to-run variation: over the same
#: eight serve-known runs on a shared two-vCPU host, the mean of the
#: p99s of half-, one- and two-second windows spread by 14, 16 and 18 %
#: of their medians (interquartile range).
WINDOW_S = 1.0
#: Closed-loop answers per chunk, over all connections.
CHUNK = 5000


@contextlib.asynccontextmanager
async def _connected(traffic: Traffic, daemon: Daemon):
    """Hold ``traffic``'s connections to ``daemon`` open for one phase."""
    await traffic.connect(daemon.host, daemon.port)
    try:
        yield
    finally:
        traffic.close()


async def drive(
    daemon: Daemon,
    closed_daemon: Optional[Daemon],
    streams: List[Stream],
    warmup: int,
    windows: int,
    rate: float,
    chunk: int,
    timeout: float,
) -> ServeOutcome:
    """Warm up, then ``windows`` times: one paced window on ``daemon``
    followed by one closed-loop chunk of ``chunk`` requests on
    ``closed_daemon`` (none when it is None); stop the daemons.

    Alternating the two spreads both kinds of sample over the whole run,
    so a slow stretch of the host hits some samples of each rather than
    all of one.  The chunks go to a second daemon of their own, so the
    paced daemon serves only the warm-up and the paced windows: its heap,
    and with it every collection, falls at request counts fixed by the
    schedule, and every collection lands in a paced window instead of
    some escaping into a chunk by chance.  Only one daemon is driven, and
    only its ``len(streams)`` connections are open, at any time.
    """
    outcome = ServeOutcome()
    phase = outcome.paced
    width = len(streams)
    per_window = int(rate * WINDOW_S) // width * width
    drives = [(daemon, Traffic(streams))]
    if closed_daemon is not None:
        drives.append((closed_daemon, Traffic(streams)))
    (_, paced), *rest = drives
    try:
        for server, traffic in drives:
            if warmup:
                async with _connected(traffic, server):
                    await traffic.saturate(warmup, timeout)
        for _ in range(windows):
            async with _connected(paced, daemon):
                cpu = daemon.cpu_seconds()
                result = await paced.paced(per_window, rate, timeout)
                phase.cpu_s.append(daemon.cpu_seconds() - cpu)
            intended = result.intended()
            phase.windows.append([x * 1e3 for x in stats.latencies_from_intended(
                intended, result.received)])
            phase.lags_ms.extend(x * 1e3 for x in stats.lateness(
                intended, result.sent_at))
            phase.first_send = phase.first_send or result.first_send
            phase.last_answer = result.last_answer
            for server, traffic in rest:
                async with _connected(traffic, server):
                    cpu = server.cpu_seconds()
                    elapsed = await traffic.saturate(chunk // width, timeout)
                    outcome.chunk_cpu_us.append(
                        (server.cpu_seconds() - cpu) / chunk * 1e6)
                outcome.chunk_decisions.append(chunk // width * width)
                outcome.chunk_s.append(elapsed)
        outcome.inflight_max = paced.inflight_max
        outcome.peak_rss_mb = max(server.vm_hwm_mib() for server, _ in drives)
    finally:
        for _, traffic in drives:
            traffic.close()
    for server, traffic in drives:
        sent = traffic.sent
        code, served = await server.stop()
        outcome.attempted += sent
        outcome.failed += traffic.mismatches
        if traffic.mismatches:
            outcome.problems.append(
                f"{traffic.mismatches} responses differ from the simulated verb"
            )
        if code != 0:
            outcome.problems.append(f"daemon exited with status {code}")
        if served != sent:
            outcome.problems.append(
                f"daemon served {served} decisions, client sent {sent}"
            )
            outcome.failed += abs(sent - (served or 0))
    if stats.fell_behind(phase.lags_ms, LAG_LIMIT_MS):
        outcome.problems.append(
            "INVALID run: the generator fell behind its schedule "
            f"(lag p99 over {LAG_LIMIT_MS:g} ms)"
        )
    return outcome
