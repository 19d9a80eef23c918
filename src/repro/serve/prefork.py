"""Prefork supervisor for multi-worker policy serving.

The nginx/postgrey process model: a master binds the listening sockets,
forks N workers that each run the single-loop asyncio daemon
(:class:`~repro.serve.server.PolicyServer`), and then does nothing but
supervise — reaping dead children, respawning crashed ones onto the
same accept queue, and fanning SIGTERM out for a coordinated drain.
Workers share one :class:`~repro.greylist.shm.SharedMemoryBackend`
segment (created by the master, attached by name in each child), so a
triplet greylisted by one worker is visible to the retry that lands on
another.

Socket strategy
---------------
Preferred: one ``SO_REUSEPORT`` listening socket per worker, all bound
to the same address before the first fork.  The kernel load-balances
incoming connects across the sockets' accept queues, and because the
*master* keeps every fd, a crashed worker's replacement inherits the
very same socket — connections queued to the dead worker are answered
by its successor, not dropped.  Where ``SO_REUSEPORT`` is unavailable
the supervisor falls back to a single shared socket inherited by every
worker (the classic accept-herd model: correct, just less evenly
balanced).

Drain protocol
--------------
SIGTERM (or SIGINT) to the master is forwarded to every live worker
as soon as the master takes it.  The master keeps both signals blocked
and waits for them (and for SIGCHLD) with ``sigwait``, so no stop
request can slip in between a check and a blocking call.  A forked
worker starts with them still blocked: a stop that arrives while it
boots is held pending until its body handles the signals and unblocks
them, instead of killing it half-booted.  Each worker's
``run_until_signalled`` path then stops accepting, answers every
buffered stanza, flushes its backend attachment and exits 0; the master
reaps them all and exits 0.  A worker that dies *unprompted*
(crash, SIGKILL) is respawned — up to ``restart_limit`` times, after
which the master drains the rest and exits 1 rather than flap forever.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from .server import DRAIN_SIGNALS

#: What the master waits for: a drain request or a worker's exit.
_MASTER_SIGNALS = (*DRAIN_SIGNALS, signal.SIGCHLD)

#: Listen backlog shared with :class:`~repro.serve.server.PolicyServer`.
LISTEN_BACKLOG = 8192

#: Unprompted worker deaths tolerated before the master gives up.
DEFAULT_RESTART_LIMIT = 16

#: A worker's body returns an exit status; it runs inside the forked
#: child and must never raise back into the supervisor's stack.  It starts
#: with SIGTERM/SIGINT blocked and default-handled, and unblocks them once
#: it handles them (``PolicyServer.run_until_signalled`` does).
WorkerBody = Callable[[int, socket.socket], int]


def bind_listening_sockets(
    host: str, port: int, count: int
) -> Tuple[List[socket.socket], str, int]:
    """Bind the listening sockets for ``count`` workers.

    Returns ``(sockets, host, port)`` with the actual bound address
    (meaningful when ``port`` was 0).  ``len(sockets)`` is ``count``
    when SO_REUSEPORT is available, else 1 (the shared-socket
    fallback); callers map worker *i* to socket ``i % len(sockets)``.
    """
    if count < 1:
        raise ValueError("need at least one worker socket")
    reuseport = hasattr(socket, "SO_REUSEPORT")
    sockets: List[socket.socket] = []
    bound_port = port
    for _ in range(count if reuseport else 1):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if reuseport:
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_REUSEPORT, 1
                    )
                except OSError:
                    # Constant exists but the kernel refuses (old
                    # kernels): fall back to the single shared socket.
                    if sockets:
                        raise  # mixed support mid-bind: give up loudly
                    reuseport = False
            sock.bind((host, bound_port))
            if bound_port == 0:
                bound_port = sock.getsockname()[1]
            # Listen in the master, before any fork: connections racing
            # the workers' boot queue here instead of being refused.
            sock.listen(LISTEN_BACKLOG)
        except BaseException:
            sock.close()
            for other in sockets:
                other.close()
            raise
        sockets.append(sock)
    bound_host = sockets[0].getsockname()[0]
    return sockets, bound_host, bound_port


class PreforkSupervisor:
    """Fork, supervise and drain a fleet of policy workers.

    Parameters
    ----------
    worker_body:
        ``(worker_index, listening_socket) -> exit_status``, run inside
        each forked child.  The child never returns from the spawn call:
        it exits via ``os._exit`` with the body's status (or 1 if the
        body raised), skipping the master's atexit/finalizer state —
        in particular the shared segment's exit reaper, which only the
        creating master may run.
    sockets:
        Pre-bound listening sockets from :func:`bind_listening_sockets`.
        The master keeps every fd for respawns.
    workers:
        Number of worker processes to keep alive.
    restart_limit:
        Unprompted deaths tolerated before draining and exiting 1.
    maintenance / maintenance_interval:
        Optional periodic callback run in a master-side daemon thread
        while supervising (the shm background-expiry sweep in live
        serving; replay-clock daemons skip it).
    """

    def __init__(
        self,
        worker_body: WorkerBody,
        sockets: List[socket.socket],
        workers: int,
        *,
        restart_limit: int = DEFAULT_RESTART_LIMIT,
        maintenance: Optional[Callable[[], None]] = None,
        maintenance_interval: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if not sockets:
            raise ValueError("need at least one listening socket")
        self._worker_body = worker_body
        self._sockets = sockets
        self._workers = workers
        self._restart_limit = restart_limit
        self._maintenance = maintenance
        self._maintenance_interval = maintenance_interval
        self._children: Dict[int, int] = {}  # pid -> worker index
        self._stopping = False
        self._restarts = 0

    # ------------------------------------------------------------------
    # Master side
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Spawn the fleet and supervise until drained; returns status.

        0 when every worker exited cleanly after a signalled drain,
        1 when the restart limit was exhausted or a worker refused to
        drain cleanly.
        """
        # The master keeps the drain signals and SIGCHLD blocked and takes
        # them with sigwait.  A handler cannot run inside a blocking
        # waitpid entered just after its signal arrived, so a stop could
        # otherwise wait for the next worker exit.  The handlers stay
        # installed for a signal another thread of the caller takes.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _MASTER_SIGNALS)
        previous = {
            signum: signal.signal(signum, self._on_signal)
            for signum in DRAIN_SIGNALS
        }
        stop_maintenance = threading.Event()
        failed = False
        try:
            for index in range(self._workers):
                self._spawn(index)
            if self._maintenance is not None:
                # Started with the signals blocked, so it never takes one.
                thread = threading.Thread(
                    target=self._maintenance_loop,
                    args=(stop_maintenance,),
                    name="prefork-maintenance",
                    daemon=True,
                )
                thread.start()
            while self._children:
                signum = signal.sigwait(_MASTER_SIGNALS)
                if signum != signal.SIGCHLD:
                    self._on_signal(signum, None)
                failed = self._reap() or failed
        finally:
            stop_maintenance.set()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        return 1 if failed else 0

    def _reap(self) -> bool:
        """Reap every exited worker, respawning crashed ones.

        Returns True when the fleet failed: a worker did not drain
        cleanly, or the restart limit ran out.
        """
        failed = False
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - defensive
                self._children.clear()
                return failed
            if pid == 0:
                return failed
            index = self._children.pop(pid, None)
            if index is None:  # pragma: no cover - foreign child
                continue
            if self._stopping:
                if not self._exited_cleanly(status):
                    failed = True
                continue
            # Unprompted death — crash, SIGKILL, or a worker that
            # decided to exit on its own: respawn onto the same
            # socket so its queued connections are still answered.
            self._restarts += 1
            if self._restarts > self._restart_limit:
                failed = True
                self._stopping = True
                self._signal_children(signal.SIGTERM)
                continue
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        sock = self._sockets[index % len(self._sockets)]
        pid = os.fork()
        if pid:
            self._children[pid] = index
            if self._stopping:
                # A handler ran between the fork and the line above
                # (another thread took the signal) and missed this child.
                os.kill(pid, signal.SIGTERM)
            return
        # ---- child ----
        # Undo the master's supervisor handlers *before* anything else,
        # so a drain signal never re-runs the fan-out handler inside the
        # worker.  The drain signals stay blocked until the body handles
        # them; SIGCHLD is the master's business only.
        for signum in DRAIN_SIGNALS:
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGCHLD})
        for other in self._sockets:
            if other is not sock:
                other.close()
        status = 1
        try:
            status = self._worker_body(index, sock)
        except BaseException:  # repro: noqa EXC001 - child exits nonzero below; the crash IS the record
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            # Hard exit: the child must not run the master's inherited
            # atexit hooks / multiprocessing finalizers (segment reaper,
            # benchmark teardown, ...).
            os._exit(status)

    def _on_signal(self, signum: int, _frame: object) -> None:
        self._stopping = True
        self._signal_children(
            signal.SIGTERM if signum == signal.SIGINT else signum
        )

    def _signal_children(self, signum: int) -> None:
        for pid in tuple(self._children):
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def _maintenance_loop(self, stop: threading.Event) -> None:
        while not stop.wait(self._maintenance_interval):
            try:
                self._maintenance()  # type: ignore[misc]
            except Exception:  # repro: noqa EXC001 - printed + swallowed: sweep hiccups must not kill the fleet
                traceback.print_exc()

    @staticmethod
    def _exited_cleanly(status: int) -> bool:
        return os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0

    @property
    def worker_pids(self) -> Tuple[int, ...]:
        """Live worker pids (the crashed-worker restart test's probe)."""
        return tuple(self._children)
