"""Untraced and traced runs of the serve workloads."""

from __future__ import annotations

import asyncio
import statistics

import serve_bench as sb
import stats
from common import ROOT, RUN_DIR, child_env, say


def _windows(seconds: int) -> int:
    """Paced windows per run: each takes WINDOW_S plus a closed-loop chunk."""
    return max(1, round(seconds * sb.PACED_SHARE / sb.WINDOW_S))


async def _spawn(argv, placement, spawns: int, keep: int):
    """Spawn ``spawns`` daemons one after another; keep the last ``keep``
    running and stop the others at once."""
    times = []
    kept = []
    try:
        for index in range(spawns):
            daemon = sb.Daemon(argv, child_env(), str(ROOT),
                               str(RUN_DIR / "daemon.log"))
            kept.append(daemon)
            times.append(await daemon.start(placement))
            if index < spawns - keep:
                await daemon.ping()
                await daemon.stop()
                kept.pop()
    except BaseException:
        for daemon in kept:
            await daemon.kill()
        raise
    return kept, times


async def session(argv, placement, spawns, streams, warmup, windows, rate,
                  chunk, timeout) -> sb.ServeOutcome:
    """Spawn the daemon ``spawns`` times and drive the last one through
    the paced windows and, when ``chunk`` is set, the one before it
    through the closed-loop chunks; reap both."""
    daemons, times = await _spawn(argv, placement, spawns, 2 if chunk else 1)
    try:
        outcome = await sb.drive(daemons[-1], daemons[0] if chunk else None,
                                 streams, warmup, windows, rate, chunk,
                                 timeout)
    finally:
        for daemon in daemons:
            await daemon.kill()
    outcome.setup_s = times
    return outcome


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    w = sb.WORKLOADS[workload]
    placement = sb.Placement.detect()
    conns = placement.connections
    windows = _windows(seconds)
    needed = windows * max(int(w.rate * sb.WINDOW_S), sb.CHUNK) // conns
    build = sb.fresh_streams if w.name == "serve-fresh" else sb.known_streams
    streams, warmup = build(seed, w.messages, conns, needed)
    placement.pin_client()
    say(workload, f"placement: {placement.describe()}; SCHED_IDLE "
                  f"spinners on cpus {placement.cpus}")
    say(workload, f"{windows} x (paced {sb.WINDOW_S:g} s at {w.rate:.0f}/s, "
                   f"then {sb.CHUNK} closed-loop requests with "
                   f"{sb.loadgen.WINDOW} outstanding per connection)")
    timeout = 60.0 + seconds
    argv = sb.daemon_argv(w)
    with sb.idle_spinners(placement.cpus):
        if trace:
            import serve_trace

            return serve_trace.run(w, streams, warmup, windows, placement,
                                   timeout)
        outcome = asyncio.run(session(argv, placement, sb.SETUP_SPAWNS,
                                      streams, warmup, windows, w.rate,
                                      sb.CHUNK, timeout))
    return report(workload, outcome)


def report(workload: str, outcome: sb.ServeOutcome) -> dict:
    """End-to-end metrics of an untraced run.

    The host's speed shifts between a few levels for seconds at a time,
    so every estimator is a mean over the run rather than a median, which
    would jump from one level to the next as their shares cross a half.
    ``p50_ms`` is the mean of the per-window medians,
    ``throughput_per_s`` the decisions of every closed-loop chunk over
    their time, and ``cpu_us_per_op`` the daemon's CPU over every paced
    window divided by their decisions, so collections and other rare
    costs count.  ``p99_ms`` is the mean of the per-window p99s: a pause
    that lands in only a few windows (a gen2 collection of a growing
    heap) raises it in proportion to its length.  Pooling the samples
    instead puts the p99 rank on the slope of those few pauses, where it
    moves by twice as much as the pauses themselves.
    """
    phase = outcome.paced
    windows = phase.windows
    p50 = statistics.fmean(stats.median(w) for w in windows)
    tails = [stats.tail_percentile(w) for w in windows]
    p99_q, p99 = stats.windowed_tail(windows)
    cpu = phase.cpu_us_per_decision
    max_dps = outcome.max_dps
    setup = stats.median(outcome.setup_s)
    n = len(windows[0])
    say(workload, f"max_dps = {max_dps:.1f} decisions/s (all "
                   f"{len(outcome.chunk_s)} closed-loop chunks together, "
                   "on a daemon of their own)")
    say(workload, f"p50_ms = {p50:.4f} ms (mean over {len(windows)} "
                   f"windows of {n} requests of each one's median, from "
                   "intended send time)")
    say(workload, f"p99_ms = {p99:.4f} ms (p{p99_q * 100:g} per "
                   f"window, mean over {len(windows)} windows)")
    say(workload, f"cpu_us_per_decision = {cpu:.3f} us (all paced "
                   f"windows together; median window "
                   f"{stats.median(phase.window_cpu_us()):.3f})")
    say(workload, f"peak_rss_mb = {outcome.peak_rss_mb:.2f} MiB (VmHWM, the "
                   "larger of the two daemons)")
    say(workload, f"setup_s = {setup:.4f} s (median of "
                   f"{len(outcome.setup_s)} spawns)")
    say(workload, f"error_rate = {outcome.failed / outcome.attempted:.6f} "
                   f"({outcome.failed} failed / {outcome.attempted} attempted)")
    say(workload, "per-window p99_ms: " + " ".join(
        f"{value:.2f}" for _, value in tails))
    say(workload, "per-window cpu_us_per_decision: " + " ".join(
        f"{value:.1f}" for value in phase.window_cpu_us()))
    say(workload, "closed-loop chunk decisions/s: " + " ".join(
        f"{value:.0f}" for value in outcome.chunk_dps))
    say(workload, "closed-loop chunk daemon cpu us/decision: " + " ".join(
        f"{value:.1f}" for value in outcome.chunk_cpu_us))
    lag_q, lag_p99 = stats.tail_percentile(phase.lags_ms)
    say(workload, f"loadgen: lag p{lag_q * 100:g} {lag_p99:.3f} ms, "
                   f"inflight max {outcome.inflight_max}")
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {
            "throughput_per_s": (max_dps, "1/s"),
            "p50_ms": (p50, "ms"),
            "p99_ms": (p99, "ms"),
            "cpu_us_per_op": (cpu, "us"),
            "peak_rss_mb": (outcome.peak_rss_mb, "MiB"),
            "setup_s": (setup, "s"),
        },
    }
