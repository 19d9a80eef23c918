"""The traced run of a serve workload.

Three daemons, one after another, each warmed up and then driven through
paced windows: the untraced daemon (the overhead baseline) and the
traced daemon (spans for the ledger) through the same windows, half as
many as an untraced run's, and the null responder (the load generator's
own latency floor) through ``FLOOR_WINDOWS``.  The ledger covers only
spans inside the traced daemon's paced windows, so its per-decision sum
and the daemon's CPU per decision describe the same decisions.
"""

from __future__ import annotations

import asyncio
import functools
import sys
from pathlib import Path

import layers
import serve_bench as sb
import stats
import tracing
from common import PER_LAYER, RUN_DIR
from common import say as say_for
from loadgen import Stream
from serve_run import session

HERE = Path(__file__).resolve().parent
#: Paced windows against the null responder.
FLOOR_WINDOWS = 2


async def _phases(w, streams, warmup, windows, placement, timeout):
    span_dir = RUN_DIR / "spans"
    windows = max(1, windows // 2)
    base = await session(sb.daemon_argv(w), placement, 1, streams, warmup,
                         windows, w.rate, 0, timeout)
    traced_argv = sb.daemon_argv(
        w, [str(HERE / "serve_traced.py"), str(span_dir)])
    traced = await session(traced_argv, placement, 1, streams, warmup,
                           windows, w.rate, 0, timeout)
    floor_count = int(w.rate * sb.WINDOW_S) * FLOOR_WINDOWS
    null = [Stream(s.payloads[:floor_count], [sb.DUNNO] * floor_count)
            for s in streams]
    floor = await session([sys.executable, str(HERE / "null_responder.py")],
                          placement, 1, null, 0, FLOOR_WINDOWS, w.rate, 0,
                          timeout)
    return base, traced, floor, tracing.Spans.load(span_dir)


def run(w, streams, warmup, windows, placement, timeout) -> dict:
    base, traced, floor, spans = asyncio.run(
        _phases(w, streams, warmup, windows, placement, timeout))
    say = functools.partial(say_for, w.name)
    window = traced.paced
    totals = spans.totals(spans.inside(window.first_send, window.last_answer))
    decisions = totals.get("plugins.decide", (0, 0.0, 0.0))[0]
    if decisions != window.decisions:
        traced.problems.append(
            f"traced window holds {decisions} decisions, "
            f"{window.decisions} were paced")
    cpu_traced = window.cpu_us_per_decision
    cpu_base = base.paced.cpu_us_per_decision
    metrics, rows = layers.serve_layers(totals, spans.values,
                                        max(decisions, 1), cpu_traced)
    metrics["trace.overhead_pct"] = (cpu_traced - cpu_base) / cpu_base * 100
    metrics["loadgen.lag_p99_ms"] = stats.tail_percentile(base.paced.lags_ms)[1]
    metrics["loadgen.inflight_max"] = float(base.inflight_max)
    floor_ms = [x for window in floor.paced.windows for x in window]
    metrics["loadgen.floor_p50_ms"] = stats.median(floor_ms)
    metrics["loadgen.floor_p99_ms"] = stats.tail_percentile(floor_ms)[1]
    layers.print_ledger(say, f"per decision, {decisions} traced decisions",
                        rows, "cpu_us_per_decision (traced)", cpu_traced, "us")
    say(f"cpu_us_per_decision untraced {cpu_base:.3f} us; "
        f"trace.overhead_pct = {metrics['trace.overhead_pct']:.2f} %")
    for name, unit in PER_LAYER.items():
        say(f"{name} = {metrics[name]:.6g} {unit}")
    problems = base.problems + traced.problems + floor.problems
    attempted = base.attempted + traced.attempted + floor.attempted
    failed = base.failed + traced.failed + floor.failed
    # A spilled attempt was answered without being stored.
    spills = int(metrics["shm.spills"])
    if spills:
        problems.append(f"{spills} shm attempts spilled")
        failed += spills
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: (metrics[name], unit)
                    for name, unit in PER_LAYER.items()},
    }
