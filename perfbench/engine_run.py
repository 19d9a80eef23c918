"""Untraced and traced runs of the engine workloads.

The engine runs in its own process (``engine_child.py``).  The timed
calls run in one such process per core at once, each pinned to its own
core: the cores of the reference host slow down independently of each
other, so two serial engines in one run see twice the host time a single
one would, and the run's totals pool both.  The traced call runs in one
process on the core a serve daemon would use.  ``setup_s`` is the
median, over ``SETUP_SPAWNS`` spawns of a single process, of the time
from spawn to the child's ``ready`` line, which it prints once the
engine is imported.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import stats
from common import PER_LAYER, ROOT, RUN_DIR, child_env
from common import say as say_for
from serve_bench import SETUP_SPAWNS, Placement

CHILD = Path(__file__).resolve().parent / "engine_child.py"
#: Seconds an engine child may take before the run is abandoned.
CHILD_TIMEOUT = 80.0


def _spawn(workload: str, seed: int, mode: str, cpus, budget: float = 0.0):
    """Run one child per entry of ``cpus`` (a core, or None for unpinned),
    all at once; returns (seconds to the first ``ready``, parsed JSON of
    each child, or Nones in ``setup`` mode)."""
    procs = []
    try:
        with open(RUN_DIR / "engine.log", "ab") as log:
            began = time.perf_counter()
            for _ in cpus:
                procs.append(subprocess.Popen(
                    [sys.executable, str(CHILD), workload, str(seed), mode,
                     str(budget)],
                    stdout=subprocess.PIPE, stderr=log, env=child_env(),
                    cwd=str(ROOT),
                ))
        for proc, cpu in zip(procs, cpus):
            if cpu is not None:
                os.sched_setaffinity(proc.pid, {cpu})
        setup = 0.0
        for proc in procs:
            ready = proc.stdout.readline()
            setup = setup or time.perf_counter() - began
            if ready.strip() != b"ready":
                raise RuntimeError(f"engine child failed to start (see "
                                   f"{RUN_DIR / 'engine.log'})")
        outs = [proc.communicate(timeout=CHILD_TIMEOUT)[0] for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    for proc in procs:
        if proc.returncode != 0:
            raise RuntimeError(f"engine child exited with {proc.returncode}")
    return setup, [json.loads(out.splitlines()[-1]) if mode != "setup"
                   else None for out in outs]


def _pool(results):
    """One result from the children's: calls, checks and problems pooled."""
    return {
        "domains": results[0]["domains"],
        "calls": [call for r in results for call in r["calls"]],
        "peak_rss_mib": max(r["peak_rss_mib"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": [p for r in results for p in r["problems"]],
    }


#: Share of ``--seconds`` the timed engine calls may start within.
CALL_SHARE = 0.7


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    placement = Placement.detect()
    placement.pin_client()
    say = functools.partial(say_for, workload)
    daemon_cpu = placement.daemon_cpus[0] if placement.daemon_cpus else None
    run_cpus = placement.cpus if placement.daemon_cpus else [None]
    say(f"placement: nproc={placement.nproc}; timed calls in "
        f"{len(run_cpus)} process(es) on cpus "
        f"{run_cpus if placement.daemon_cpus else 'unpinned'}; set-up and "
        f"traced call on cpu {daemon_cpu if placement.daemon_cpus else 'unpinned'}")
    if trace:
        return _traced(workload, seed, daemon_cpu, say)
    setups = [_spawn(workload, seed, "setup", [daemon_cpu])[0]
              for _ in range(SETUP_SPAWNS)]
    _, results = _spawn(workload, seed, "run", run_cpus,
                        seconds * CALL_SHARE)
    result = _pool(results)
    domains = result["domains"]
    calls = result["calls"]
    rates = [domains / c["wall"] for c in calls]
    # Over the whole run: every call's domains over every call's time,
    # and the mean over calls of each call's median and tail unit time.
    # The host's speed shifts between a few levels for seconds at a time;
    # a mean moves smoothly with their shares, where a median or a
    # quantile of the pooled units would jump from one level to the next.
    # The tail stays at the quantile one call supports.
    throughput = domains * len(calls) / sum(c["wall"] for c in calls)
    q = stats.tail_percentile(calls[0]["units"])[0]
    unit_p50 = statistics.fmean(stats.median(c["units"]) for c in calls)
    unit_p99 = statistics.fmean(
        stats.tail_percentile(c["units"], target=q)[1] for c in calls)
    cpu_us = sum(c["cpu"] for c in calls) / (domains * len(calls)) * 1e6
    say(f"domains_per_sec = {throughput:.1f} domains/s ({domains} domains "
        f"per call, {len(calls)} calls in {len(results)} process(es): "
        + " ".join(f"{r:.0f}" for r in rates) + ")")
    say(f"p50_ms = {unit_p50 * 1e3:.4f} ms per unit of work (each call's "
        f"median unit, mean over {len(calls)} calls)")
    say(f"p99_ms = {unit_p99 * 1e3:.4f} ms (p{q * 100:g}, the highest "
        f"percentile one call of {len(calls[0]['units'])} units supports, "
        "mean over calls)")
    say(f"cpu_us_per_domain = {cpu_us:.4f} us")
    say(f"peak_rss_mb = {result['peak_rss_mib']:.2f} MiB (ru_maxrss)")
    say(f"setup_s = {stats.median(setups):.4f} s (median of "
        f"{len(setups)} spawns)")
    say(f"error_rate = {result['failed'] / result['attempted']:.6f} "
        f"({result['failed']} failed / {result['attempted']} attempted)")
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "metrics": {
            "throughput_per_s": (throughput, "1/s"),
            "p50_ms": (unit_p50 * 1e3, "ms"),
            "p99_ms": (unit_p99 * 1e3, "ms"),
            "cpu_us_per_op": (cpu_us, "us"),
            "peak_rss_mb": (result["peak_rss_mib"], "MiB"),
            "setup_s": (stats.median(setups), "s"),
        },
    }


def _traced(workload, seed, cpu, say) -> dict:
    _, (traced,) = _spawn(workload, seed, "trace", [cpu])
    base, wall = (c["wall"] for c in traced["calls"])
    metrics, rows = layers.engine_layers(traced["totals"], traced["values"],
                                         wall)
    metrics["trace.overhead_pct"] = (wall - base) / base * 100
    layers.print_ledger(say, "seconds of one traced call", rows,
                        "wall time (traced)", wall, "s")
    say(f"wall time of the untraced call before it {base:.4f} s; "
        f"trace.overhead_pct = {metrics['trace.overhead_pct']:.2f} %")
    for name, unit in PER_LAYER.items():
        say(f"{name} = {metrics[name]:.6g} {unit}")
    return {
        "correct": not traced["problems"],
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "problems": traced["problems"],
        "metrics": {name: (metrics[name], unit)
                    for name, unit in PER_LAYER.items()},
    }
