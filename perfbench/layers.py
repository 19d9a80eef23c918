"""Per-layer metrics and the ledger, from a traced run's spans.

Every per-layer metric is reported on every workload; a layer a
workload never calls reads 0.  ``*_us`` metrics are *self* time per
call (a span's duration minus what its child spans cover), so the
per-decision sum of the serve layers never counts a microsecond twice.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import PER_LAYER

#: Serve spans in ledger order: (span name, per-call metric or None).
SERVE_LAYERS: List[Tuple[str, str]] = [
    ("protocol.feed", "protocol.feed_us"),
    ("plugins.decide", "plugins.decide_us"),
    ("policy.rcpt", "policy.rcpt_us"),
    ("policy.triplet", "policy.triplet_us"),
    ("store.observe", "store.observe_us"),
    ("store.mark_passed", "store.mark_passed_us"),
    ("backend.record_attempt", "backend.record_attempt_us"),
    ("backend.get", "backend.get_us"),
    ("protocol.render", "protocol.render_us"),
    ("gc", ""),
]


def empty() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def serve_layers(
    totals: Dict[str, Tuple[int, float, float]],
    values: Dict[str, float],
    decisions: int,
    cpu_us_traced: float,
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Per-layer metrics plus the ledger rows (name, us per decision).

    ``totals`` are the spans inside the paced window; ``decisions`` the
    decisions in it; ``cpu_us_traced`` the traced daemon's CPU per
    decision over the same window.  The rows end with ``server.loop_us``,
    the remainder: CPU the layers' spans do not cover (the event loop,
    socket system calls, tracing's own calls).
    """
    metrics = empty()
    rows = []
    covered = 0.0
    for span, metric in SERVE_LAYERS:
        calls, self_s, longest = totals.get(span, (0, 0.0, 0.0))
        if metric:
            per_call = self_s / calls * 1e6 if calls else 0.0
            # the parser is reported per stanza, not per read
            metrics[metric] = (self_s / decisions * 1e6
                               if span == "protocol.feed" else per_call)
        else:
            metrics["gc.pause_ms_max"] = longest * 1e3
        per_decision = self_s / decisions * 1e6
        covered += per_decision
        rows.append((span, per_decision))
    metrics["server.loop_us"] = cpu_us_traced - covered
    rows.append(("server.loop_us (remainder)", metrics["server.loop_us"]))
    hits = values.get("plugins.cache_hits", 0)
    lookups = hits + values.get("plugins.cache_misses", 0)
    metrics["plugins.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    all_decisions = values.get("decisions", 0)
    metrics["policy.events_per_decision"] = (
        values.get("policy.events", 0) / all_decisions if all_decisions else 0.0
    )
    for name in ("shm.spills", "shm.tombstones", "gc.gen2_collections"):
        metrics[name] = float(values.get(name, 0))
    return metrics, rows


def engine_layers(
    totals: Dict[str, Tuple[int, float, float]],
    values: Dict[str, float],
    wall_s: float,
) -> Tuple[Dict[str, float], List[Tuple[str, float]]]:
    """Engine per-layer metrics plus ledger rows (name, seconds).

    Rows: plan builds, shards (self time, plan builds excluded), runner
    overhead (``run_tasks`` self time: its duration minus the shards),
    the internet wave, the deployment stream, and the remainder of the
    wall time none of them covers.
    """
    metrics = empty()

    def get(span: str) -> Tuple[int, float, float]:
        return totals.get(span, (0, 0.0, 0.0))

    metrics["population.plan_builds"] = float(get("population.plan")[0])
    metrics["population.plan_s"] = get("population.plan")[1]
    metrics["batch.shards"] = float(get("batch.shard")[0])
    metrics["batch.shard_s"] = get("batch.shard")[1]
    metrics["runner.overhead_s"] = get("runner.run_tasks")[1]
    metrics["columnar.chunks"] = float(get("columnar.chunk")[0])
    metrics["columnar.stream_s"] = get("columnar.chunk")[1]
    metrics["internet.wave_s"] = get("internet.wave")[1]
    metrics["gc.gen2_collections"] = float(values.get("gc.gen2_collections", 0))
    metrics["gc.pause_ms_max"] = get("gc")[2] * 1e3
    rows = [
        ("population.plan_s", metrics["population.plan_s"]),
        ("batch.shard_s", metrics["batch.shard_s"]),
        ("runner.overhead_s", metrics["runner.overhead_s"]),
        ("internet.wave_s", metrics["internet.wave_s"]),
        ("columnar.stream_s", metrics["columnar.stream_s"]),
        ("gc", get("gc")[1]),
    ]
    rows.append(("remainder", wall_s - sum(v for _, v in rows)))
    return metrics, rows


def print_ledger(say, title: str, rows: List[Tuple[str, float]],
                 total_name: str, total: float, unit: str) -> None:
    say(f"ledger ({title}):")
    for name, value in rows:
        say(f"  {name:32s} {value:12.4f} {unit}")
    layers = sum(v for _, v in rows[:-1])
    say(f"  {'sum of layers':32s} {layers:12.4f} {unit}")
    say(f"  {total_name:32s} {total:12.4f} {unit}")
