"""Bench: the parallel sharded experiment runner.

Measures the two levers the runner adds to repeated experiment sweeps:

* **shard cache** — a warm-cache rerun of the sharded adoption experiment
  must beat the serial cold run by >= 2x wall-clock (the acceptance bar:
  repeated sweeps skip completed shards).  On multi-core hosts the fan-out
  itself also helps; the cache bound is asserted because it holds even on
  the single-CPU containers CI runs in.
* **runner overhead** — dispatching through ``run_tasks`` with one worker
  must not meaningfully slow the serial path down.
"""

import time

from repro.core.adoption import run_adoption_experiment
from repro.runner.cache import ResultCache
from repro.runner.pool import run_tasks

from _util import emit

NUM_DOMAINS = 20000
SEED = 42


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_perf_runner_cached_sweep_speedup(benchmark, tmp_path):
    """Warm-cache rerun at 4 workers vs serial cold run: >= 2x faster.

    The warm rerun is the benchmarked section (one round), so the test
    runs under ``--benchmark-only`` like the rest of the smoke set.
    """
    cache = ResultCache(root=tmp_path)

    serial, serial_s = _timed(
        lambda: run_adoption_experiment(num_domains=NUM_DOMAINS, seed=SEED)
    )
    cold, cold_s = _timed(
        lambda: run_adoption_experiment(
            num_domains=NUM_DOMAINS, seed=SEED, workers=4, cache=cache
        )
    )
    warm, warm_s = benchmark.pedantic(
        _timed,
        args=(
            lambda: run_adoption_experiment(
                num_domains=NUM_DOMAINS, seed=SEED, workers=4, cache=cache
            ),
        ),
        rounds=1,
        iterations=1,
    )

    emit(
        "Sharded adoption sweep — serial vs cached rerun",
        f"serial cold      : {serial_s * 1000:8.1f} ms\n"
        f"workers=4 cold   : {cold_s * 1000:8.1f} ms "
        f"(stores={cache.stores})\n"
        f"workers=4 warm   : {warm_s * 1000:8.1f} ms "
        f"(hits={cache.hits})\n"
        f"speedup (warm)   : {serial_s / warm_s:8.1f}x",
    )

    # Identical results on every path — the precondition for any of this
    # being usable.
    assert cold == serial
    assert warm == serial
    assert cache.stores > 0 and cache.hits >= cache.stores
    assert serial_s / warm_s >= 2.0


def test_perf_runner_dispatch_overhead(benchmark):
    """run_tasks with one inline worker adds negligible overhead."""
    payloads = [{"x": x} for x in range(1000)]

    def run():
        return sum(run_tasks(_identity_task, payloads, workers=1))

    assert benchmark(run) == sum(range(1000))


def _identity_task(payload):
    return payload["x"]
