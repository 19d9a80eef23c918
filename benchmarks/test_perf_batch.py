"""Microbenchmarks of the equivalence-class batch engines.

These pin the throughput of the batched paths themselves (the object
engines are covered by the experiment benches); the CI regression gate
compares them against the committed ``BENCH_0.json`` baseline.
"""

import time

from repro.core.adoption import run_adoption_experiment
from repro.core.internet_scale import run_internet_scale
from repro.core.synergy import run_synergy_experiment
from repro.scan.population import _plan_layout
from repro.sim.batch import SessionOutcomeCache

#: Population sizes of the linearity gate (small, large).
LINEARITY_SIZES = (10_000, 40_000)
#: Throughput at the large size must keep this share of the small size's.
LINEARITY_FLOOR = 0.8
#: Cold calls timed per size; the fastest one counts.
LINEARITY_ROUNDS = 3


def test_perf_batch_adoption(benchmark):
    """Batched adoption scan: classify 2,000 domains without zones/probes."""

    def run():
        result = run_adoption_experiment(
            num_domains=2000, seed=7, engine="batch"
        )
        return result.summary.total_domains

    assert benchmark(run) == 2000


def test_perf_batch_adoption_linearity(benchmark):
    """Batch adoption cost per domain does not grow with the population.

    Every shard of an adoption run constructs a ``PopulationPlan``; if each
    of those rebuilt the full-length layout, a run would cost O(N^2) and
    the throughput at 40k domains would fall to under half of the 10k
    figure.  Each timed call starts with the plan-layout memo cleared, so
    both sizes are measured as single cold calls.
    """
    seconds = {size: [] for size in LINEARITY_SIZES}

    def run(num_domains):
        began = time.perf_counter()
        result = run_adoption_experiment(
            num_domains=num_domains, seed=7, engine="batch"
        )
        seconds[num_domains].append(time.perf_counter() - began)
        return result.summary.total_domains

    small, large = LINEARITY_SIZES
    for _ in range(LINEARITY_ROUNDS):
        _plan_layout.cache_clear()
        assert run(small) == small

    def fresh_large():
        _plan_layout.cache_clear()
        return (large,), {}

    assert benchmark.pedantic(
        run, setup=fresh_large, rounds=LINEARITY_ROUNDS, iterations=1
    ) == large

    rate = {size: size / min(seconds[size]) for size in LINEARITY_SIZES}
    # ``domains_per_sec`` (the large size) is the floor the regression
    # gate compares; the small size's rate is reported beside it.
    benchmark.extra_info["domains_per_sec"] = rate[large]
    benchmark.extra_info[f"domains_per_sec_{small}"] = rate[small]
    assert rate[large] >= LINEARITY_FLOOR * rate[small], rate


def test_perf_batch_internet_scale(benchmark):
    """Batched spam wave over a 50,000-domain internet."""

    def run():
        result = run_internet_scale(
            num_domains=50_000,
            greylisting_rate=0.5,
            nolisting_rate=0.1,
            messages=400,
            seed=61,
            engine="batch",
        )
        return result.spam_sent

    assert benchmark(run) == 400


def test_perf_batch_synergy(benchmark):
    """Batched synergy runs with a shared session-playbook cache."""
    cache = SessionOutcomeCache()

    def run():
        delivered = 0
        for configuration in ("greylist", "dnsbl", "both"):
            result = run_synergy_experiment(
                configuration,
                num_messages=100,
                seed=31,
                engine="batch",
                session_cache=cache,
            )
            delivered += result.num_messages
        return delivered

    assert benchmark(run) == 300
