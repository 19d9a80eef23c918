"""The process under test for the engine workloads.

Usage: ``engine_child.py WORKLOAD SEED MODE SECONDS`` with MODE one of

* ``setup`` — import the engine, print ``ready``, exit;
* ``run`` — import, print ``ready``, make one small untimed warm-up call,
  repeat the timed engine call until SECONDS have passed (at least
  once), check the result, print one JSON line;
* ``trace`` — one untimed warm-up call, one untraced call (the baseline
  of ``trace.overhead_pct``), then one call with every layer wrapped in
  spans, plus that call's per-layer totals in the JSON line.

Per-unit latency (one adoption shard, one deployment chunk of the
internet wave) is taken in every mode from a wrapper around the unit's
public function; in ``run`` mode those two wrappers are the only ones.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter, process_time

from repro.core import adoption, internet_scale
from repro.runner import shards
from repro.scan import columnar, population
from repro.scan.detect import DomainClass
from repro.scan.population import DomainCategory

import tracing

#: Figure 2 defaults at the size where the per-shard plan rebuild dominates.
ADOPTION_DOMAINS = 40_000
#: Internet-wave size: tens of millions of domains, seconds per call.
WAVE_DOMAINS = 20_000_000
#: Size at which the columnar result is checked against the batch engine.
WAVE_CHECK_DOMAINS = 1_000_000
#: The untimed warm-up call runs at this share of the timed size.
WARMUP_SHARE = 0.1

#: Ground-truth category -> the class a correct scan assigns.
EXPECTED_CLASS = {
    DomainCategory.SINGLE_MX: DomainClass.ONE_MX,
    DomainCategory.MULTI_MX: DomainClass.MULTI_MX_NO_NOLISTING,
    DomainCategory.NOLISTING: DomainClass.NOLISTING,
    DomainCategory.MISCONFIGURED: DomainClass.DNS_MISCONFIGURED,
}


#: The span whose durations give each workload's per-unit latency.
UNIT_SPAN = {"adoption-scan": "batch.shard", "internet-wave": "columnar.chunk"}


def _install_units(recorder: tracing.Recorder) -> None:
    recorder.wrap(shards, "adoption_shard_task", "batch.shard")
    recorder.wrap_generator(columnar, "stream_deployment_chunks",
                            "columnar.chunk")


def _install_layers(recorder: tracing.Recorder) -> None:
    recorder.wrap(population.PopulationPlan, "__init__", "population.plan")
    recorder.wrap(adoption, "run_tasks", "runner.run_tasks")
    recorder.wrap(internet_scale, "_replay_wave", "internet.wave")
    recorder.wrap(internet_scale, "_resolve_wave", "internet.wave")
    recorder.watch_gc()


def _adoption(seed: int, share: float = 1.0):
    domains = int(ADOPTION_DOMAINS * share)
    return domains, adoption.run_adoption_experiment(
        num_domains=domains, seed=seed, engine="batch", workers=1
    )


def _check_adoption(result):
    """Every verdict must match ground truth, and so must every class count."""
    problems = []
    wrong = result.confusion["wrong"]
    if wrong:
        problems.append(f"{wrong} domains classified against ground truth")
    miscounted = 0
    for category, cls in EXPECTED_CLASS.items():
        truth = result.ground_truth.get(category, 0)
        got = result.summary.counts.get(cls, 0)
        if truth != got:
            miscounted += 1
            problems.append(f"{cls.value}: {got} classified, {truth} in truth")
    # attempted: one verdict per domain plus one count per class
    return (ADOPTION_DOMAINS + len(EXPECTED_CLASS), wrong + miscounted,
            problems)


def _wave(seed: int, share: float = 1.0):
    domains = int(WAVE_DOMAINS * share)
    return domains, internet_scale.run_internet_scale(
        num_domains=domains, engine="columnar", seed=seed
    )


def _check_wave(result, seed: int):
    problems = []
    if sum(result.per_family_sent.values()) != result.spam_sent:
        problems.append("per-family sent counts do not add up")
    # The streamed engine must agree with the batch engine where the
    # batch engine can hold the whole population.
    fields = ("spam_sent", "spam_delivered", "per_family_delivered",
              "per_family_sent", "predicted_block_rate")
    small = {
        engine: internet_scale.run_internet_scale(
            num_domains=WAVE_CHECK_DOMAINS, engine=engine, seed=seed)
        for engine in ("columnar", "batch")
    }
    for name in fields:
        if getattr(small["columnar"], name) != getattr(small["batch"], name):
            problems.append(f"columnar and batch differ on {name} at "
                            f"{WAVE_CHECK_DOMAINS} domains")
    return len(fields) + 1, len(problems), problems


def main() -> int:
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    budget = float(sys.argv[4])
    print("ready", flush=True)
    if mode == "setup":
        return 0
    call = _adoption if workload == "adoption-scan" else _wave
    # Lazy set-up (first allocations, caches) finishes before timing.
    call(seed, WARMUP_SHARE)
    recorder = tracing.Recorder()
    _install_units(recorder)
    unit = recorder.name_id(UNIT_SPAN[workload])
    calls = []

    def timed():
        first_span = len(recorder.start)
        began, cpu = perf_counter(), process_time()
        outcome = call(seed)
        ended = perf_counter()
        units = [recorder.end[i] - recorder.start[i]
                 for i in range(first_span, len(recorder.start))
                 if recorder.name[i] == unit]
        calls.append({"wall": ended - began, "cpu": process_time() - cpu,
                      "units": units, "span": [began, ended]})
        return outcome

    started = perf_counter()
    domains, result = timed()
    if mode == "run":
        while perf_counter() - started < budget:
            domains, result = timed()
    elif mode == "trace":
        # The call above is the untraced baseline; the next one is traced.
        _install_layers(recorder)
        domains, result = timed()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    recorder.unwrap()
    if workload == "adoption-scan":
        attempted, failed, problems = _check_adoption(result)
    else:
        attempted, failed, problems = _check_wave(result, seed)
    out = {
        "domains": domains,
        "calls": calls,
        "peak_rss_mib": peak_rss_mib,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    if mode == "trace":
        spans = tracing.Spans.from_recorder(recorder)
        out["totals"] = spans.totals(spans.inside(*calls[-1]["span"]))
        out["values"] = spans.values
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
