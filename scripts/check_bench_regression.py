#!/usr/bin/env python
"""Compare a pytest-benchmark JSON snapshot against a committed baseline.

Usage::

    python scripts/check_bench_regression.py BENCH_0.json bench-smoke.json

Benchmarks shared by both files are compared by their fastest observed
time (``stats.min``, the least noise-sensitive statistic).  Raw ratios
are meaningless across machines, so every ratio is first normalized by
the median ratio — a uniformly slower CI runner shifts all ratios
equally and cancels out, while a genuine regression in one benchmark
stands out against the rest.

Throughput floors are enforced too: benchmarks report their headline
rates (``decisions_per_sec``, ``domains_per_sec``, ``lookups_per_sec``)
in ``extra_info``, and a rate can erode while the timed statistic holds
— e.g. a serve benchmark whose timed section is fixed-duration keeps
its median forever while its decisions/sec collapses.  Each shared rate
is compared as ``baseline / current`` (higher is better, so the ratio
inverts), normalized by the same machine-speed scale, and gated by the
same threshold.  A rate that *disappears* from a shared benchmark is a
failure: deleting the floor is how it would silently erode.

A benchmark present in only one file is named in a notice and not
compared: a new one has no reference yet, and a baseline one absent from
the current snapshot was skipped (the serve-worker sweep skips on
runners with too few cores) or removed.

The gate fails (exit 1) when any normalized ratio exceeds 1.25, i.e. a
benchmark got more than 25% slower *relative to the suite*.  To land an
intentional slowdown (e.g. trading speed for correctness), set
``ALLOW_BENCH_REGRESSION=1`` in the environment — the check then prints
its findings but always exits 0 — and refresh the baseline in the same
change (``make bench-json`` and commit the snapshot as ``BENCH_0.json``).

Stdlib-only, so it runs anywhere the repo does.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

THRESHOLD = 1.25

#: ``extra_info`` keys treated as throughput floors (higher is better).
THROUGHPUT_KEYS = ("decisions_per_sec", "domains_per_sec", "lookups_per_sec")


def load_minimums(path: str) -> Dict[str, float]:
    """Map benchmark fullname -> fastest observed time, from one snapshot."""
    with open(path) as handle:
        data = json.load(handle)
    return {
        bench["fullname"]: float(bench["stats"]["min"])
        for bench in data.get("benchmarks", [])
    }


def load_throughputs(path: str) -> Dict[str, Dict[str, float]]:
    """Map fullname -> {rate key: value} for the floors a snapshot reports."""
    with open(path) as handle:
        data = json.load(handle)
    rates: Dict[str, Dict[str, float]] = {}
    for bench in data.get("benchmarks", []):
        extra = bench.get("extra_info") or {}
        found = {
            key: float(extra[key])
            for key in THROUGHPUT_KEYS
            if key in extra and float(extra[key]) > 0
        }
        if found:
            rates[bench["fullname"]] = found
    return rates


def main(argv: Sequence[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, current_path = argv[1], argv[2]
    baseline = load_minimums(baseline_path)
    current = load_minimums(current_path)

    shared = sorted(set(baseline) & set(current))
    new = sorted(set(current) - set(baseline))
    for name in new:
        # A benchmark added since the baseline was captured has nothing to
        # regress against; note it and move on.  It joins the gate once the
        # baseline is refreshed (make bench-json, commit as BENCH_0.json).
        print(
            f"  {name}: not in baseline {baseline_path}; "
            f"skipped (new benchmark, no reference time)"
        )
    for name in sorted(set(baseline) - set(current)):
        # Not a failure: skipped on this runner, or removed along with the
        # code it timed.  Refreshing the baseline drops the notice.
        print(
            f"  {name}: in baseline {baseline_path} but not in "
            f"{current_path}; skipped (not run, nothing to compare)"
        )
    if not shared:
        print(
            f"no benchmarks shared between {baseline_path} and "
            f"{current_path}; nothing to compare",
            file=sys.stderr,
        )
        return 2

    ratios = {name: current[name] / baseline[name] for name in shared}
    scale = statistics.median(ratios.values())
    print(
        f"comparing {len(shared)} shared benchmark(s); "
        f"machine-speed scale (median ratio) = {scale:.3f}"
    )

    regressions: List[str] = []
    for name in shared:
        normalized = ratios[name] / scale
        marker = " <-- REGRESSION" if normalized > THRESHOLD else ""
        print(
            f"  {name}: {baseline[name] * 1e3:.3f}ms -> "
            f"{current[name] * 1e3:.3f}ms "
            f"(normalized x{normalized:.2f}){marker}"
        )
        if normalized > THRESHOLD:
            regressions.append(name)

    # Throughput floors: higher is better, so the regression ratio
    # inverts (baseline/current); the machine-speed scale still applies
    # — a uniformly slower runner produces uniformly lower rates.
    baseline_rates = load_throughputs(baseline_path)
    current_rates = load_throughputs(current_path)
    for name in sorted(set(baseline_rates) & set(current)):
        for key, floor in sorted(baseline_rates[name].items()):
            rate = current_rates.get(name, {}).get(key)
            if rate is None:
                print(
                    f"  {name}[{key}]: floor {floor:,.0f}/s dropped from "
                    f"the current snapshot <-- REGRESSION"
                )
                regressions.append(f"{name}[{key}]")
                continue
            normalized = (floor / rate) / scale
            marker = " <-- REGRESSION" if normalized > THRESHOLD else ""
            print(
                f"  {name}[{key}]: {floor:,.0f}/s -> {rate:,.0f}/s "
                f"(normalized x{normalized:.2f}){marker}"
            )
            if normalized > THRESHOLD:
                regressions.append(f"{name}[{key}]")

    if not regressions:
        print(
            f"OK: no benchmark more than {THRESHOLD - 1:.0%} over baseline"
        )
        return 0

    print(
        f"FAIL: {len(regressions)} benchmark(s) regressed more than "
        f"{THRESHOLD - 1:.0%} vs {baseline_path}: {', '.join(regressions)}",
        file=sys.stderr,
    )
    if os.environ.get("ALLOW_BENCH_REGRESSION"):
        print(
            "ALLOW_BENCH_REGRESSION is set; reporting only. "
            "Refresh BENCH_0.json in this change.",
            file=sys.stderr,
        )
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
