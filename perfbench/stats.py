"""The benchmark's own arithmetic: percentiles, span self time, lateness.

Kept free of I/O and of the package under test so that
``perfbench/tests/test_stats.py`` can pin every rule the reported
numbers depend on.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: A tail percentile is reported only with at least this many samples
#: beyond it; with fewer, the highest percentile that has them is used.
MIN_BEYOND = 10


def tail_percentile(
    values: Sequence[float], target: float = 0.99, beyond: int = MIN_BEYOND
) -> Tuple[float, float]:
    """Return ``(quantile, value)`` for the highest supported percentile.

    Nearest-rank: the value at 1-based rank ``ceil(q * n)``.  The rank is
    lowered until at least ``beyond`` samples lie above it, so with few
    samples the reported quantile is below ``target`` and says so.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot support any tail percentile")
    ordered = sorted(values)
    # The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
    rank = min(math.ceil(target * n - 1e-9), n - beyond)
    return rank / n, ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def windowed_tail(windows: Sequence[Sequence[float]]) -> Tuple[float, float]:
    """``(quantile, value)``: the mean over windows of each window's tail.

    A pause that lands in only a few windows raises the result in
    proportion to its length; the median or the lowest window would
    not see it at all.
    """
    if not windows:
        raise ValueError("no windows")
    tails = [tail_percentile(window) for window in windows]
    return tails[0][0], statistics.fmean(value for _, value in tails)


def covered_length(
    start: float, end: float, children: Sequence[Tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``.

    Children may nest, overlap each other or stick out of the parent
    (a callback span can straddle the parent's edge); only the part
    inside the parent counts, and overlapping parts count once.
    """
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
        if cursor >= end:
            break
    return covered


def self_times(
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> List[float]:
    """Self time of every span: its duration minus what its children cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1``.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index], ends[index]))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(index)
        duration = end - start
        result.append(
            duration - covered_length(start, end, kids) if kids else duration
        )
    return result


def lateness(
    intended: Sequence[float], actual: Sequence[float]
) -> List[float]:
    """How late each send was against its schedule (never negative)."""
    return [max(0.0, a - i) for i, a in zip(intended, actual)]


def latencies_from_intended(
    intended: Sequence[float], received: Sequence[float]
) -> List[float]:
    """Response time counted from when each request was *due*.

    Counting from the intended send time, not the actual one, charges a
    stall to every request scheduled behind it, so a stalled server (or
    a stalled generator) cannot hide its own queueing delay.
    """
    return [r - i for i, r in zip(intended, received)]


def fell_behind(lags: Sequence[float], limit: float) -> bool:
    """True when the generator missed its schedule: lag p99 over ``limit``."""
    if len(lags) <= MIN_BEYOND:
        return False
    return tail_percentile(lags)[1] > limit


