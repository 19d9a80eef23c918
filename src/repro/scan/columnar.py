"""Streamed deployment column for the internet-scale wave.

The object and batch internet-scale engines materialize the receiver
internet's deployment as one Python value per domain; at tens of millions
of domains that list alone is hundreds of MiB of heap.  The columnar engine
(``run_internet_scale(engine="columnar")``) instead streams the deployment
as fixed-width **columns**, one ~100k-domain chunk at a time, so peak
memory is bounded by the chunk size, not the population size.

Columns are NumPy arrays when NumPy is importable (and ``REPRO_NO_NUMPY``
is unset); otherwise the pure-Python :mod:`array` module provides the same
fixed-width storage with identical contents.  Every consumer treats the two
backends interchangeably — NumPy only accelerates, it never decides.

Determinism contract
--------------------
All random draws stay on the Python side (:meth:`~repro.sim.rng.
RandomStream.random_block` bulk-draws from the same Mersenne Twister state
the per-object path advances), because NumPy's generators cannot replicate
:mod:`random`'s stream.  Vectorization applies strictly *downstream* of the
draws — binning into deployment codes — which is what keeps the columnar
engine bit-for-bit identical to the object oracle at any N.
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Iterator, Tuple

from ..sim.rng import RandomStream


def numpy_or_none():
    """The :mod:`numpy` module, or ``None`` when unavailable or disabled.

    Checked at every call (not import time) so the ``REPRO_NO_NUMPY``
    environment variable — which CI's numpy-less leg sets — takes effect
    without reimports.  NumPy is a pure accelerator: every columnar code
    path has an :mod:`array`-module fallback with identical results.
    """
    # The one sanctioned environment read on a hot path: it only picks
    # the accelerator, and the fallback is equivalence-tested bit-identical.
    if os.environ.get("REPRO_NO_NUMPY"):  # repro: noqa DET001 - accelerator toggle
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - container always has numpy
        return None
    return numpy


# ----------------------------------------------------------------------
# Streaming deployment columns (internet-scale experiment)
# ----------------------------------------------------------------------
#: Deployment codes in the internet-scale columns (the "policy fingerprint
#: id" column: each code maps to one connection-policy fingerprint).
DEPLOY_PLAIN = 0
DEPLOY_NOLISTED = 1
DEPLOY_GREYLISTED = 2


def stream_deployment_chunks(
    deploy_rng: RandomStream,
    num_domains: int,
    nolisting_rate: float,
    greylisting_rate: float,
    chunk_domains: int = 100_000,
) -> Iterator[Tuple[int, Any]]:
    """Stream the receiver internet's deployment column in bounded chunks.

    Draws continue ``deploy_rng``'s single sequential stream exactly as the
    object path's per-domain ``random()`` calls do (``random_block`` is
    draw-for-draw identical), then bins each chunk into deployment codes —
    vectorized under NumPy.  Yields ``(start_index, codes)``; the caller
    decides what to retain, so peak memory is one chunk regardless of
    ``num_domains``.
    """
    if chunk_domains < 1:
        raise ValueError("chunk_domains must be positive")
    np = numpy_or_none()
    boundary = nolisting_rate + greylisting_rate
    for start in range(0, num_domains, chunk_domains):
        n = min(chunk_domains, num_domains - start)
        block = deploy_rng.random_block(n)
        if np is not None:
            rolls = np.array(block)
            codes = np.where(
                rolls < nolisting_rate,
                DEPLOY_NOLISTED,
                np.where(rolls < boundary, DEPLOY_GREYLISTED, DEPLOY_PLAIN),
            ).astype(np.uint8)
        else:
            codes = array(
                "B",
                (
                    DEPLOY_NOLISTED
                    if roll < nolisting_rate
                    else (DEPLOY_GREYLISTED if roll < boundary else DEPLOY_PLAIN)
                    for roll in block
                ),
            )
        yield start, codes
