"""Property tests: the columnar internet-scale engine is bit-identical.

The columnar engine (``run_internet_scale(engine="columnar")``) exists
purely as a memory optimization — a streamed deployment column instead of
a materialized list.  None of that may show in any observable result, for
any seed, deployment rate, worker count or chunk size.  These tests pin
that contract, mirroring ``test_batch_equivalence.py``; CI also runs them
without NumPy, on the ``array`` columns.
"""

import pytest

from repro.core.internet_scale import run_internet_scale, sweep_deployment_rates


class TestInternetScaleEquivalence:
    @pytest.mark.parametrize("seed", [61, 7, 1234])
    @pytest.mark.parametrize(
        "grey,nolist", [(0.0, 0.0), (0.3, 0.1), (0.8, 0.2)]
    )
    def test_identical_across_rates_and_seeds(self, seed, grey, nolist):
        kwargs = dict(
            num_domains=60,
            greylisting_rate=grey,
            nolisting_rate=nolist,
            messages=200,
            seed=seed,
        )
        obj = run_internet_scale(engine="object", **kwargs)
        col = run_internet_scale(engine="columnar", **kwargs)
        assert col == obj

    @pytest.mark.parametrize("chunk_domains", [16, 100, 100_000])
    def test_identical_across_chunk_sizes(self, chunk_domains):
        # The streamed deployment column's chunk size is pure mechanics:
        # draws replay identically whatever the chunk boundaries.
        kwargs = dict(
            num_domains=300,
            greylisting_rate=0.5,
            nolisting_rate=0.1,
            messages=200,
            seed=61,
        )
        ref = run_internet_scale(engine="batch", **kwargs)
        col = run_internet_scale(
            engine="columnar", chunk_domains=chunk_domains, **kwargs
        )
        assert col == ref

    def test_sweep_identical_across_workers_and_engines(self):
        runs = [
            sweep_deployment_rates(
                messages=150, num_domains=200, seed=61, workers=w, engine=e
            )
            for w, e in ((1, "columnar"), (2, "columnar"), (4, "batch"))
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_internet_scale(num_domains=10, engine="turbo")
