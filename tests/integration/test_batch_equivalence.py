"""Property tests: the batch engines are bit-identical to the object path.

The equivalence-class engines (``engine="batch"``) exist purely as a
performance optimization — every observable result must match the
per-object simulation exactly, for any seed, any configuration and any
worker count.  These tests pin that contract.
"""

import pytest

from repro.botnet.families import CUTWAIL, DARKMAILER
from repro.core.adoption import run_adoption_experiment
from repro.core.internet_scale import run_internet_scale, sweep_deployment_rates
from repro.core.synergy import run_synergy_experiment, sweep_greylist_delay
from repro.scan.profiles import profile_config
from repro.sim.batch import BatchCounters, SessionOutcomeCache


def _assert_adoption_equal(a, b):
    assert b.summary.counts == a.summary.counts
    assert b.summary.flapped == a.summary.flapped
    assert b.summary.total_domains == a.summary.total_domains
    assert b.summary.servers_covered == a.summary.servers_covered
    assert b.summary.addresses_covered == a.summary.addresses_covered
    assert b.confusion == a.confusion
    assert b.repaired_mx_records == a.repaired_mx_records
    assert b.crosscheck == a.crosscheck
    assert b.ground_truth == a.ground_truth


class TestAdoptionEquivalence:
    @pytest.mark.parametrize("glue_elision_rate", [0.1, 0.0])
    def test_multi_chunk_identical(self, glue_elision_rate):
        # 1100 domains = 3 chunks (one partial), exercising the shard merge.
        kwargs = dict(
            num_domains=1100, seed=5, glue_elision_rate=glue_elision_rate
        )
        obj = run_adoption_experiment(engine="object", **kwargs)
        bat = run_adoption_experiment(engine="batch", **kwargs)
        _assert_adoption_equal(obj, bat)

    @pytest.mark.parametrize("fault_seed", [77, 3])
    def test_identical_under_fault_injection(self, fault_seed):
        # Fault draws are keyed by entity, not by execution order, so the
        # batch engine must reproduce the faulted verdicts too.
        kwargs = dict(
            num_domains=600, seed=9, fault_rate=0.05, fault_seed=fault_seed
        )
        obj = run_adoption_experiment(engine="object", **kwargs)
        bat = run_adoption_experiment(engine="batch", **kwargs)
        _assert_adoption_equal(obj, bat)

    @pytest.mark.parametrize(
        "profile", ["provider-consolidated", "dns-abuse"]
    )
    def test_identical_per_generator_profile(self, profile):
        # provider-consolidated puts multi-MX domains on shared provider
        # pools, whose exchangers the replay derives arithmetically.
        config = profile_config(profile, num_domains=800)
        kwargs = dict(seed=21, config=config, plant_popular=False)
        obj = run_adoption_experiment(engine="object", **kwargs)
        bat = run_adoption_experiment(engine="batch", **kwargs)
        _assert_adoption_equal(obj, bat)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_identical_across_workers(self, workers):
        obj = run_adoption_experiment(num_domains=1000, seed=5, engine="object")
        bat = run_adoption_experiment(
            num_domains=1000, seed=5, engine="batch", workers=workers
        )
        _assert_adoption_equal(obj, bat)

    @pytest.mark.parametrize("engine", ["vectorized", "columnar"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="unknown adoption engine"):
            run_adoption_experiment(num_domains=60, engine=engine)


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
        bat = run_internet_scale(engine="batch", **kwargs)
        assert bat == obj

    @pytest.mark.parametrize("delay", [5.0, 300.0, 21600.0])
    def test_identical_across_greylist_delays(self, delay):
        kwargs = dict(
            num_domains=50,
            greylisting_rate=0.5,
            nolisting_rate=0.2,
            messages=150,
            greylist_delay=delay,
            seed=17,
        )
        assert run_internet_scale(engine="batch", **kwargs) == run_internet_scale(
            engine="object", **kwargs
        )

    def test_counters_report_collapse(self):
        counters = BatchCounters()
        run_internet_scale(
            num_domains=5000,
            messages=300,
            seed=61,
            engine="batch",
            counters=counters,
        )
        assert counters.members == 300
        # family x deployment classes: at most 4 x 3.
        assert counters.classes <= 12
        assert counters.collapse_factor > 10

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_internet_scale(num_domains=10, engine="turbo")


class TestSynergyEquivalence:
    @pytest.mark.parametrize("configuration", ["greylist", "dnsbl", "both"])
    @pytest.mark.parametrize("seed", [31, 99])
    def test_identical_per_configuration(self, configuration, seed):
        kwargs = dict(greylist_delay=300.0, reports_per_hour=60.0, seed=seed)
        obj = run_synergy_experiment(configuration, engine="object", **kwargs)
        bat = run_synergy_experiment(configuration, engine="batch", **kwargs)
        assert bat == obj

    @pytest.mark.parametrize("delay", [5.0, 3600.0, 21600.0])
    def test_identical_across_delays(self, delay):
        kwargs = dict(greylist_delay=delay, seed=31)
        assert run_synergy_experiment(
            "both", engine="batch", **kwargs
        ) == run_synergy_experiment("both", engine="object", **kwargs)

    @pytest.mark.parametrize("family", [CUTWAIL, DARKMAILER])
    def test_identical_for_fire_and_forget_families(self, family):
        kwargs = dict(family=family, greylist_delay=300.0, seed=31)
        assert run_synergy_experiment(
            "both", engine="batch", **kwargs
        ) == run_synergy_experiment("both", engine="object", **kwargs)

    def test_batch_refuses_local_reporting(self):
        with pytest.raises(ValueError, match="local"):
            run_synergy_experiment("both", local_reporting=True, engine="batch")

    def test_batch_refuses_delisting_horizons(self):
        # Beyond the listing lifetime the blacklist auto-delists; the
        # replay's monotonic "listed" assumption would be unsound.
        with pytest.raises(ValueError, match="horizon"):
            run_synergy_experiment("dnsbl", horizon=40_000_000.0, engine="batch")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_synergy_experiment("both", engine="quantum")


class TestWorkerAndCacheDeterminism:
    def test_internet_scale_sweep_identical_across_workers(self):
        runs = [
            sweep_deployment_rates(
                messages=150, num_domains=200, seed=61, workers=w, engine="batch"
            )
            for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_synergy_sweep_identical_across_workers(self):
        runs = [
            sweep_greylist_delay(seed=31, workers=w, engine="batch")
            for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_shared_cache_matches_fresh_cache(self):
        # A playbook cached by one run and replayed by the next must not
        # change anything: the cache is a pure memo.
        shared = SessionOutcomeCache()
        kwargs = dict(num_domains=100, messages=200, seed=61, engine="batch")
        first = run_internet_scale(session_cache=shared, **kwargs)
        second = run_internet_scale(session_cache=shared, **kwargs)
        fresh = run_internet_scale(**kwargs)
        assert first == second == fresh
        assert shared.hits > 0

    def test_capacity_one_cache_matches_unbounded(self):
        # Constant eviction churn (capacity 1) rebuilds playbooks over and
        # over but must never change the result.
        tiny = SessionOutcomeCache(capacity=1)
        kwargs = dict(num_domains=100, messages=200, seed=61, engine="batch")
        assert run_internet_scale(session_cache=tiny, **kwargs) == run_internet_scale(
            **kwargs
        )
        assert tiny.evictions > 0

    def test_synergy_shared_cache_matches_fresh(self):
        shared = SessionOutcomeCache()
        kwargs = dict(greylist_delay=300.0, seed=31, engine="batch")
        first = run_synergy_experiment("both", session_cache=shared, **kwargs)
        second = run_synergy_experiment("both", session_cache=shared, **kwargs)
        assert first == second == run_synergy_experiment("both", **kwargs)
        assert shared.hits > 0
