"""Unit tests for the domain spec stream and the streamed columns.

The batch engine classifies :func:`repro.scan.population.chunk_specs`
directly, while the object engine publishes the same specs as a world:
every spec must agree with what :class:`SyntheticInternet` actually
built.  The streamed deployment column (:mod:`repro.scan.columnar`) must
replay the object path's draws exactly, on both the NumPy and the
pure-Python ``array`` backends.
"""

import pytest

from repro.scan.columnar import (
    DEPLOY_GREYLISTED,
    DEPLOY_NOLISTED,
    DEPLOY_PLAIN,
    numpy_or_none,
    stream_deployment_chunks,
)
from repro.scan.population import (
    PopulationConfig,
    PopulationPlan,
    SyntheticInternet,
    chunk_specs,
    population_params,
)
from repro.scan.profiles import PROFILES, profile_config
from repro.sim.rng import RandomStream

#: A config that exercises every topology branch: self-hosted multi-MX,
#: both pool layouts, transient and persistent outages, both
#: misconfiguration flavours.
POOLED = dict(
    num_domains=600,
    transient_outage_rate=0.05,
    persistent_outage_rate=0.1,
    provider_pool_fraction=0.4,
    provider_equal_preference=0.5,
)


def assert_replay_matches(config: PopulationConfig, seed: int, chunk_index: int):
    """Every spec equals the ``DomainTruth`` the built world publishes."""
    specs = chunk_specs(PopulationPlan(config, seed), chunk_index)
    internet = SyntheticInternet.shard(config, seed, [chunk_index])
    assert len(specs) == len(internet.domains) > 0
    for spec, truth in zip(specs, internet.domains):
        assert spec.name == truth.name
        assert spec.category is truth.category
        assert spec.rank == truth.alexa_rank
        # Hostname, preference and address of every record, in order.
        assert spec.records == [
            (host, pref, None if addr is None else addr.value)
            for host, pref, addr in truth.mx_hosts
        ]
        assert spec.outage_scan == truth.outage_scan
        assert spec.persistent == truth.persistent_outage
        assert spec.pool_id == truth.provider_pool
        assert spec.pool_balanced == truth.pool_balanced
        if spec.www is not None:
            zone = internet.zones.zone_for(truth.name)
            assert [r.address.value for r in zone.a_records(f"www.{truth.name}")] == [
                spec.www
            ]
    return specs


class TestReplayMatchesGroundTruth:
    @pytest.mark.parametrize("chunk_index", [0, 1])
    def test_pooled_config(self, chunk_index):
        specs = assert_replay_matches(PopulationConfig(**POOLED), 42, chunk_index)
        # The config really reaches the branches it exists for.
        assert any(spec.pool_id is not None for spec in specs)
        assert any(spec.pool_balanced for spec in specs)
        assert any(spec.www is not None for spec in specs)
        assert any(spec.persistent for spec in specs)
        assert any(spec.outage_scan is not None for spec in specs)

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_every_profile(self, name):
        assert_replay_matches(profile_config(name, num_domains=400), 7, 0)


@pytest.fixture(params=["numpy", "array"])
def column_backend(request, monkeypatch):
    """Run a test on NumPy columns and on the ``array`` fallback."""
    if request.param == "array":
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_or_none() is None
    elif numpy_or_none() is None:
        pytest.skip("NumPy is not available")
    return request.param


@pytest.mark.usefixtures("column_backend")
class TestDeploymentStreaming:
    def _object_replay(self, seed, num_domains, nolisting, greylisting):
        """The object path's draw loop, verbatim (internet_scale.py)."""
        rng = RandomStream(seed, "internet-scale").split("deployments")
        codes = []
        for _ in range(num_domains):
            roll = rng.random()
            if roll < nolisting:
                codes.append(DEPLOY_NOLISTED)
            elif roll < nolisting + greylisting:
                codes.append(DEPLOY_GREYLISTED)
            else:
                codes.append(DEPLOY_PLAIN)
        return codes

    @pytest.mark.parametrize("chunk_domains", [1, 7, 100, 10_000])
    def test_matches_object_replay(self, chunk_domains):
        expected = self._object_replay(61, 500, 0.1, 0.5)
        rng = RandomStream(61, "internet-scale").split("deployments")
        streamed = []
        starts = []
        for start, codes in stream_deployment_chunks(
            rng, 500, 0.1, 0.5, chunk_domains=chunk_domains
        ):
            starts.append(start)
            streamed.extend(int(c) for c in codes)
        assert streamed == expected
        assert starts == list(range(0, 500, chunk_domains))

    def test_degenerate_rates(self):
        rng = RandomStream(3, "internet-scale").split("deployments")
        (_, codes), = stream_deployment_chunks(rng, 50, 1.0, 0.0)
        assert all(int(c) == DEPLOY_NOLISTED for c in codes)

    def test_rejects_bad_chunk_size(self):
        rng = RandomStream(3, "x")
        with pytest.raises(ValueError):
            list(stream_deployment_chunks(rng, 10, 0.1, 0.1, chunk_domains=0))


class TestProfiles:
    def test_registry_keyed_by_profile_name(self):
        assert all(profile.name == name for name, profile in PROFILES.items())

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_configs_valid_and_roundtrip(self, name):
        config = profile_config(name, num_domains=300)
        assert config.num_domains == 300
        assert config.profile == name
        # Canonical params survive the worker-payload round trip.
        from repro.scan.population import population_from_params

        assert population_from_params(population_params(config)) == config

    def test_overrides_win(self):
        config = profile_config(
            "dns-abuse", num_domains=100, transient_outage_rate=0.2
        )
        assert config.transient_outage_rate == 0.2

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            profile_config("figure3", num_domains=10)
