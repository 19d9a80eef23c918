"""Unit tests for the synthetic internet population generator."""

import dataclasses
import itertools

import pytest

from repro.scan.alexa import PAPER_NOLISTING_RANKS
from repro.scan.population import (
    CATEGORY_ORDER,
    FIGURE2_MIX,
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
    SyntheticInternet,
    _category_counts,
    _plan_layout,
)
from repro.scan.profiles import PROFILES


@pytest.fixture(scope="module")
def internet():
    return SyntheticInternet(PopulationConfig(num_domains=2000), seed=42)


class TestConfigValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PopulationConfig(
                num_domains=10,
                mix={DomainCategory.SINGLE_MX: 0.5},
            )

    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            PopulationConfig(num_domains=10, transient_outage_rate=1.5)

    def test_needs_domains(self):
        with pytest.raises(ValueError):
            PopulationConfig(num_domains=0)

    def test_figure2_mix_sums_to_one(self):
        assert sum(FIGURE2_MIX.values()) == pytest.approx(1.0)


class TestGeneration:
    def test_exact_domain_count(self, internet):
        assert internet.num_domains == 2000
        assert len(internet.domains) == 2000

    def test_category_counts_match_mix(self, internet):
        counts = internet.truth_counts()
        # Largest-remainder apportionment: counts within 1 of exact shares.
        for category, fraction in FIGURE2_MIX.items():
            assert abs(counts[category] - 2000 * fraction) <= 1

    def test_deterministic_for_seed(self):
        a = SyntheticInternet(PopulationConfig(num_domains=300), seed=7)
        b = SyntheticInternet(PopulationConfig(num_domains=300), seed=7)
        assert [t.category for t in a.domains] == [t.category for t in b.domains]

    def test_different_seeds_shuffle_categories(self):
        a = SyntheticInternet(PopulationConfig(num_domains=300), seed=7)
        b = SyntheticInternet(PopulationConfig(num_domains=300), seed=8)
        assert [t.category for t in a.domains] != [t.category for t in b.domains]

    def test_alexa_ranks_are_a_permutation(self, internet):
        ranks = sorted(t.alexa_rank for t in internet.domains)
        assert ranks == list(range(1, 2001))


class TestGroundTruthStructure:
    def test_single_mx_domains(self, internet):
        for truth in internet.domains_in(DomainCategory.SINGLE_MX)[:20]:
            assert len(truth.mx_hosts) == 1
            assert truth.primary[2] is not None

    def test_multi_mx_domains(self, internet):
        for truth in internet.domains_in(DomainCategory.MULTI_MX)[:20]:
            assert len(truth.mx_hosts) >= 2

    def test_nolisting_domains_have_dead_primary(self, internet):
        for truth in internet.domains_in(DomainCategory.NOLISTING):
            primary = truth.primary
            assert primary is not None
            assert not internet.is_listening(primary[2], scan_index=0)
            assert not internet.is_listening(primary[2], scan_index=1)
            # At least one secondary answers.
            assert any(
                addr is not None and internet.is_listening(addr, 0)
                for (_, _, addr) in truth.secondaries
            )

    def test_misconfigured_domains_lack_usable_mx(self, internet):
        for truth in internet.domains_in(DomainCategory.MISCONFIGURED)[:20]:
            assert all(addr is None for (_, _, addr) in truth.mx_hosts)

    def test_zones_created_for_all_domains(self, internet):
        assert internet.zones.num_zones == 2000


class TestTransientOutages:
    def test_outage_only_affects_one_scan(self):
        config = PopulationConfig(
            num_domains=1000, transient_outage_rate=0.2
        )
        internet = SyntheticInternet(config, seed=3)
        flapping = [t for t in internet.domains if t.outage_scan is not None]
        assert flapping, "with a 20% rate some domains must flap"
        for truth in flapping:
            address = truth.primary[2]
            down_scan = truth.outage_scan
            up_scan = 1 - down_scan
            assert not internet.is_listening(address, down_scan)
            assert internet.is_listening(address, up_scan)

    def test_persistent_outage_mimics_nolisting(self):
        config = PopulationConfig(
            num_domains=500,
            transient_outage_rate=0.0,
            persistent_outage_rate=0.5,
        )
        internet = SyntheticInternet(config, seed=3)
        persistent = [t for t in internet.domains if t.persistent_outage]
        assert persistent
        for truth in persistent:
            address = truth.primary[2]
            assert not internet.is_listening(address, 0)
            assert not internet.is_listening(address, 1)

    def test_all_mail_addresses_cover_mx_hosts(self, internet):
        addresses = internet.all_mail_addresses()
        assert len(addresses) == len(set(addresses))
        expected = sum(
            1
            for t in internet.domains
            for (_, _, a) in t.mx_hosts
            if a is not None
        )
        assert len(addresses) == expected


def _old_category_counts(num_domains, mix):
    """The apportionment before overshoot/cyclic handling (reference)."""
    raw = {c: num_domains * frac for c, frac in mix.items()}
    counts = {c: int(v) for c, v in raw.items()}
    shortfall = num_domains - sum(counts.values())
    by_remainder = sorted(raw, key=lambda c: (counts[c] - raw[c], c.value))
    for category in by_remainder[:shortfall]:
        counts[category] += 1
    return counts, shortfall


def _skewed(mix, deltas):
    """``mix`` with ``deltas`` added per category (canonical order)."""
    ordered = sorted(mix, key=lambda c: c.value)
    return {c: mix[c] + d for c, d in zip(ordered, deltas)}


#: Base mixes: the uniform four-way split and every registered profile's.
BASE_MIXES = [{c: 0.25 for c in DomainCategory}] + [
    dict(profile.mix) for profile in PROFILES.values()
]

#: Per-category skews keeping ``|sum(mix) - 1|`` within the accepted 1e-6.
SKEWS = [
    (2.25e-7,) * 4,
    (-2.25e-7,) * 4,
    (2.5e-7, 2.5e-7, 2.5e-7, 2.4e-7),
    (-2.5e-7, -2.5e-7, -2.5e-7, -2.4e-7),
    (9e-7, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, -9e-7),
    (5e-7, -3e-7, 4e-7, 3e-7),
]


class TestCategoryCounts:
    @pytest.mark.parametrize("num_domains", [1, 3, 997, 10_000, 10_000_000, 10**8])
    def test_counts_sum_to_n_within_mix_tolerance(self, num_domains):
        for base, skew in itertools.product(BASE_MIXES, SKEWS):
            mix = _skewed(base, skew)
            # The config accepts the mix: it lies within the tolerance.
            PopulationConfig(num_domains=num_domains, mix=mix)
            counts = _category_counts(num_domains, mix)
            assert sum(counts.values()) == num_domains, (mix, counts)
            assert min(counts.values()) >= 0
            for category, fraction in mix.items():
                # Each count stays near its exact share.
                assert abs(counts[category] - num_domains * fraction) < (
                    num_domains * 1e-6 + 2
                )

    def test_overshoot_at_ten_million(self):
        over = {c: 0.25 + 2.25e-7 for c in DomainCategory}
        under = {c: 0.25 - 2.25e-7 for c in DomainCategory}
        # Slicing the remainder order by the shortfall planned 8 domains
        # too many (negative shortfall) or too few (shortfall of 12 over
        # four categories).
        assert sum(_old_category_counts(10_000_000, over)[0].values()) == 10_000_008
        assert sum(_old_category_counts(10_000_000, under)[0].values()) == 9_999_992
        for mix in (over, under):
            counts = _category_counts(10_000_000, mix)
            assert sum(counts.values()) == 10_000_000
            assert set(counts.values()) == {2_500_000}

    def test_overshoot_never_drives_a_count_negative(self):
        mix = {
            DomainCategory.SINGLE_MX: 0.5 + 9.9e-7,
            DomainCategory.MULTI_MX: 0.5,
            DomainCategory.NOLISTING: 0.0,
        }
        counts = _category_counts(10**8, mix)
        assert sum(counts.values()) == 10**8
        assert counts[DomainCategory.NOLISTING] == 0

    def test_unchanged_where_largest_remainder_already_summed(self):
        sizes = list(range(1, 2001)) + [4000, 6000, 20_000, 40_000, 80_000]
        for profile in PROFILES.values():
            for n in sizes:
                old, shortfall = _old_category_counts(n, profile.mix)
                assert 0 <= shortfall <= len(profile.mix)
                assert _category_counts(n, profile.mix) == old


class TestPlanLayoutMemo:
    CONFIG = PopulationConfig(num_domains=2000, chunk_size=300)
    SEED = 11

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        _plan_layout.cache_clear()
        yield
        _plan_layout.cache_clear()

    @staticmethod
    def _rows(plan):
        return [plan.chunk_rows(k) for k in range(plan.num_chunks)]

    def test_memoised_plan_equals_fresh_build(self):
        PopulationPlan(self.CONFIG, self.SEED)
        memoised = PopulationPlan(self.CONFIG, self.SEED)
        assert _plan_layout.cache_info().hits == 1
        _plan_layout.cache_clear()
        fresh = PopulationPlan(self.CONFIG, self.SEED)
        assert fresh._layout is not memoised._layout
        assert self._rows(memoised) == self._rows(fresh)
        assert memoised.truth_counts() == fresh.truth_counts()
        assert memoised.rank_of() == fresh.rank_of()

    def test_planting_does_not_leak_into_later_plans(self):
        pristine = PopulationPlan(self.CONFIG, self.SEED)
        unplanted_rows = self._rows(pristine)
        unplanted_ranks = dict(pristine.rank_of())

        planted = PopulationPlan(self.CONFIG, self.SEED)
        planted.plant(PAPER_NOLISTING_RANKS)
        assert planted.rank_of() != unplanted_ranks
        assert self._rows(planted) != unplanted_rows

        later = PopulationPlan(self.CONFIG, self.SEED)
        assert later._layout is planted._layout
        assert later.rank_of() == unplanted_ranks
        assert self._rows(later) == unplanted_rows

    def test_layout_is_read_only(self):
        layout = PopulationPlan(self.CONFIG, self.SEED)._layout
        category = CATEGORY_ORDER[0]
        with pytest.raises(TypeError):
            layout.codes[0] = 1
        with pytest.raises(TypeError):
            layout.ranks[0] = 1
        with pytest.raises(TypeError):
            layout.index_by_category[category][0] = 1
        with pytest.raises(TypeError):
            layout.counts[category] = 0
        with pytest.raises(TypeError):
            layout.index_by_category[category] = None

    @pytest.mark.parametrize(
        "change", [{"chunk_size": 128}, {"transient_outage_rate": 0.2}]
    )
    def test_non_layout_knobs_reuse_the_layout(self, change):
        base = PopulationPlan(self.CONFIG, self.SEED)
        other = PopulationPlan(dataclasses.replace(self.CONFIG, **change), self.SEED)
        assert other._layout is base._layout

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 12},
            {"num_domains": 2001},
            {"mix": PROFILES["dns-abuse"].mix},
        ],
    )
    def test_layout_inputs_rebuild_the_layout(self, change):
        base = PopulationPlan(self.CONFIG, self.SEED)
        seed = change.pop("seed", self.SEED)
        other = PopulationPlan(dataclasses.replace(self.CONFIG, **change), seed)
        assert other._layout is not base._layout
        assert _plan_layout.cache_info().misses == 2
