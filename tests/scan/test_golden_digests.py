"""Golden digests of generated populations and adoption results.

The object and batch adoption engines classify one population, drawn once
per chunk.  Their equivalence suites prove that the two engines *interpret*
those draws alike; they cannot notice a change in the draws themselves,
because both engines would see it.  These digests pin the draws: a sha256
over every generated world (zones, ground truth, address order, listening
and outage maps) and over full adoption results.

Every fingerprint is built from public accessors and canonical JSON — no
``hash()``, no set iteration — so the digests are the same on every
supported Python.  A deliberate change to the generator must update them
in the same change, and say why.
"""

import hashlib
import json

import pytest

from repro.core.adoption import run_adoption_experiment
from repro.scan.alexa import plant_popular_nolisting
from repro.scan.population import PopulationConfig, SyntheticInternet
from repro.scan.profiles import PROFILES, profile_config

#: Every topology branch: self-hosted multi-MX, both pool layouts,
#: transient and persistent outages, both misconfiguration flavours
#: (the same config the batch replay tests use).
POOLED = dict(
    num_domains=600,
    transient_outage_rate=0.05,
    persistent_outage_rate=0.1,
    provider_pool_fraction=0.4,
    provider_equal_preference=0.5,
)


def digest(value) -> str:
    """sha256 of ``value`` as canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def world_fingerprint(internet: SyntheticInternet):
    """Everything a generated world publishes, in publication order."""
    zones = []
    for zone in internet.zones.zones:
        names = []
        for name in zone.names():
            names.append([
                name,
                [[r.address.value, r.ttl] for r in zone.a_records(name)],
                [[r.preference, r.exchange, r.ttl] for r in zone.mx_records(name)],
                [[r.text, r.ttl] for r in zone.txt_records(name)],
            ])
        zones.append([zone.apex, names])
    truths = [
        [
            t.name,
            t.category.value,
            [[h, p, None if a is None else a.value] for h, p, a in t.mx_hosts],
            t.outage_scan,
            t.persistent_outage,
            t.alexa_rank,
            t.provider_pool,
            t.pool_balanced,
        ]
        for t in internet.domains
    ]
    addresses = internet.all_mail_addresses()
    return {
        "zones": zones,
        "truths": truths,
        "addresses": [a.value for a in addresses],
        "listening": [
            [internet.is_listening(a, 0), internet.is_listening(a, 1)]
            for a in addresses
        ],
        "counts": {c.value: n for c, n in internet.truth_counts().items()},
    }


def adoption_fingerprint(result):
    """Every field of a :class:`AdoptionExperimentResult`."""
    summary = result.summary
    crosscheck = result.crosscheck
    return {
        "summary": {
            "total": summary.total_domains,
            "counts": {c.value: n for c, n in summary.counts.items()},
            "flapped": summary.flapped,
            "servers": summary.servers_covered,
            "addresses": summary.addresses_covered,
        },
        "crosscheck": [
            crosscheck.top15,
            crosscheck.top500,
            crosscheck.top1000,
            crosscheck.ranked_adopters,
        ],
        "ground_truth": {c.value: n for c, n in result.ground_truth.items()},
        "repaired": result.repaired_mx_records,
        "confusion": result.confusion,
    }


#: Profile name -> digest of ``profile_config(name, 1500)`` at seed 7.
PROFILE_DIGESTS = {
    "dns-abuse": "09c8f6bcfefe41c58b077244b0b6cf608f0d0f8dce91a1117423f22c2c0b4bc2",
    "figure2": "86f596a0afa24b020bf53960c336bd61c94068c7edd10fb6754819ab3cac80c0",
    "provider-consolidated": (
        "2c2404b94e382484a92b3faf548cbab8df686af182e00148244d5c7f8bbc93d2"
    ),
}

#: ``POOLED`` at seed 42.
POOLED_DIGEST = "7f26769df92f517524a6ba9ea0f6da6bcee0cfa84f3a327522894cb63e7b4eed"

#: A 2500-domain Figure 2 world at seed 3 after planting the paper's ranks.
PLANTED_DIGEST = "b61df2e358e9a30df4ef11ae696fe9e8fd55d5a81fe5c626e730f4126c376900"

#: Case -> (config overrides, fault rate, digest) of an adoption run at
#: seed 5; both engines must produce the digest.
ADOPTION_CASES = {
    "figure2": (
        dict(num_domains=4000),
        0.0,
        "3c833a9d43053b35c9d85b5ceb67dbe0aa8cd94408188ee2a2a317f6119e5480",
    ),
    "figure2-faults": (
        dict(num_domains=4000),
        0.02,
        "15b9c02f4a9b53ba56aafff04b49a2f8ea7930041192e45653383f8ce1948980",
    ),
    "pooled-faults": (
        dict(POOLED, num_domains=3000),
        0.02,
        "dce995233e4fe56d872b95c3467deaa527a77e1c6d6144160fb8536a848c1e26",
    ),
}


class TestWorldDigests:
    def test_profiles_registered(self):
        assert sorted(PROFILES) == sorted(PROFILE_DIGESTS)

    @pytest.mark.parametrize("name", sorted(PROFILE_DIGESTS))
    def test_profile_world(self, name):
        internet = SyntheticInternet(profile_config(name, num_domains=1500), 7)
        assert digest(world_fingerprint(internet)) == PROFILE_DIGESTS[name]

    def test_pooled_outage_world(self):
        internet = SyntheticInternet(PopulationConfig(**POOLED), 42)
        assert digest(world_fingerprint(internet)) == POOLED_DIGEST

    def test_planted_world(self):
        internet = SyntheticInternet(PopulationConfig(num_domains=2500), 3)
        planted = plant_popular_nolisting(internet)
        fingerprint = {"planted": planted, "world": world_fingerprint(internet)}
        assert digest(fingerprint) == PLANTED_DIGEST


class TestAdoptionDigests:
    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("case", sorted(ADOPTION_CASES))
    def test_adoption_result(self, engine, case):
        overrides, fault_rate, expected = ADOPTION_CASES[case]
        result = run_adoption_experiment(
            seed=5,
            config=PopulationConfig(**overrides),
            engine=engine,
            fault_rate=fault_rate,
        )
        assert digest(adoption_fingerprint(result)) == expected
