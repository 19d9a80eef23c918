"""Synthetic internet population for the adoption measurement.

The Figure 2 experiment needs an internet's worth of mail domains whose
ground truth we control: how many use a single MX, several MXes, nolisting,
or are misconfigured — plus the realistic nuisances the paper's pipeline had
to survive (transiently-down primaries, MX answers with missing glue,
persistent primary outages indistinguishable from nolisting).

:class:`SyntheticInternet` generates such a population deterministically
from a seed and exposes exactly the two views the real study had:
authoritative DNS (via a :class:`~repro.dns.zone.ZoneStore`) and per-scan
TCP/25 reachability (via :meth:`is_listening`).

Generation is *chunked*: the domain space is split into fixed-size chunks,
each drawn by :func:`chunk_specs` from its own RNG sub-stream
(``seed -> "chunk:<k>"``) and its own disjoint slice of the address space.
A chunk's content therefore depends only on ``(config, seed, chunk
index)`` — never on which other chunks were generated in the same process
— which is what lets the parallel experiment runner hand each worker a
disjoint slice of the population (:meth:`SyntheticInternet.shard`) and
still merge results bit-for-bit identical to a serial run.
:class:`SyntheticInternet` publishes the specs as a world; the batch engine
(:mod:`repro.scan.batch`) classifies the same specs directly.
"""

from __future__ import annotations

import enum
import functools
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..dns.zone import ZoneStore
from ..net.address import IPv4Address, IPv4Network
from ..sim.rng import RandomStream


class DomainCategory(enum.Enum):
    """Ground-truth configuration of a generated domain."""

    SINGLE_MX = "single-mx"
    MULTI_MX = "multi-mx"
    NOLISTING = "nolisting"
    MISCONFIGURED = "misconfigured"


#: Figure 2's published mix (fractions of all domains).
FIGURE2_MIX: Dict[DomainCategory, float] = {
    DomainCategory.SINGLE_MX: 0.4773,
    DomainCategory.MULTI_MX: 0.4597,
    DomainCategory.MISCONFIGURED: 0.0578,
    DomainCategory.NOLISTING: 0.0052,
}

#: Upper bound on addresses one domain can consume (multi-MX tops out at a
#: primary plus three extra exchangers); sizes each chunk's address slice.
MAX_ADDRESSES_PER_DOMAIN = 4

#: Exchangers provisioned per provider-consolidated MX pool.
POOL_HOSTS = MAX_ADDRESSES_PER_DOMAIN

#: Apex under which provider-consolidated MX pools live; pool ``k`` owns the
#: zone ``pool<k>.mx-pools.example``.
PROVIDER_APEX = "mx-pools.example"

#: Address block reserved for provider pools (RFC 2544 benchmarking range,
#: disjoint from the population's default 10/8 and the bot source ranges).
#: Pool addresses are arithmetic — pool ``k`` slot ``i`` maps to
#: ``base + k * POOL_HOSTS + i`` — so a domain spec carries them as plain
#: integers.
PROVIDER_ADDRESS_SPACE = "198.18.0.0/16"


def provider_pool_apex(pool_id: int) -> str:
    """Zone apex of provider pool ``pool_id``."""
    return f"pool{pool_id}.{PROVIDER_APEX}"


def provider_pool_host(pool_id: int, slot: int) -> str:
    """Hostname of exchanger ``slot`` in provider pool ``pool_id``.

    Slots are single digits (``POOL_HOSTS <= 4``), so lexicographic order of
    the hostnames equals slot order — which keeps the scanner's
    ``(preference, exchange)`` sort stable for load-balanced (equal
    preference) pools.
    """
    return f"mx{slot}.{provider_pool_apex(pool_id)}"


def provider_pool_address(pool_id: int, slot: int) -> int:
    """Integer address of exchanger ``slot`` in provider pool ``pool_id``."""
    base = IPv4Network.parse(PROVIDER_ADDRESS_SPACE).base.value
    return base + pool_id * POOL_HOSTS + slot

#: Canonical category order backing the plan's columnar representation.
#: Sorted by enum value, matching the plan's canonical layout order, so a
#: category's code is stable across processes and releases of this module.
CATEGORY_ORDER: Tuple[DomainCategory, ...] = tuple(
    sorted(DomainCategory, key=lambda c: c.value)
)

#: category -> small-int code used in the plan's ``array('B')`` column.
CATEGORY_CODE: Dict[DomainCategory, int] = {
    category: code for code, category in enumerate(CATEGORY_ORDER)
}


@dataclass
class DomainTruth:
    """Everything the generator decided about one domain."""

    name: str
    category: DomainCategory
    mx_hosts: List[Tuple[str, int, Optional[IPv4Address]]] = field(
        default_factory=list
    )  # (hostname, preference, address-or-None)
    #: Scan index (0 or 1) during which the *primary* MX is spuriously down,
    #: or None.  Models maintenance windows / transient failures.
    outage_scan: Optional[int] = None
    #: Primary down in *both* scans (a persistent failure, which the paper
    #: deliberately counts as nolisting-equivalent).
    persistent_outage: bool = False
    alexa_rank: Optional[int] = None
    #: Provider-consolidated MX pool this domain's exchangers live in, or
    #: None for self-hosted MX.  Pool domains share exchanger addresses.
    provider_pool: Optional[int] = None
    #: Pool advertised with equal preferences (load balancing) rather than
    #: the weighted fail-over layout.
    pool_balanced: bool = False

    @property
    def primary(self) -> Optional[Tuple[str, int, Optional[IPv4Address]]]:
        if not self.mx_hosts:
            return None
        return min(self.mx_hosts, key=lambda h: h[1])

    @property
    def secondaries(self) -> List[Tuple[str, int, Optional[IPv4Address]]]:
        if len(self.mx_hosts) < 2:
            return []
        primary = self.primary
        return [h for h in self.mx_hosts if h is not primary]


@dataclass
class PopulationConfig:
    """Knobs of the generator."""

    num_domains: int = 10000
    mix: Dict[DomainCategory, float] = field(
        default_factory=lambda: dict(FIGURE2_MIX)
    )
    #: Fraction of single/multi-MX domains whose primary suffers a transient
    #: outage during exactly one of the two scans.
    transient_outage_rate: float = 0.004
    #: Fraction of multi-MX domains whose primary is persistently dead
    #: (counted as nolisting by the paper's operational definition).
    persistent_outage_rate: float = 0.0
    #: Fraction of multi-MX domains (2, 3 or 4 exchangers).
    extra_mx_weights: Tuple[float, float, float] = (0.72, 0.2, 0.08)
    #: Of the misconfigured domains, fraction that have a dangling MX (the
    #: rest have no MX records at all).
    dangling_mx_fraction: float = 0.5
    #: Fraction of multi-MX domains hosted on a provider-consolidated MX
    #: pool (shared exchangers, à la the Ruohonen MX measurement) instead of
    #: self-hosted exchangers.  0 disables pools — and skips their draws, so
    #: pool-free populations stay bit-identical to pre-pool releases.
    provider_pool_fraction: float = 0.0
    #: Number of distinct provider pools domains are spread over.
    provider_pool_count: int = 8
    #: Of the pool-hosted domains, fraction whose pool is advertised with
    #: equal MX preferences (load balancing); the rest use the weighted
    #: fail-over layout (ascending preferences).
    provider_equal_preference: float = 0.3
    #: Generator mix this config was derived from (see
    #: :mod:`repro.scan.profiles`); purely descriptive metadata.
    profile: str = "figure2"
    address_space: str = "10.0.0.0/8"
    #: Domains per generation chunk.  Part of the population's identity: the
    #: same (seed, chunk_size) yields the same domains whether chunks are
    #: built in one process or spread over many workers.
    chunk_size: int = 512

    def __post_init__(self) -> None:
        if self.num_domains < 1:
            raise ValueError("population needs at least one domain")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"category mix must sum to 1, got {total}")
        for rate in (self.transient_outage_rate, self.persistent_outage_rate,
                     self.dangling_mx_fraction, self.provider_pool_fraction,
                     self.provider_equal_preference):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.provider_pool_count < 1:
            raise ValueError("provider_pool_count must be positive")
        if self.provider_pool_fraction > 0:
            provider = IPv4Network.parse(PROVIDER_ADDRESS_SPACE)
            if self.provider_pool_count * POOL_HOSTS > provider.num_addresses:
                raise ValueError(
                    f"{self.provider_pool_count} provider pools exceed the "
                    f"reserved {PROVIDER_ADDRESS_SPACE} block"
                )
            population = IPv4Network.parse(self.address_space)
            if provider.base in population or population.base in provider:
                raise ValueError(
                    "population address space overlaps the provider pool "
                    f"block {PROVIDER_ADDRESS_SPACE}"
                )

    @property
    def num_chunks(self) -> int:
        return -(-self.num_domains // self.chunk_size)

    @property
    def chunk_address_stride(self) -> int:
        """Addresses reserved per chunk (disjoint across chunks)."""
        return self.chunk_size * MAX_ADDRESSES_PER_DOMAIN


def population_params(config: PopulationConfig) -> Dict[str, object]:
    """Canonical, JSON-able description of a config (cache keys, workers)."""
    params: Dict[str, object] = {
        "num_domains": config.num_domains,
        "mix": {c.value: config.mix[c] for c in sorted(config.mix, key=lambda c: c.value)},
        "transient_outage_rate": config.transient_outage_rate,
        "persistent_outage_rate": config.persistent_outage_rate,
        "extra_mx_weights": list(config.extra_mx_weights),
        "dangling_mx_fraction": config.dangling_mx_fraction,
        "address_space": config.address_space,
        "chunk_size": config.chunk_size,
    }
    # Provider-pool and profile keys appear only when they deviate from the
    # defaults, so pool-free configs keep their pre-pool cache identity.
    if config.provider_pool_fraction > 0:
        params["provider_pool_fraction"] = config.provider_pool_fraction
        params["provider_pool_count"] = config.provider_pool_count
        params["provider_equal_preference"] = config.provider_equal_preference
    if config.profile != "figure2":
        params["profile"] = config.profile
    return params


def population_from_params(params: Dict[str, object]) -> PopulationConfig:
    """Inverse of :func:`population_params`."""
    return PopulationConfig(
        num_domains=int(params["num_domains"]),
        mix={DomainCategory(k): v for k, v in params["mix"].items()},
        transient_outage_rate=float(params["transient_outage_rate"]),
        persistent_outage_rate=float(params["persistent_outage_rate"]),
        extra_mx_weights=tuple(params["extra_mx_weights"]),
        dangling_mx_fraction=float(params["dangling_mx_fraction"]),
        provider_pool_fraction=float(params.get("provider_pool_fraction", 0.0)),
        provider_pool_count=int(params.get("provider_pool_count", 8)),
        provider_equal_preference=float(
            params.get("provider_equal_preference", 0.3)
        ),
        profile=str(params.get("profile", "figure2")),
        address_space=str(params["address_space"]),
        chunk_size=int(params["chunk_size"]),
    )


def _category_counts(
    num_domains: int, mix: Mapping[DomainCategory, float]
) -> Dict[DomainCategory, int]:
    """Apportion domains to categories with largest-remainder rounding.

    The counts always sum to ``num_domains``, even when the mix sums to 1
    only within :class:`PopulationConfig`'s tolerance: at large ``n`` the
    floored shares can then miss ``n`` by more than one domain per
    category, or overshoot it.  The shortfall is handed out cyclically,
    largest remainder first; an overshoot is taken back cyclically,
    smallest remainder first and never below zero.  Whenever the floors
    fall short by at most one per category this is plain largest
    remainder, one extra domain each to the largest remainders.
    """
    raw = {c: num_domains * frac for c, frac in mix.items()}
    counts = {c: int(v) for c, v in raw.items()}
    shortfall = num_domains - sum(counts.values())
    by_remainder = sorted(raw, key=lambda c: (counts[c] - raw[c], c.value))
    step = 1
    if shortfall < 0:
        by_remainder.reverse()
        step = -1
    turn = 0
    while shortfall:
        category = by_remainder[turn % len(by_remainder)]
        turn += 1
        if step < 0 and counts[category] == 0:
            continue
        counts[category] += step
        shortfall -= step
    return counts


class _PlanLayout(NamedTuple):
    """The seed-determined, read-only part of a :class:`PopulationPlan`."""

    #: Category code of each domain, in domain-index order.
    codes: memoryview
    #: Alexa-style rank of each domain before any planting.
    ranks: memoryview
    #: Exact category counts (every category present, zeros included).
    counts: Mapping[DomainCategory, int]
    #: category -> ascending indices of its domains.
    index_by_category: Mapping[DomainCategory, memoryview]


@functools.lru_cache(maxsize=1)
def _plan_layout(
    num_domains: int,
    mix: Tuple[Tuple[DomainCategory, float], ...],
    seed: int,
) -> _PlanLayout:
    """Build (once per process) the layout of the plan for these inputs.

    The layout — shuffled category codes, shuffled rank permutation,
    exact counts, per-category index — is a pure function of
    ``(num_domains, canonical mix, seed)``; nothing else in the config
    (chunk size, outage rates, pools, profile) enters it, so it is keyed
    on those three alone and a sweep over rates reuses it.  Every shard of
    an adoption run rebuilds a :class:`PopulationPlan`, and building the
    layout is two full-length shuffles: without the memo a run's planning
    cost grows with the square of the population.

    A per-process memo of a pure function is safe under any pool start
    method: a spawned worker computes the same value the coordinator did,
    and a forked one inherits the coordinator's entry.  Workers therefore
    cannot diverge through it, which is the hazard SHM001 guards module
    state against.  ``maxsize=1`` bounds the memory to the current
    population.

    Only immutable views leave this function: the arrays are exposed as
    read-only memoryviews and the mappings as proxies, so an accidental
    write raises instead of corrupting every later plan in the process.
    Per-plan mutable state (planting, the name->rank map) lives on the
    :class:`PopulationPlan` instance, never here.
    """
    root = RandomStream(seed, "population")
    counts = _category_counts(num_domains, dict(mix))
    codes = array("B")
    # Canonical category order: the plan must not depend on the mix
    # dict's insertion order, or a worker rebuilding the config from
    # canonical params would lay out a different population.  Shuffling
    # the code column draws exactly what shuffling the old object list
    # drew (the draws depend only on the length), so populations are
    # bit-identical to the pre-columnar layout.
    for category in sorted(counts, key=lambda c: c.value):
        codes.extend([CATEGORY_CODE[category]] * counts[category])
    root.split("order").shuffle(codes)

    ranks = array("I", range(1, num_domains + 1))
    root.split("ranks").shuffle(ranks)

    index_by_category: Dict[DomainCategory, "array[int]"] = {
        category: array("I") for category in CATEGORY_ORDER
    }
    for index, code in enumerate(codes):
        index_by_category[CATEGORY_ORDER[code]].append(index)
    return _PlanLayout(
        codes=memoryview(codes).toreadonly(),
        ranks=memoryview(ranks).toreadonly(),
        counts=MappingProxyType(
            {category: counts.get(category, 0) for category in DomainCategory}
        ),
        index_by_category=MappingProxyType({
            category: memoryview(indices).toreadonly()
            for category, indices in index_by_category.items()
        }),
    )


class PopulationPlan:
    """Deterministic per-domain plan shared by every worker.

    Apportions domains to categories (largest-remainder, exact counts),
    shuffles the category order and the Alexa-style rank permutation — all
    O(n) in cheap scalar data.  Both the full generator and every shard
    derive the same plan from ``(config, seed)``, so chunk ``k`` means the
    same domains everywhere.

    The plan is *columnar*: an ``array('B')`` of category codes and an
    ``array('I')`` of ranks, plus a category index and the ground-truth
    counts built with them.  Those form the plan's read-only layout, which
    is memoised per process (see :func:`_plan_layout`): constructing a plan
    for a population this process has just planned costs nothing, which is
    what lets every shard build its own.  :meth:`plant` copies the rank
    column onto the instance before re-ranking it, so one plan's planting
    never reaches another.
    """

    def __init__(self, config: PopulationConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        mix = tuple(sorted(config.mix.items(), key=lambda item: item[0].value))
        self._layout = _plan_layout(config.num_domains, mix, seed)
        self._ranks: Sequence[int] = self._layout.ranks
        self._rank_cache: Optional[Dict[str, int]] = None

    @staticmethod
    def name_of(index: int) -> str:
        """The (purely positional) name of domain ``index``."""
        return f"dom{index:07d}.example"

    @property
    def num_chunks(self) -> int:
        return self.config.num_chunks

    def chunk_rows(self, chunk_index: int) -> List[Tuple[int, str, DomainCategory, int]]:
        """Chunk contents as cheap ``(index, name, category, rank)`` rows."""
        if not 0 <= chunk_index < self.num_chunks:
            raise ValueError(
                f"chunk {chunk_index} out of range [0, {self.num_chunks})"
            )
        size = self.config.chunk_size
        start = chunk_index * size
        stop = min(start + size, self.config.num_domains)
        codes, ranks = self._layout.codes, self._ranks
        return [
            (i, self.name_of(i), CATEGORY_ORDER[codes[i]], ranks[i])
            for i in range(start, stop)
        ]

    def truth_counts(self) -> Dict[DomainCategory, int]:
        """Exact category counts, precomputed at planning time."""
        return dict(self._layout.counts)

    def count_in(self, category: DomainCategory) -> int:
        """Category cardinality, from the precomputed counts."""
        return self._layout.counts[category]

    def rank_of(self) -> Dict[str, int]:
        """Domain name -> current Alexa rank (reflects any planting).

        Cached after the first call; :meth:`plant` drops the cache when
        ranks move.  Treat the returned mapping as read-only.
        """
        if self._rank_cache is None:
            self._rank_cache = {
                self.name_of(i): rank for i, rank in enumerate(self._ranks)
            }
        return self._rank_cache

    def plant(self, ranks: Sequence[int]) -> List[str]:
        """Plant nolisting adopters at ``ranks``; returns their names.

        Re-ranks a private copy of the rank column (see
        :func:`repro.scan.alexa.plant_ranks`) and drops the name->rank
        cache.
        """
        from .alexa import plant_ranks  # deferred: alexa imports this module

        column = array("I", self._ranks)
        nolisting = self._layout.index_by_category[DomainCategory.NOLISTING]
        planted = plant_ranks(nolisting, column, ranks)
        self._ranks = column
        self._rank_cache = None
        return [self.name_of(i) for i in planted]


#: One MX record of a domain spec: hostname, preference, address value
#: (``None`` for a dangling exchange with no A record anywhere).
SpecRecord = Tuple[str, int, Optional[int]]


class DomainSpec(NamedTuple):
    """Everything the generator drew for one domain, as plain values.

    The object engine publishes a spec as zones, listeners and ground
    truth (:class:`SyntheticInternet`); the batch engine classifies it
    directly (:mod:`repro.scan.batch`).  Both read the same specs from
    :func:`chunk_specs`, so each draw has exactly one owner.
    """

    name: str
    category: DomainCategory
    rank: int
    #: MX records in publication order; the first is the primary.
    records: List[SpecRecord]
    #: Scan index (0 or 1) during which the primary is spuriously down.
    outage_scan: Optional[int]
    #: Primary down in both scans.
    persistent: bool
    #: Provider pool hosting the exchangers, or None when self-hosted.
    pool_id: Optional[int]
    #: Pool advertised with equal preferences (load balancing).
    pool_balanced: bool
    #: Address of the ``www`` A record of a domain without MX records.
    www: Optional[int]


def chunk_specs(plan: PopulationPlan, chunk_index: int) -> List[DomainSpec]:
    """Draw every domain of chunk ``chunk_index``.

    The chunk's streams are ``seed -> "population" -> "chunk:<k>"`` split
    into ``outages``, ``mx-count``, ``misconfig`` and (only when pools are
    enabled, so pool-free populations keep their pre-pool draws)
    ``provider``; each domain draws from them in index order.  Addresses
    are arithmetic: chunk ``k`` owns the slice at ``k * stride`` of the
    population's address space and hands it out sequentially, and pool
    exchangers sit at fixed addresses in the provider block.  The ranks
    are the plan's, so a planted plan yields planted specs.
    """
    config = plan.config
    chunk_rng = RandomStream(plan.seed, "population").split(f"chunk:{chunk_index}")
    outage_rng = chunk_rng.split("outages")
    mx_rng = chunk_rng.split("mx-count")
    misc_rng = chunk_rng.split("misconfig")
    provider_rng = (
        chunk_rng.split("provider")
        if config.provider_pool_fraction > 0
        else None
    )
    next_address = (
        IPv4Network.parse(config.address_space).base.value
        + chunk_index * config.chunk_address_stride
    )

    def transient() -> Optional[int]:
        if outage_rng.random() >= config.transient_outage_rate:
            return None
        return outage_rng.randint(0, 1)

    specs: List[DomainSpec] = []
    for _, name, category, rank in plan.chunk_rows(chunk_index):
        records: List[SpecRecord] = []
        outage_scan: Optional[int] = None
        persistent = False
        pool_id: Optional[int] = None
        balanced = False
        www: Optional[int] = None

        if category is DomainCategory.SINGLE_MX:
            records.append((f"smtp.{name}", 10, next_address))
            next_address += 1
            outage_scan = transient()
        elif category is DomainCategory.MULTI_MX:
            count = mx_rng.weighted_index(list(config.extra_mx_weights)) + 2
            if (
                provider_rng is not None
                and provider_rng.random() < config.provider_pool_fraction
            ):
                # Fail-over pools advertise ascending preferences; load
                # balanced ones advertise every exchanger at 10, relying on
                # the scanner's (preference, exchange) tie-break — slot
                # order, by construction of provider_pool_host.  Pool
                # exchangers are shared across domains, so per-domain
                # outage draws would couple unrelated domains: none here.
                pool_id = provider_rng.randrange(config.provider_pool_count)
                balanced = provider_rng.random() < config.provider_equal_preference
                for slot in range(count):
                    records.append((
                        provider_pool_host(pool_id, slot),
                        10 if balanced else 10 * (slot + 1),
                        provider_pool_address(pool_id, slot),
                    ))
            else:
                records.append((f"smtp.{name}", 10, next_address))
                for j in range(1, count):
                    records.append(
                        (f"smtp{j}.{name}", 10 * (j + 1), next_address + j)
                    )
                next_address += count
                if outage_rng.random() < config.persistent_outage_rate:
                    persistent = True
                else:
                    outage_scan = transient()
        elif category is DomainCategory.NOLISTING:
            # Primary resolves but refuses port 25; secondary works (Figure 1).
            records.append((f"smtp.{name}", 0, next_address))
            records.append((f"smtp1.{name}", 15, next_address + 1))
            next_address += 2
        elif misc_rng.random() < config.dangling_mx_fraction:
            # MX points at a hostname with no A record anywhere.
            records.append((f"ghost.{name}", 10, None))
        else:
            # Domain exists (has an A record for www) but no MX at all.
            www = next_address
            next_address += 1

        specs.append(DomainSpec(
            name, category, rank, records, outage_scan, persistent,
            pool_id, balanced, www,
        ))
    return specs


class SyntheticInternet:
    """A generated population of mail domains with ground truth attached.

    Parameters
    ----------
    config, seed:
        Identity of the population.
    chunks:
        Chunk indices to generate; ``None`` builds the full population.
        Use :meth:`shard` for the explicit worker-side constructor.
    """

    def __init__(
        self,
        config: PopulationConfig,
        seed: int,
        chunks: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.zones = ZoneStore()
        self.domains: List[DomainTruth] = []
        # One-time ground-truth indexes, maintained during generation so the
        # accessors below never rescan the population.  Categories are fixed
        # at generation (planting only moves ranks), so nothing here needs
        # invalidation.
        self._truth_counts: Dict[DomainCategory, int] = {
            c: 0 for c in DomainCategory
        }
        self._by_category: Dict[DomainCategory, List[DomainTruth]] = {
            c: [] for c in DomainCategory
        }
        self._mail_addresses: List[IPv4Address] = []
        self._listening: Dict[IPv4Address, bool] = {}
        #: Provider pools already provisioned (zone + glue + listeners).
        self._provider_pools: set = set()
        #: address -> scan index during which it is spuriously down
        self._down_during_scan: Dict[IPv4Address, int] = {}
        network = IPv4Network.parse(config.address_space)
        if config.num_chunks * config.chunk_address_stride > network.num_addresses:
            raise ValueError(
                f"address space {config.address_space} too small for "
                f"{config.num_domains} domains in chunks of {config.chunk_size}"
            )
        plan = PopulationPlan(config, seed)
        if chunks is None:
            self.chunk_indices: List[int] = list(range(plan.num_chunks))
        else:
            self.chunk_indices = sorted(set(int(c) for c in chunks))
        for chunk_index in self.chunk_indices:
            for spec in chunk_specs(plan, chunk_index):
                self._build(spec)

    @classmethod
    def shard(
        cls,
        config: PopulationConfig,
        seed: int,
        chunks: Iterable[int],
    ) -> "SyntheticInternet":
        """Generate only the given chunks of the population.

        The returned internet holds exactly the domains (and zones,
        addresses, outage schedules) those chunks hold in the full
        population — a worker-sized, bit-identical slice.
        """
        return cls(config, seed, chunks=list(chunks))

    def _build(self, spec: DomainSpec) -> None:
        """Publish one spec: zone, glue, listeners, outages, ground truth."""
        truth = DomainTruth(
            name=spec.name,
            category=spec.category,
            outage_scan=spec.outage_scan,
            persistent_outage=spec.persistent,
            alexa_rank=spec.rank,
            provider_pool=spec.pool_id,
            pool_balanced=spec.pool_balanced,
        )
        if spec.pool_id is not None:
            self._ensure_provider_pool(spec.pool_id)
        zone = self.zones.get_or_create(spec.name)
        for position, (hostname, preference, value) in enumerate(spec.records):
            address = None if value is None else IPv4Address(value)
            if address is not None and spec.pool_id is None:
                # Self-hosted exchanger: its own glue and listener.  A
                # nolisting primary resolves but refuses port 25.
                zone.add_a(hostname, address)
                self._listening[address] = not (
                    position == 0 and spec.category is DomainCategory.NOLISTING
                )
                self._mail_addresses.append(address)
            zone.add_mx(preference, hostname)
            truth.mx_hosts.append((hostname, preference, address))
        if spec.www is not None:
            zone.add_a(f"www.{spec.name}", IPv4Address(spec.www))
        primary = truth.mx_hosts[0][2] if truth.mx_hosts else None
        if primary is not None:
            if spec.persistent:
                self._listening[primary] = False
            if spec.outage_scan is not None:
                self._down_during_scan[primary] = spec.outage_scan
        self.domains.append(truth)
        self._truth_counts[spec.category] += 1
        self._by_category[spec.category].append(truth)

    def _ensure_provider_pool(self, pool_id: int) -> None:
        """Provision pool ``pool_id``'s zone, glue and listeners once."""
        if pool_id in self._provider_pools:
            return
        self._provider_pools.add(pool_id)
        zone = self.zones.get_or_create(provider_pool_apex(pool_id))
        for slot in range(POOL_HOSTS):
            address = IPv4Address(provider_pool_address(pool_id, slot))
            zone.add_a(provider_pool_host(pool_id, slot), address)
            self._listening[address] = True
            self._mail_addresses.append(address)

    # ------------------------------------------------------------------
    # Scan-time views
    # ------------------------------------------------------------------
    def is_listening(self, address: IPv4Address, scan_index: int) -> bool:
        """TCP/25 reachability of ``address`` as seen by scan ``scan_index``."""
        if not self._listening.get(address, False):
            return False
        return self._down_during_scan.get(address) != scan_index

    def all_mail_addresses(self) -> List[IPv4Address]:
        """Every address allocated to an MX host (the scan's address space).

        Answered from the index built during generation — allocation order,
        which matches the old population walk exactly.
        """
        return list(self._mail_addresses)

    # ------------------------------------------------------------------
    # Ground truth helpers (for validating the pipeline)
    # ------------------------------------------------------------------
    def truth_counts(self) -> Dict[DomainCategory, int]:
        """Category counts, maintained incrementally during generation."""
        return dict(self._truth_counts)

    def domains_in(self, category: DomainCategory) -> List[DomainTruth]:
        """Generated domains of one category, via the one-time index."""
        return list(self._by_category[category])

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def __repr__(self) -> str:
        return (
            f"SyntheticInternet(domains={self.num_domains}, seed={self.seed})"
        )
