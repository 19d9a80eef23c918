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
each built from its own RNG sub-stream (``seed -> "chunk:<k>"``) and its own
disjoint slice of the address space.  A chunk's content therefore depends
only on ``(config, seed, chunk index)`` — never on which other chunks were
generated in the same process — which is what lets the parallel experiment
runner hand each worker a disjoint slice of the population
(:meth:`SyntheticInternet.shard`) and still merge results bit-for-bit
identical to a serial run.
"""

from __future__ import annotations

import enum
import functools
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..dns.zone import ZoneStore
from ..net.address import AddressPool, IPv4Address, IPv4Network
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
#: ``base + k * POOL_HOSTS + i`` — so the batch replay never needs
#: an allocator to know them.
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


@dataclass
class PlannedDomain:
    """The cheap part of one domain's ground truth: name, category, rank.

    Everything a coordinator needs to shard, plant popular adopters and
    merge results — without paying for zones, addresses or outage draws.
    """

    index: int
    name: str
    category: DomainCategory
    alexa_rank: int


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

    The plan's authoritative storage is *columnar*: an ``array('B')`` of
    category codes and an ``array('I')`` of ranks.  :class:`PlannedDomain`
    objects are materialized lazily (and at most once) when somebody asks
    for :attr:`domains`; the batched engines and worker-side generators
    read :meth:`chunk_rows` instead and never pay for the object layer.
    A category index and the ground-truth counts are built with the
    columns — categories never change after planning, so they need no
    invalidation; the name->rank map is cached and dropped by
    :meth:`plant`.

    The columns, counts and index form the plan's read-only layout, which
    is memoised per process (see :func:`_plan_layout`): constructing a plan
    for a population this process has just planned costs nothing, which is
    what lets every shard build its own.  Planting and the caches stay on
    the instance, so one plan's :meth:`plant` never reaches another.
    """

    def __init__(self, config: PopulationConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        mix = tuple(sorted(config.mix.items(), key=lambda item: item[0].value))
        self._layout = _plan_layout(config.num_domains, mix, seed)
        self._domains: Optional[List[PlannedDomain]] = None
        self._rank_cache: Optional[Dict[str, int]] = None

    @staticmethod
    def name_of(index: int) -> str:
        """The (purely positional) name of domain ``index``."""
        return f"dom{index:07d}.example"

    @property
    def domains(self) -> List[PlannedDomain]:
        """The object view of the plan, materialized on first access."""
        if self._domains is None:
            ranks = self._layout.ranks
            self._domains = [
                PlannedDomain(
                    index=index,
                    name=self.name_of(index),
                    category=CATEGORY_ORDER[code],
                    alexa_rank=ranks[index],
                )
                for index, code in enumerate(self._layout.codes)
            ]
        return self._domains

    @property
    def num_chunks(self) -> int:
        return self.config.num_chunks

    def chunk(self, chunk_index: int) -> List[PlannedDomain]:
        """The planned domains of chunk ``chunk_index`` (object view)."""
        self._check_chunk(chunk_index)
        size = self.config.chunk_size
        return self.domains[chunk_index * size: (chunk_index + 1) * size]

    def chunk_rows(self, chunk_index: int) -> List[Tuple[int, str, DomainCategory, int]]:
        """Chunk contents as cheap ``(index, name, category, rank)`` rows.

        Reads straight from the columnar arrays, so a worker generating one
        shard never materializes the full object plan.  Falls back to the
        object view when it exists, because planting mutates object ranks.
        """
        self._check_chunk(chunk_index)
        size = self.config.chunk_size
        start = chunk_index * size
        stop = min(start + size, self.config.num_domains)
        if self._domains is not None:
            return [
                (d.index, d.name, d.category, d.alexa_rank)
                for d in self._domains[start:stop]
            ]
        codes, ranks = self._layout.codes, self._layout.ranks
        return [
            (i, self.name_of(i), CATEGORY_ORDER[codes[i]], ranks[i])
            for i in range(start, stop)
        ]

    def _check_chunk(self, chunk_index: int) -> None:
        if not 0 <= chunk_index < self.num_chunks:
            raise ValueError(
                f"chunk {chunk_index} out of range [0, {self.num_chunks})"
            )

    def truth_counts(self) -> Dict[DomainCategory, int]:
        """Exact category counts, precomputed at planning time."""
        return dict(self._layout.counts)

    def domains_in(self, category: DomainCategory) -> List[PlannedDomain]:
        """Planned domains of one category, via the one-time index."""
        domains = self.domains
        return [domains[i] for i in self._layout.index_by_category[category]]

    def count_in(self, category: DomainCategory) -> int:
        """Category cardinality without materializing any objects."""
        return self._layout.counts[category]

    def rank_of(self) -> Dict[str, int]:
        """Domain name -> current Alexa rank (reflects any planting).

        Cached after the first call; :meth:`plant` (or an explicit
        :meth:`invalidate_rank_cache`) drops the cache when ranks move.
        Treat the returned mapping as read-only.
        """
        if self._rank_cache is None:
            if self._domains is None:
                self._rank_cache = {
                    self.name_of(i): rank
                    for i, rank in enumerate(self._layout.ranks)
                }
            else:
                self._rank_cache = {
                    d.name: d.alexa_rank for d in self._domains
                }
        return self._rank_cache

    def plant(self, ranks: Sequence[int]) -> List[str]:
        """Plant nolisting adopters at ``ranks`` and invalidate rank caches.

        The one sanctioned way to re-rank a plan: callers that reach for
        :func:`repro.scan.alexa.plant_ranks` directly bypass the cache
        invalidation and will read stale :meth:`rank_of` answers.
        """
        from .alexa import plant_ranks  # deferred: alexa imports this module

        planted = plant_ranks(self.domains, ranks)
        self.invalidate_rank_cache()
        return planted

    def invalidate_rank_cache(self) -> None:
        """Forget the memoized name->rank map after external rank edits."""
        self._rank_cache = None


class SyntheticInternet:
    """A generated population of mail domains with ground truth attached.

    Parameters
    ----------
    config, seed:
        Identity of the population.
    chunks:
        Chunk indices to generate; ``None`` builds the full population.
        Use :meth:`shard` for the explicit worker-side constructor.
    plan:
        Pre-computed :class:`PopulationPlan` to reuse (must match
        ``(config, seed)``); avoids re-planning when the caller already
        holds one.
    """

    def __init__(
        self,
        config: PopulationConfig,
        seed: int,
        chunks: Optional[Sequence[int]] = None,
        plan: Optional[PopulationPlan] = None,
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
        self._pool = AddressPool(network)
        self.plan = plan if plan is not None else PopulationPlan(config, seed)
        if chunks is None:
            self.chunk_indices: List[int] = list(range(self.plan.num_chunks))
        else:
            self.chunk_indices = sorted(set(int(c) for c in chunks))
        root = RandomStream(seed, "population")
        for chunk_index in self.chunk_indices:
            self._generate_chunk(root, chunk_index)

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

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _generate_chunk(self, root: RandomStream, chunk_index: int) -> None:
        """Build one chunk from its own RNG streams and address slice."""
        chunk_rng = root.split(f"chunk:{chunk_index}")
        outage_rng = chunk_rng.split("outages")
        mx_rng = chunk_rng.split("mx-count")
        misc_rng = chunk_rng.split("misconfig")
        # The provider stream exists (and is drawn from) only when pools are
        # enabled, so pool-free populations remain bit-identical to releases
        # that predate provider pools.
        provider_rng = (
            chunk_rng.split("provider")
            if self.config.provider_pool_fraction > 0
            else None
        )
        pool = self._pool.subpool(
            chunk_index * self.config.chunk_address_stride,
            self.config.chunk_address_stride,
        )

        for _, name, category, rank in self.plan.chunk_rows(chunk_index):
            truth = DomainTruth(
                name=name,
                category=category,
                alexa_rank=rank,
            )
            if category is DomainCategory.SINGLE_MX:
                self._build_single(truth, pool)
                self._maybe_transient(truth, outage_rng)
            elif category is DomainCategory.MULTI_MX:
                self._build_multi(truth, pool, mx_rng, provider_rng)
                if truth.provider_pool is not None:
                    # Pool exchangers are shared across domains; per-domain
                    # outage draws would couple unrelated domains through a
                    # common address, so pool-hosted domains take none.
                    pass
                elif outage_rng.random() < self.config.persistent_outage_rate:
                    self._apply_persistent_outage(truth)
                else:
                    self._maybe_transient(truth, outage_rng)
            elif category is DomainCategory.NOLISTING:
                self._build_nolisting(truth, pool)
            else:
                self._build_misconfigured(truth, pool, misc_rng)
            self.domains.append(truth)
            self._truth_counts[category] += 1
            self._by_category[category].append(truth)

    def _allocate_mx(
        self,
        truth: DomainTruth,
        pool: AddressPool,
        label: str,
        preference: int,
        listening: bool,
    ) -> IPv4Address:
        address = pool.allocate()
        hostname = f"{label}.{truth.name}"
        zone = self.zones.get_or_create(truth.name)
        zone.add_a(hostname, address)
        zone.add_mx(preference, hostname)
        truth.mx_hosts.append((hostname, preference, address))
        self._listening[address] = listening
        self._mail_addresses.append(address)
        return address

    def _build_single(self, truth: DomainTruth, pool: AddressPool) -> None:
        self._allocate_mx(truth, pool, "smtp", 10, listening=True)

    def _build_multi(
        self,
        truth: DomainTruth,
        pool: AddressPool,
        rng: RandomStream,
        provider_rng: Optional[RandomStream] = None,
    ) -> None:
        extra = rng.weighted_index(list(self.config.extra_mx_weights)) + 1
        if provider_rng is not None:
            # Fixed draw order (membership, pool id, layout) so the batch
            # replay can mirror this stream draw-for-draw.
            if provider_rng.random() < self.config.provider_pool_fraction:
                pool_id = provider_rng.randrange(self.config.provider_pool_count)
                balanced = (
                    provider_rng.random() < self.config.provider_equal_preference
                )
                self._attach_provider_pool(truth, pool_id, extra + 1, balanced)
                return
        self._allocate_mx(truth, pool, "smtp", 10, listening=True)
        for i in range(extra):
            self._allocate_mx(
                truth, pool, f"smtp{i + 1}", 10 * (i + 2), listening=True
            )

    def _attach_provider_pool(
        self, truth: DomainTruth, pool_id: int, count: int, balanced: bool
    ) -> None:
        """Point ``truth`` at ``count`` exchangers of a shared provider pool.

        Fail-over pools advertise ascending preferences (10, 20, ...); load
        balanced pools advertise every exchanger at preference 10, relying
        on the scanner's ``(preference, exchange)`` tie-break — slot order,
        by construction of :func:`provider_pool_host` — for determinism.
        """
        self._ensure_provider_pool(pool_id)
        zone = self.zones.get_or_create(truth.name)
        for slot in range(count):
            hostname = provider_pool_host(pool_id, slot)
            preference = 10 if balanced else 10 * (slot + 1)
            zone.add_mx(preference, hostname)
            truth.mx_hosts.append(
                (hostname, preference, IPv4Address(provider_pool_address(pool_id, slot)))
            )
        truth.provider_pool = pool_id
        truth.pool_balanced = balanced

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

    def _build_nolisting(self, truth: DomainTruth, pool: AddressPool) -> None:
        # Primary resolves but refuses port 25; secondary works (Figure 1).
        self._allocate_mx(truth, pool, "smtp", 0, listening=False)
        self._allocate_mx(truth, pool, "smtp1", 15, listening=True)

    def _build_misconfigured(
        self, truth: DomainTruth, pool: AddressPool, rng: RandomStream
    ) -> None:
        zone = self.zones.get_or_create(truth.name)
        if rng.random() < self.config.dangling_mx_fraction:
            # MX points at a hostname with no A record anywhere.
            hostname = f"ghost.{truth.name}"
            zone.add_mx(10, hostname)
            truth.mx_hosts.append((hostname, 10, None))
        else:
            # Domain exists (has an A record for www) but no MX at all.
            zone.add_a(f"www.{truth.name}", pool.allocate())

    def _maybe_transient(self, truth: DomainTruth, rng: RandomStream) -> None:
        if rng.random() >= self.config.transient_outage_rate:
            return
        primary = truth.primary
        if primary is None or primary[2] is None:
            return
        scan_index = rng.randint(0, 1)
        truth.outage_scan = scan_index
        self._down_during_scan[primary[2]] = scan_index

    def _apply_persistent_outage(self, truth: DomainTruth) -> None:
        primary = truth.primary
        if primary is None or primary[2] is None:
            return
        truth.persistent_outage = True
        self._listening[primary[2]] = False

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
