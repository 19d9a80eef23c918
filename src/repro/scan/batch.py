"""Equivalence-class batch engine for the adoption scan (paper §IV.A).

The per-object shard task builds an authoritative DNS zone, a resolver and
a banner-grab probe for every domain — then throws almost all of it away,
because classification only consumes a handful of bits per domain: the MX
topology shape, which records arrived without glue, and which addresses
answered on port 25.  This module computes exactly those bits directly
from the deterministic draw streams, files every domain of a chunk under
its outcome-determining *class key*

    (ground-truth category, scan-0 shape, scan-1 shape,
     coverage and repair contributions)

and runs the **real** classifiers (:func:`repro.scan.detect.
classify_single_scan` / :func:`~repro.scan.detect.classify_two_scans`)
once per distinct shape on a synthesized representative observation.  The
result dict is bit-for-bit identical to
:func:`repro.runner.shards.adoption_shard_task` for the same payload — a
property the integration suite asserts over seeds, fault plans and
planted populations.

Why the replay is sound
-----------------------
Every random decision the object path makes is either

* a *generation* draw from ``seed -> "population" -> "chunk:<k>"`` in a
  fixed per-domain order (replayed here verbatim, in lockstep with
  :meth:`~repro.scan.population.SyntheticInternet._generate_chunk`),
* a *fault* draw keyed purely by ``(fault seed, kind, epoch, entity
  label)`` (stateless: skipping draws the verdict never consumes cannot
  perturb any other draw), or
* a *glue-elision* draw from the per-domain stream
  ``"elision:<scan>:<domain>"`` consumed once per glue-carrying record in
  record order (replayed verbatim).

Addresses are arithmetic, not allocated: chunk ``k`` owns the address
slice ``base + k * stride`` and hands addresses out sequentially, so the
replay tracks a counter instead of an :class:`~repro.net.address.
AddressPool`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..faults.model import FaultPlan, fault_from_params
from ..net.address import IPv4Address, IPv4Network
from ..sim.batch import BatchCounters, EquivalenceClassIndex
from ..sim.rng import RandomStream
from .datasets import DomainObservation, MXObservation, SMTPScanDataset
from .detect import (
    DomainClass,
    SingleScanVerdict,
    classify_single_scan,
    classify_two_scans,
)
from .population import (
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
    population_from_params,
    provider_pool_address,
    provider_pool_apex,
    provider_pool_host,
)

#: One MX record of a replayed domain: hostname, preference, address value
#: (``None`` for a dangling/ghost exchange) — mirrors ``DomainTruth.mx_hosts``.
_Record = Tuple[str, int, Optional[int]]

#: A single-scan shape: either ``("mxfault", kind)`` or
#: ``(n_records, n_resolved, primary_up, secondary_up)``.
_Shape = Tuple[Any, ...]


class _DomainSpec:
    """The replayed ground truth of one domain (no zones, no pools)."""

    __slots__ = (
        "name",
        "category",
        "records",
        "outage_scan",
        "persistent",
        "pool_apex",
    )

    def __init__(
        self,
        name: str,
        category: DomainCategory,
        records: List[_Record],
        outage_scan: Optional[int],
        persistent: bool,
        pool_apex: Optional[str] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.records = records
        self.outage_scan = outage_scan
        self.persistent = persistent
        self.pool_apex = pool_apex


def _replay_chunk(
    plan: PopulationPlan, config: PopulationConfig, seed: int, chunk_index: int
) -> List[_DomainSpec]:
    """Replay one chunk's generation draws without building the world.

    Draw-for-draw lockstep with :meth:`~repro.scan.population.
    SyntheticInternet._generate_chunk`; any change there must be mirrored
    here (``tests/scan/test_columnar.py`` pins the two together).  No
    zones, no address allocator, no probe state: the chunk's addresses are
    a counter over its slice and pool addresses are arithmetic in the
    provider block.
    """
    chunk_rng = RandomStream(seed, "population").split(f"chunk:{chunk_index}")
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
        # SyntheticInternet._maybe_transient for a primary with an address.
        if outage_rng.random() >= config.transient_outage_rate:
            return None
        return outage_rng.randint(0, 1)

    specs: List[_DomainSpec] = []
    for _, name, category, _rank in plan.chunk_rows(chunk_index):
        records: List[_Record] = []
        outage_scan: Optional[int] = None
        persistent = False
        pool_apex: Optional[str] = None

        if category is DomainCategory.SINGLE_MX:
            records.append((f"smtp.{name}", 10, next_address))
            next_address += 1
            outage_scan = transient()
        elif category is DomainCategory.MULTI_MX:
            count = mx_rng.weighted_index(list(config.extra_mx_weights)) + 2
            pooled = (
                provider_rng is not None
                and provider_rng.random() < config.provider_pool_fraction
            )
            if pooled:
                pool_id = provider_rng.randrange(config.provider_pool_count)
                balanced = (
                    provider_rng.random() < config.provider_equal_preference
                )
                for slot in range(count):
                    records.append(
                        (
                            provider_pool_host(pool_id, slot),
                            10 if balanced else 10 * (slot + 1),
                            provider_pool_address(pool_id, slot),
                        )
                    )
                pool_apex = provider_pool_apex(pool_id)
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
            records.append((f"smtp.{name}", 0, next_address))
            records.append((f"smtp1.{name}", 15, next_address + 1))
            next_address += 2
        elif misc_rng.random() < config.dangling_mx_fraction:
            records.append((f"ghost.{name}", 10, None))
        else:
            next_address += 1  # the www A record still consumes a slot

        specs.append(
            _DomainSpec(
                name=name,
                category=category,
                records=records,
                outage_scan=outage_scan,
                persistent=persistent,
                pool_apex=pool_apex,
            )
        )
    return specs


def _scan_shape(
    spec: _DomainSpec,
    scan_index: int,
    faults: Optional[FaultPlan],
    elision_root: Optional[RandomStream],
    glue_elision_rate: float,
) -> Tuple[_Shape, int]:
    """One domain's single-scan shape plus its repaired-record count."""
    if faults is not None:
        kind = faults.dns_fault(spec.name, scan_index)
        if kind is None and faults.zone_lame(spec.name):
            kind = "servfail"
        if kind is not None:
            return ("mxfault", kind), 0

    # Which records' glue survives the capture (A-query faults, then the
    # scanner's elision stream — one draw per glue-carrying record, in
    # record order, exactly as DNSScanner.scan consumes them).  Provider
    # pool exchangers live in their own zone, so their glue A query can
    # additionally hit that zone's lame delegation — a fault the domain's
    # own MX query never sees.
    pool_lame = (
        faults is not None
        and spec.pool_apex is not None
        and faults.zone_lame(spec.pool_apex)
    )
    glue_present: List[bool] = []
    for hostname, _, address in spec.records:
        if address is None:
            glue_present.append(False)  # ghost exchange: never any glue
        elif pool_lame:
            glue_present.append(False)
        elif faults is not None and faults.dns_fault(hostname, scan_index):
            glue_present.append(False)
        else:
            glue_present.append(True)
    if elision_root is not None:
        elision_rng = elision_root.split(f"elision:{scan_index}:{spec.name}")
        for i, present in enumerate(glue_present):
            if present and elision_rng.random() < glue_elision_rate:
                glue_present[i] = False

    n_records = len(spec.records)
    # The parallel re-resolve repairs every non-ghost record against a
    # healthy resolver, so post-repair resolution == "has an A record".
    n_resolved = sum(1 for (_, _, address) in spec.records if address is not None)
    repaired = sum(
        1
        for (_, _, address), present in zip(spec.records, glue_present)
        if address is not None and not present
    )

    if n_records < 2 or n_resolved < 2:
        # ONE_MX / MISCONFIGURED shapes never consult the banner grab.
        return (n_records, n_resolved, False, False), repaired

    primary_up = _address_up(spec, spec.records[0][2], scan_index, faults, True)
    secondary_up = any(
        _address_up(spec, address, scan_index, faults, False)
        for (_, _, address) in spec.records[1:]
    )
    return (n_records, n_resolved, primary_up, secondary_up), repaired


def _address_up(
    spec: _DomainSpec,
    address: Optional[int],
    scan_index: int,
    faults: Optional[FaultPlan],
    is_primary: bool,
) -> bool:
    """Is this MX address in the scan's listening set?"""
    if address is None:
        return False
    if is_primary:
        if spec.category is DomainCategory.NOLISTING:
            return False  # primary never listens — that is nolisting
        if spec.persistent or spec.outage_scan == scan_index:
            return False
    if faults is not None and faults.smtp_down(
        str(IPv4Address(address)), scan_index
    ):
        return False
    return True


def _shape_verdict(shape: _Shape) -> SingleScanVerdict:
    """Classify one shape by driving the *real* single-scan classifier.

    A representative observation (and, when the shape consults it, a
    representative banner-grab set) is synthesized so the decision runs
    through :func:`classify_single_scan` unmodified — the batch engine
    multiplies the classifier, it never reimplements it.
    """
    observation = DomainObservation(domain="representative.example")
    smtp = SMTPScanDataset(scan_index=0)
    if shape[0] == "mxfault":
        if shape[1] == "timeout":
            observation.timeout = True
        else:
            observation.servfail = True
        return classify_single_scan(observation, smtp)
    n_records, n_resolved, primary_up, secondary_up = shape
    for i in range(n_records):
        resolved = i < n_resolved
        address = IPv4Address(0x7F000001 + i) if resolved else None
        observation.mx.append(
            MXObservation(
                preference=10 * (i + 1),
                exchange=f"mx{i}.representative.example",
                address=address,
            )
        )
    if n_resolved >= 1 and primary_up:
        smtp.add(IPv4Address(0x7F000001))
    if n_resolved >= 2 and secondary_up:
        smtp.add(IPv4Address(0x7F000002))
    return classify_single_scan(observation, smtp)


def batched_adoption_shard(
    payload: Dict[str, Any], counters: Optional[BatchCounters] = None
) -> Dict[str, Any]:
    """Batched equivalent of :func:`repro.runner.shards.adoption_shard_task`.

    Accepts the same payload (minus the ``engine`` discriminator) and
    returns the identical result dict.  ``counters``, when given, is
    filled with the run's collapse accounting.
    """
    from ..core.adoption import _TRUTH_TO_CLASS

    config = population_from_params(payload["population"])
    seed = int(payload["seed"])
    chunk_index = int(payload["chunk"])
    glue_elision_rate = float(payload["glue_elision_rate"])
    faults = None
    if payload.get("faults") is not None:
        faults = FaultPlan(fault_from_params(payload["faults"]))

    plan = PopulationPlan(config, seed)
    specs = _replay_chunk(plan, config, seed, chunk_index)
    elision_root = (
        RandomStream(seed, "adoption-scan") if glue_elision_rate > 0 else None
    )

    index: EquivalenceClassIndex[Tuple[Any, ...], str] = EquivalenceClassIndex()
    for spec in specs:
        shape_a, repaired_a = _scan_shape(
            spec, 0, faults, elision_root, glue_elision_rate
        )
        shape_b, repaired_b = _scan_shape(
            spec, 1, faults, elision_root, glue_elision_rate
        )
        # Coverage figures come from the scan-0 capture only; a failed MX
        # query contributes an empty observation.
        if shape_a[0] == "mxfault":
            servers = addresses = 0
        else:
            servers = len(spec.records)
            addresses = sum(
                1 for (_, _, address) in spec.records if address is not None
            )
        key = (
            spec.category.value,
            shape_a,
            shape_b,
            servers,
            addresses,
            repaired_a + repaired_b,
        )
        index.add(key, spec.name)

    shape_memo: Dict[_Shape, SingleScanVerdict] = {}
    pair_memo: Dict[
        Tuple[SingleScanVerdict, SingleScanVerdict], DomainClass
    ] = {}
    representative_runs = 0

    def verdict_of(shape: _Shape) -> SingleScanVerdict:
        nonlocal representative_runs
        verdict = shape_memo.get(shape)
        if verdict is None:
            verdict = _shape_verdict(shape)
            shape_memo[shape] = verdict
            representative_runs += 1
        return verdict

    counts = {c: 0 for c in DomainClass}
    total = flapped = servers_covered = addresses_covered = repaired = 0
    confusion = {"correct": 0, "wrong": 0}
    nolisting_domains: List[str] = []

    for key, members in index.classes():
        category_value, shape_a, shape_b, servers, addresses, rep = key
        cardinality = len(members)
        verdict_a = verdict_of(shape_a)
        verdict_b = verdict_of(shape_b)
        pair = (verdict_a, verdict_b)
        domain_class = pair_memo.get(pair)
        if domain_class is None:
            domain_class = classify_two_scans(
                "representative.example", verdict_a, verdict_b
            ).domain_class
            pair_memo[pair] = domain_class
            representative_runs += 1
        total += cardinality
        counts[domain_class] += cardinality
        if verdict_a != verdict_b:
            flapped += cardinality
        servers_covered += servers * cardinality
        addresses_covered += addresses * cardinality
        repaired += rep * cardinality
        truth_class = _TRUTH_TO_CLASS[DomainCategory(category_value)]
        if domain_class is truth_class:
            confusion["correct"] += cardinality
        else:
            confusion["wrong"] += cardinality
        if domain_class is DomainClass.NOLISTING:
            nolisting_domains.extend(members)

    if counters is not None:
        counters.members += index.num_members
        counters.classes += index.num_classes
        counters.representative_runs += representative_runs

    return {
        "total": total,
        "counts": {c.value: counts.get(c, 0) for c in DomainClass},
        "flapped": flapped,
        "servers": servers_covered,
        "addresses": addresses_covered,
        "repaired": repaired,
        "confusion": confusion,
        "nolisting_domains": sorted(nolisting_domains),
    }
