"""Equivalence-class batch engine for the adoption scan (paper §IV.A).

The per-object shard task builds an authoritative DNS zone, a resolver and
a banner-grab probe for every domain — then throws almost all of it away,
because classification only consumes a handful of bits per domain: the MX
topology shape, which records arrived without glue, and which addresses
answered on port 25.  This module computes exactly those bits directly
from the chunk's domain specs, files every domain of a chunk under
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

Why the shortcut is sound
-------------------------
Every random decision the object path makes is either

* a *generation* draw, made once per chunk by
  :func:`~repro.scan.population.chunk_specs` — the object engine builds
  its world from the very :class:`~repro.scan.population.DomainSpec`
  values this module classifies, so there is nothing to keep in step;
* a *fault* draw keyed purely by ``(fault seed, kind, epoch, entity
  label)`` (stateless: skipping draws the verdict never consumes cannot
  perturb any other draw); or
* a *glue-elision* draw, made by :func:`~repro.scan.scanner.
  surviving_glue` for both engines from the per-domain stream
  ``"elision:<scan>:<domain>"``.

What this module reimplements is the *interpretation* of a spec — which
records resolve, which addresses answer on port 25 — and the object
engine (zones, resolver, banner grab, detector) stays the reference for
it: the equivalence suites compare the two, and golden digests pin the
draws both read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..faults.model import FaultPlan, fault_from_params
from ..net.address import IPv4Address
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
    DomainSpec,
    PopulationPlan,
    chunk_specs,
    population_from_params,
    provider_pool_apex,
)
from .scanner import surviving_glue

#: A single-scan shape: either ``("mxfault", kind)`` or
#: ``(n_records, n_resolved, primary_up, secondary_up)``.
_Shape = Tuple[Any, ...]


def _scan_shape(
    spec: DomainSpec,
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

    # Which records' glue survives the capture: A-query faults, then the
    # scanner's own elision draws (surviving_glue).  Provider
    # pool exchangers live in their own zone, so their glue A query can
    # additionally hit that zone's lame delegation — a fault the domain's
    # own MX query never sees.
    pool_lame = (
        faults is not None
        and spec.pool_id is not None
        and faults.zone_lame(provider_pool_apex(spec.pool_id))
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
        glue_present = surviving_glue(
            elision_root, glue_elision_rate, scan_index, spec.name, glue_present
        )

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
    spec: DomainSpec,
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

    specs = chunk_specs(PopulationPlan(config, seed), chunk_index)
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
