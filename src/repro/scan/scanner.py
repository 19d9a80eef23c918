"""Simulated zmap scanners.

:class:`DNSScanner` performs the DNS-ANY sweep over the population —
including the imperfection the paper had to patch: a fraction of MX answers
arrive without the exchange's glue A record.  Its
:meth:`DNSScanner.parallel_resolve` implements the authors' follow-up
scanner that re-resolves those entries.

:class:`SMTPScanner` performs the SYN/banner sweep of port 25 over an
address list, producing the listening-host set.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..dns.resolver import DNSTimeout, NXDomain, ServFail, StubResolver
from ..faults.model import FaultPlan
from ..net.address import IPv4Address
from ..sim.rng import RandomStream
from .datasets import (
    DNSScanDataset,
    DomainObservation,
    MXObservation,
    SMTPScanDataset,
)
from .population import SyntheticInternet


def surviving_glue(
    rng: RandomStream,
    rate: float,
    scan_index: int,
    domain: str,
    glue: Sequence[bool],
) -> List[bool]:
    """Which of a domain's glue A records survive the capture's elision.

    ``glue[i]`` says whether MX record ``i`` arrived with glue.  Each such
    record is elided with probability ``rate`` by one draw from the
    domain's own stream ``"elision:<scan>:<domain>"`` of ``rng``, in
    record order; records without glue draw nothing.  Whether a record's
    glue is elided therefore depends only on (seed, scan, domain, record
    order).  :class:`DNSScanner` and the batch engine
    (:mod:`repro.scan.batch`) both call this, so the draws have one owner.
    """
    stream = rng.split(f"elision:{scan_index}:{domain}")
    return [present and stream.random() >= rate for present in glue]


class DNSScanner:
    """Sweeps every domain of a population with an ANY query.

    Parameters
    ----------
    internet:
        The population under measurement.
    glue_elision_rate:
        Fraction of MX answers whose glue A record is dropped from the
        capture (the scans.io dataset's "not properly resolved" entries).
    faults:
        Optional :class:`~repro.faults.model.FaultPlan`.  Resolution then
        suffers SERVFAIL/timeout bursts and lame delegations, drawn per
        ``(domain, scan index)`` — independently per scan, which is the
        transient-failure mode the two-scan protocol filters.
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        glue_elision_rate: float = 0.1,
        rng: Optional[RandomStream] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if not 0.0 <= glue_elision_rate <= 1.0:
            raise ValueError("glue_elision_rate must lie in [0, 1]")
        if glue_elision_rate > 0 and rng is None:
            raise ValueError("glue elision requires an rng")
        self.internet = internet
        self.glue_elision_rate = glue_elision_rate
        self.rng = rng
        self.faults = faults

    def scan(self, scan_index: int) -> DNSScanDataset:
        """Capture the population's DNS state as a materialized dataset.

        Glue elision is drawn per domain (:func:`surviving_glue`), so
        scanning a shard of the population captures exactly what a full
        scan would for the same domains, which the parallel runner's merge
        relies on.
        """
        dataset = DNSScanDataset(scan_index=scan_index)
        resolver = StubResolver(
            self.internet.zones, faults=self.faults, fault_epoch=scan_index
        )
        for truth in self.internet.domains:
            observation = DomainObservation(domain=truth.name)
            dataset.add(observation)
            try:
                answer = resolver.resolve_mx(truth.name)
            except NXDomain:
                observation.nxdomain = True
                continue
            except DNSTimeout:
                observation.timeout = True
                continue
            except ServFail:
                observation.servfail = True
                continue
            addresses: List[Optional[IPv4Address]] = [
                answer.additional.get(mx.exchange) for mx in answer.records
            ]
            if self.rng is not None and self.glue_elision_rate > 0:
                kept = surviving_glue(
                    self.rng,
                    self.glue_elision_rate,
                    scan_index,
                    truth.name,
                    [address is not None for address in addresses],
                )
                addresses = [
                    address if keep else None
                    for address, keep in zip(addresses, kept)
                ]
            for mx, address in zip(answer.records, addresses):
                observation.mx.append(
                    MXObservation(
                        preference=mx.preference,
                        exchange=mx.exchange,
                        address=address,
                    )
                )
        return dataset

    def parallel_resolve(self, dataset: DNSScanDataset) -> int:
        """Re-resolve MX entries captured without an address.

        This is the paper's "parallel scanner": for every MX record whose
        reply "only contains the domain name of the mail server but not its
        IP address", issue the missing A query.  Returns how many entries
        were repaired.  Dangling exchanges (no A record anywhere) stay
        unresolved — those are genuine misconfigurations.

        The parallel scanner runs after the sweep, outside the scan's
        fault window, so it resolves against a healthy resolver — faults
        belong to the capture, not to the repair pass.
        """
        resolver = StubResolver(self.internet.zones)
        repaired = 0
        for observation in dataset:
            for record in observation.mx:
                if record.resolved:
                    continue
                try:
                    record.address = resolver.resolve_address(record.exchange)
                    repaired += 1
                except (NXDomain, ServFail):
                    continue
        return repaired


class SMTPScanner:
    """SYN-scans a list of addresses on TCP/25 (the banner grab).

    With a :class:`~repro.faults.model.FaultPlan` attached, addresses may
    additionally appear down during a scan — a host downtime window or a
    port-25 flap, drawn per ``(address, scan index)``.  A SYN probe cannot
    distinguish the two, and neither can the paper's pipeline; that is
    exactly why the measurement is repeated two months later.
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.internet = internet
        self.faults = faults

    def scan(
        self,
        scan_index: int,
        addresses: Optional[Iterable[IPv4Address]] = None,
    ) -> SMTPScanDataset:
        """Probe ``addresses`` (default: the population's full mail space)."""
        if addresses is None:
            addresses = self.internet.all_mail_addresses()
        dataset = SMTPScanDataset(scan_index=scan_index)
        for address in addresses:
            dataset.probed += 1
            if not self.internet.is_listening(address, scan_index):
                continue
            if self.faults is not None and self.faults.smtp_down(
                str(address), scan_index
            ):
                continue
            dataset.add(address)
        return dataset
