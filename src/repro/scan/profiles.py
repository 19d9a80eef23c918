"""Named generator profiles for the synthetic-internet population.

The Figure 2 reproduction uses the paper's published category mix; two
more realism-targeted mixes come from the related measurement literature:

``figure2``
    The DSN paper's published adoption mix — the default, and byte-for-byte
    identical to populations generated before profiles existed.
``provider-consolidated``
    A third of multi-MX domains outsource mail to shared provider MX pools
    (load-balancing and fail-over layouts), following Ruohonen's MX
    measurement study of basic load-balancing/fail-over setups, which found
    heavy consolidation of exchangers onto a few providers.
``dns-abuse``
    An abuse-shaped mix per the EU DNS Abuse technical report: abusive
    registrations skew towards throwaway single-MX setups and a much larger
    misconfigured tail (dangling MX records left behind by churn).

A profile is just a :class:`~repro.scan.population.PopulationConfig`
recipe; nothing downstream branches on the name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .population import FIGURE2_MIX, DomainCategory, PopulationConfig


@dataclass(frozen=True)
class GeneratorProfile:
    """A named population recipe: mix plus generator knobs."""

    name: str
    description: str
    mix: Dict[DomainCategory, float] = field(
        default_factory=lambda: dict(FIGURE2_MIX)
    )
    transient_outage_rate: float = 0.004
    persistent_outage_rate: float = 0.0
    dangling_mx_fraction: float = 0.5
    extra_mx_weights: Tuple[float, float, float] = (0.72, 0.2, 0.08)
    provider_pool_fraction: float = 0.0
    provider_pool_count: int = 8
    provider_equal_preference: float = 0.3

    def config(self, num_domains: int, **overrides: object) -> PopulationConfig:
        """Materialize the profile as a :class:`PopulationConfig`."""
        kwargs: Dict[str, object] = {
            "num_domains": num_domains,
            "mix": dict(self.mix),
            "transient_outage_rate": self.transient_outage_rate,
            "persistent_outage_rate": self.persistent_outage_rate,
            "dangling_mx_fraction": self.dangling_mx_fraction,
            "extra_mx_weights": self.extra_mx_weights,
            "provider_pool_fraction": self.provider_pool_fraction,
            "provider_pool_count": self.provider_pool_count,
            "provider_equal_preference": self.provider_equal_preference,
            "profile": self.name,
        }
        kwargs.update(overrides)
        return PopulationConfig(**kwargs)  # type: ignore[arg-type]


#: Registry of the named profiles, in definition order.
PROFILES: Dict[str, GeneratorProfile] = {
    profile.name: profile
    for profile in (
        GeneratorProfile(
            name="figure2",
            description="the DSN paper's published Figure 2 adoption mix",
        ),
        GeneratorProfile(
            name="provider-consolidated",
            description=(
                "multi-MX domains heavily outsourced to shared provider "
                "MX pools (Ruohonen's load-balancing/fail-over measurement)"
            ),
            provider_pool_fraction=0.35,
            provider_pool_count=8,
            provider_equal_preference=0.3,
        ),
        GeneratorProfile(
            name="dns-abuse",
            description=(
                "abuse-shaped registrations: throwaway single-MX setups "
                "and a large dangling-MX tail (EU DNS Abuse study)"
            ),
            mix={
                DomainCategory.SINGLE_MX: 0.62,
                DomainCategory.MULTI_MX: 0.22,
                DomainCategory.MISCONFIGURED: 0.155,
                DomainCategory.NOLISTING: 0.005,
            },
            transient_outage_rate=0.008,
            dangling_mx_fraction=0.75,
        ),
    )
}

def profile_config(
    name: str, num_domains: int, **overrides: object
) -> PopulationConfig:
    """Build the :class:`PopulationConfig` of profile ``name``.

    >>> profile_config("figure2", 100).provider_pool_fraction
    0.0
    >>> profile_config("provider-consolidated", 100).profile
    'provider-consolidated'
    """
    profile = PROFILES.get(name)
    if profile is None:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown generator profile {name!r} (known: {known})")
    return profile.config(num_domains, **overrides)
