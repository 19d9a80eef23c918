"""Alexa-style popularity ranking of the synthetic population.

The paper cross-checks the detected nolisting domains against the Alexa
ranking and finds adopters among the very largest sites (one in the top 15,
two in the top 500, two more in the top 1000).  The generator assigns every
domain a rank; this module plants nolisting adopters at paper-matching
ranks and answers the cross-check queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, MutableSequence, Sequence

from .detect import DomainClass, DomainVerdict
from .population import DomainCategory, SyntheticInternet

#: The paper's observation: ranks at which nolisting adopters were found.
PAPER_NOLISTING_RANKS: Sequence[int] = (13, 214, 402, 731, 904)


def plant_popular_nolisting(
    internet: SyntheticInternet, ranks: Sequence[int] = PAPER_NOLISTING_RANKS
) -> List[str]:
    """Force ``len(ranks)`` nolisting domains to hold the given Alexa ranks.

    Swaps ranks between the chosen nolisting domains and whichever domains
    currently hold the target ranks, keeping the rank assignment a
    permutation.  Returns the planted domain names.
    """
    domains = internet.domains
    column = [truth.alexa_rank for truth in domains]
    nolisting = [
        index
        for index, truth in enumerate(domains)
        if truth.category is DomainCategory.NOLISTING
    ]
    planted = plant_ranks(nolisting, column, ranks)
    for truth, rank in zip(domains, column):
        truth.alexa_rank = rank
    return [domains[index].name for index in planted]


def plant_ranks(
    nolisting: Sequence[int],
    ranks: MutableSequence[int],
    targets: Sequence[int] = PAPER_NOLISTING_RANKS,
) -> List[int]:
    """Re-rank a rank column so nolisting domains hold the ``targets``.

    ``ranks[i]`` is domain ``i``'s rank and is swapped in place;
    ``nolisting`` lists the nolisting domains' indices in domain order.
    Returns the planted indices.  The outcome depends only on (order,
    categories, ranks), so the coordinator planting the
    :class:`~repro.scan.population.PopulationPlan`'s column and a full
    :class:`SyntheticInternet` planting its ground truth assign identical
    ranks.
    """
    if len(nolisting) < len(targets):
        raise ValueError(
            f"population has only {len(nolisting)} nolisting domains, "
            f"cannot plant {len(targets)}"
        )
    is_nolisting = set(nolisting)
    rank_holder: Dict[int, int] = {
        rank: index for index, rank in enumerate(ranks)
    }

    def swap(index: int, other: int) -> None:
        ranks[index], ranks[other] = ranks[other], ranks[index]
        rank_holder[ranks[index]] = index
        rank_holder[ranks[other]] = other

    # First evict accidental adopters from the popular band: in a population
    # of this size the rank space is small relative to the real internet's,
    # so the uniform shuffle seeds the top-1000 with far more nolisting
    # domains than the 0.52 % base rate would on 135 M domains.  Swap them
    # out so the popular band holds exactly the planted structure.
    popular_band = max(targets) + 100
    swap_rank = len(ranks)
    for index in nolisting:
        if ranks[index] > popular_band:
            continue
        while swap_rank > popular_band:
            candidate = rank_holder.get(swap_rank)
            if candidate is not None and candidate not in is_nolisting:
                break
            swap_rank -= 1
        else:  # pragma: no cover - population would have to be tiny
            break
        swap(index, rank_holder[swap_rank])
        swap_rank -= 1

    for index, rank in zip(nolisting, targets):
        other = rank_holder[rank]
        if other != index:
            swap(index, other)
    return list(nolisting[: len(targets)])


@dataclass
class PopularityCrossCheck:
    """The 'nolisting among popular domains' result."""

    top15: int
    top500: int
    top1000: int
    ranked_adopters: List[int]


def crosscheck_popularity(
    internet: SyntheticInternet, verdicts: List[DomainVerdict]
) -> PopularityCrossCheck:
    """Count detected nolisting adopters within the Alexa top-N buckets."""
    rank_of = {truth.name: truth.alexa_rank for truth in internet.domains}
    adopter_ranks = sorted(
        rank_of[v.domain]
        for v in verdicts
        if v.domain_class is DomainClass.NOLISTING and rank_of.get(v.domain)
    )
    return crosscheck_from_ranks(adopter_ranks)


def crosscheck_from_ranks(
    adopter_ranks: Sequence[int],
) -> PopularityCrossCheck:
    """Bucket already-resolved adopter ranks (the shard-merge path)."""
    ranked = sorted(adopter_ranks)
    return PopularityCrossCheck(
        top15=sum(1 for r in ranked if r <= 15),
        top500=sum(1 for r in ranked if r <= 500),
        top1000=sum(1 for r in ranked if r <= 1000),
        ranked_adopters=ranked,
    )
