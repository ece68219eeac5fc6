"""Small builders and measures that only tests need.

``word_length`` and ``gog_word_power`` make and measure path words for the
closed-word and lifting tests; ``lifts_over`` lists a morphism's lifts of a
base vertex in name order.  ``subgroup_contains`` tests inclusion of
finite-index subgroups on their Schreier bases.
"""

from typing import List

from gfgcover.cosets import CosetTable, contains, schreier
from gfgcover.covers import PrecoverMorphism
from gfgcover.gog import GogWord, GraphOfGroups


def word_length(gw: GogWord) -> int:
    """Total letter count: syllable letters plus one per crossing."""
    return sum(len(w) for w in gw.syllables) + len(gw.crossings)


def gog_word_power(g: GraphOfGroups, gw: GogWord, k: int) -> GogWord:
    """k-th power of a closed path word, merging the seam syllables."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if not gw.is_closed(g):
        raise ValueError("only closed path words have powers")
    syllables = list(gw.syllables)
    crossings = list(gw.crossings)
    for _ in range(k - 1):
        syllables[-1] = syllables[-1] * gw.syllables[0]
        syllables.extend(gw.syllables[1:])
        crossings.extend(gw.crossings)
    return GogWord(gw.start, tuple(syllables), tuple(crossings))


def lifts_over(m: PrecoverMorphism, b: str) -> List[str]:
    return sorted(v for v in m.vertex_map if m.vertex_map[v] == b)


def subgroup_contains(big: CosetTable, small: CosetTable) -> bool:
    """Whether the subgroup of ``small`` lies inside the subgroup of ``big``."""
    if big.rank != small.rank:
        raise ValueError("rank mismatch")
    return all(contains(big, g) for g in schreier(small).basis)
