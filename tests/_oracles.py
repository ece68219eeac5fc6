"""Slow reference implementations kept as test oracles.

``isomorphic_oracle`` is the unpruned backtracking isomorphism test of
precover morphisms: it tries every fiberwise assignment of lifts, with
table isomorphisms regenerated on every branch, and checks the edge
assignments only once every lift is mapped.  ``gfgcover.covers.isomorphic``
(equal canonical codes) must give the same yes/no answer on every pair of
morphisms.

``candidate_covers`` builds every connected cover the matching engine
finds, before any dedup; ``enumerate_covers_oracle`` dedups them by
``isomorphic_oracle`` within buckets of equal lift, pair and slot counts,
keeping the first of each class.  ``gfgcover.covers.enumerate_covers`` must
yield the same representatives in the same order.

``enumerate_closed_words_oracle`` runs one depth-first pass to the length
cap and sorts all its words by length; ``gfgcover.gog.enumerate_closed_words``
must yield the same sequence.

``prescribe_degrees_oracle`` scans every candidate of the abelian phases,
including the quotients in which the exponent sums already rule out the
prescribed degrees; ``gfgcover.cosets.prescribe_degrees`` must return the
same result, or None, on every input.

``torsion_piece_oracle`` is the torsion-piece search that splits every
candidate cyclic lift along every one-against-the-rest partition of its
edges and reads each split's certificate off a full Smith form, with a unit
row per killed generator.  ``gfgcover.covers.find_torsion_piece``, which
tests each lift on its unsplit cover and splits only the hit, must return
the same piece, or None, and run out of budget exactly where it does.

``smith_group`` reads a presentation's group off the diagonal of ``snf``,
and ``cokernel_basis`` also reads, off ``snf``'s V, where each generator of
the presentation lands: torsion coordinates first, each mod its divisor,
then free ones.  ``class_image_oracle`` sums those generator images and
reduces; ``gfgcover.homology.class_image`` must return the same vector.
``quotient_by`` and ``dim_mod_p`` build a new presentation for a quotient
of a group given by its invariants and read it off ``smith_group``; they
check ``h1_mod_cyclic`` and ``p_rank`` from outside.

``evaluate`` expands a word in a subgroup's Schreier basis into the ambient
free group, the inverse of ``gfgcover.cosets.rewrite``.
"""

import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from _helpers import lifts_over, word_length

from gfgcover.cosets import (
    CosetTable,
    PrescribeResult,
    Target,
    _cyclic_shift,
    _invert_perm,
    _order_mod,
    _pair_shift,
    _perm_order,
    _word_perm,
    elevations,
    enumerate_subgroups,
    is_regular,
    regular_table,
    schreier,
    subgroup_contains,
)
from gfgcover.covers import (
    CoverCensus, PrecoverMorphism, TorsionPiece, _assemble, _extensions, _is_cut_vertex,
    _same_base, split_cyclic,
)
from gfgcover.gog import (
    GogWord, GraphOfGroups, abelianized_presentation, euler_characteristic, is_nontrivial,
    reverse_edge,
)
from gfgcover.homology import (
    AbelianGroup, IntMatrix, _check_prime, cyclic_column, p_rank, snf,
)
from gfgcover.words import ConjClass, Word, abelianize_word, conj_canonical, identity, power_of


def table_iso_maps(t1: CosetTable, t2: CosetTable) -> Iterator[Tuple[int, ...]]:
    """Equivariant coset bijections (not required to fix coset 0)."""
    if t1.size != t2.size or t1.rank != t2.rank:
        return
    n = t1.size
    letters = [x for i in range(1, t1.rank + 1) for x in (i, -i)]
    for s0 in range(n):
        sigma: List[Optional[int]] = [None] * n
        sigma[0] = s0
        queue = [0]
        ok = True
        while queue and ok:
            i = queue.pop()
            for x in letters:
                j = t1.act(i, x)
                sj = t2.act(sigma[i], x)
                if sigma[j] is None:
                    sigma[j] = sj
                    queue.append(j)
                elif sigma[j] != sj:
                    ok = False
                    break
        if ok and len(set(sigma)) == n:
            yield tuple(sigma)  # type: ignore[arg-type]


def isomorphic_oracle(m1: PrecoverMorphism, m2: PrecoverMorphism) -> bool:
    """Whether two morphisms differ only by renaming lifts compatibly.

    Searches for a fiberwise bijection: a table isomorphism per free lift
    and an index-preserving matching of cyclic lifts, carrying every edge
    assignment of one morphism onto the other.  Basepoints are ignored.
    """
    if m1 is m2:
        return True
    if not _same_base(m1.base, m2.base):
        return False
    inv1 = sorted((b, m1.total.vertex_kind[v], m1.vertex_index(v)) for v, b in m1.vertex_map.items())
    inv2 = sorted((b, m2.total.vertex_kind[v], m2.vertex_index(v)) for v, b in m2.vertex_map.items())
    if inv1 != inv2:
        return False
    cnt1 = sorted(bp for bp, _, _ in m1.pair_spec.values())
    cnt2 = sorted(bp for bp, _, _ in m2.pair_spec.values())
    if cnt1 != cnt2:
        return False
    h1_keys = sorted((s.edge, s.side, s.degree) for s in m1.hanging)
    h2_keys = sorted((s.edge, s.side, s.degree) for s in m2.hanging)
    if h1_keys != h2_keys:
        return False

    base_vs = sorted(m1.base.graph.vertices)
    groups = [(b, lifts_over(m1, b), lifts_over(m2, b)) for b in base_vs]
    for b, l1, l2 in groups:
        if len(l1) != len(l2):
            return False

    lookup2 = {
        (ref.edge, ref.vertex, ref.least): d
        for d, ref in m2.edge_assignment.items()
    }

    phi: Dict[str, Tuple[str, Optional[Tuple[int, ...]]]] = {}

    def edges_match() -> bool:
        for q, (bp, fwd, bwd) in m1.pair_spec.items():
            keys = []
            for ref, end in ((fwd, bp), (bwd, reverse_edge(bp))):
                target, sigma = phi[ref.vertex]
                if sigma is None:
                    least = 0
                else:
                    el = m1.elevation_of[ref]
                    least = min(sigma[c] for c in el.cycle)
                keys.append((end, target, least))
            d2 = lookup2.get(keys[0])
            if d2 is None:
                return False
            if lookup2.get(keys[1]) != reverse_edge(d2):
                return False
        return True

    def assign(gi: int, li: int, used: Set[str]) -> bool:
        if gi == len(groups):
            return edges_match()
        b, l1, l2 = groups[gi]
        if li == len(l1):
            return assign(gi + 1, 0, set())
        v = l1[li]
        kind = m1.total.vertex_kind[v]
        for w in l2:
            if w in used:
                continue
            if kind == "cyclic":
                if m1.cyclic_index[v] != m2.cyclic_index[w]:
                    continue
                phi[v] = (w, None)
                used.add(w)
                if assign(gi, li + 1, used):
                    return True
                used.remove(w)
                del phi[v]
            else:
                for sigma in table_iso_maps(m1.vertex_data[v], m2.vertex_data[w]):
                    phi[v] = (w, sigma)
                    used.add(w)
                    if assign(gi, li + 1, used):
                        return True
                    used.remove(w)
                    del phi[v]
        return False

    return assign(0, 0, set())


def candidate_covers(
    g: GraphOfGroups, n: int, counter: Optional[List[int]] = None, cap: Optional[int] = None
) -> Iterator[PrecoverMorphism]:
    """Connected covers of degree n in matching-engine order, before any
    isomorphism dedup, so one class may come up many times."""
    for raw in _extensions(g, None, n, "@", [0] if counter is None else counter, cap):
        m = _assemble(g, None, "@", raw)
        if m.total.graph.is_connected():
            assert euler_characteristic(m.total) == n * euler_characteristic(g)
            yield m


def _invariant(m: PrecoverMorphism) -> tuple:
    """Lifts, pairs and hanging slots counted per base object: equal for
    isomorphic morphisms over one base."""
    return (
        tuple(sorted(
            (b, m.total.vertex_kind[v], m.vertex_index(v)) for v, b in m.vertex_map.items()
        )),
        tuple(sorted(bp for bp, _, _ in m.pair_spec.values())),
        tuple(sorted((s.edge, s.side, s.degree) for s in m.hanging)),
    )


def enumerate_covers_oracle(
    g: GraphOfGroups, max_index: int, cap: Optional[int] = None
) -> Iterator[PrecoverMorphism]:
    """Every candidate, kept when ``isomorphic_oracle`` finds it isomorphic
    to no earlier one of its bucket; one node counter for all degrees."""
    counter = [0]
    for n in range(1, max_index + 1):
        found: Dict[tuple, List[PrecoverMorphism]] = {}
        for m in candidate_covers(g, n, counter, cap):
            bucket = found.setdefault(_invariant(m), [])
            if any(isomorphic_oracle(m, other) for other in bucket):
                continue
            bucket.append(m)
            yield m


def enumerate_closed_words_oracle(g: GraphOfGroups, max_length: int) -> Iterator[GogWord]:
    """Every closed word up to the length cap, built and sorted before the
    first is returned: the eager form of ``enumerate_closed_words``."""
    base = g.base_vertex
    found: List[Tuple[int, int, GogWord]] = []
    counter = [0]

    def emit(syllables, crossings):
        gw = GogWord(base, tuple(syllables), tuple(crossings))
        found.append((word_length(gw), counter[0], gw))
        counter[0] += 1

    def letters_at(v):
        r = g.vertex_rank[v]
        return [a for a in range(-r, r + 1) if a != 0]

    def dfs(v, syllables, crossings, cur, used):
        # cur: letters of the open syllable at v; used: letters spent so far.
        if used > max_length:
            return
        if v == base and used >= 1:
            word = Word(tuple(cur), g.vertex_rank[v])
            gw = GogWord(base, tuple(syllables) + (word,), tuple(crossings))
            if is_nontrivial(g, gw):
                emit(list(gw.syllables), list(crossings))
        for a in letters_at(v):
            if cur and cur[-1] == -a:
                continue
            if used + 1 > max_length:
                break
            cur.append(a)
            dfs(v, syllables, crossings, cur, used + 1)
            cur.pop()
        if used + 1 > max_length:
            return
        word = Word(tuple(cur), g.vertex_rank[v])
        for e in sorted(g.graph.oriented_edges()):
            if g.graph.iota(e) != v:
                continue
            if crossings and e == reverse_edge(crossings[-1]):
                if power_of(word, g.edge_words[crossings[-1]]) is not None:
                    continue
            syllables.append(word)
            crossings.append(e)
            dfs(g.graph.tau(e), syllables, crossings, [], used + 1)
            crossings.pop()
            syllables.pop()

    dfs(base, [], [], [], 0)
    found.sort(key=lambda t: (t[0], t[1]))
    for _, _, gw in found:
        yield gw


def prescribe_degrees_oracle(
    rank: int,
    targets: Sequence[Target],
    degrees: Sequence[int],
    within: Optional[CosetTable] = None,
    max_modulus: int = 60,
    max_pair_modulus: int = 12,
    max_perm_index: int = 5,
) -> Optional[PrescribeResult]:
    """``prescribe_degrees`` with unpruned abelian phases: every tuple of
    generator images in every Z/m and Z/m1 x Z/m2 goes through the screen."""
    words = []
    for t in targets:
        cls = t if isinstance(t, ConjClass) else conj_canonical(t)
        if cls.is_trivial():
            raise ValueError("cannot prescribe a degree for the trivial class")
        if cls.rank != rank:
            raise ValueError("rank mismatch")
        words.append(cls.canonical)
    if len(words) != len(degrees) or not words:
        raise ValueError("need one positive degree per word")
    if any(d < 1 for d in degrees):
        raise ValueError("need one positive degree per word")
    if within is not None and within.rank != rank:
        raise ValueError("rank mismatch with the ambient subgroup")

    ab = [abelianize_word(w) for w in words]

    def screen(orders: Sequence[int]) -> Optional[int]:
        scale, r0 = divmod(orders[0], degrees[0])
        if r0 or scale < 1:
            return None
        if any(o != scale * d for o, d in zip(orders, degrees)):
            return None
        return scale

    def verify(name: str, perms: List[Tuple[int, ...]], scale: int) -> Optional[PrescribeResult]:
        table = regular_table(perms, rank)
        if not is_regular(table):
            return None
        for w, d in zip(words, degrees):
            if any(e.degree != scale * d for e in elevations(table, w)):
                return None
        if within is not None and not subgroup_contains(within, table):
            return None
        return PrescribeResult(table, scale, "%s (order %d)" % (name, table.size))

    for m in range(2, max_modulus + 1):
        for cs in itertools.product(range(m), repeat=rank):
            orders = [
                _order_mod(sum(a * c for a, c in zip(v, cs)), m) for v in ab
            ]
            scale = screen(orders)
            if scale is None:
                continue
            res = verify("Z/%d" % m, [_cyclic_shift(m, c) for c in cs], scale)
            if res is not None:
                return res
    for m1 in range(2, max_pair_modulus + 1):
        for m2 in range(m1, max_pair_modulus + 1):
            for cs in itertools.product(range(m1), range(m2), repeat=rank):
                orders = []
                for v in ab:
                    o1 = _order_mod(sum(a * cs[2 * i] for i, a in enumerate(v)), m1)
                    o2 = _order_mod(sum(a * cs[2 * i + 1] for i, a in enumerate(v)), m2)
                    orders.append(o1 * o2 // math.gcd(o1, o2))
                scale = screen(orders)
                if scale is None:
                    continue
                perms = [
                    _pair_shift(m1, m2, cs[2 * i], cs[2 * i + 1])
                    for i in range(rank)
                ]
                res = verify("Z/%d x Z/%d" % (m1, m2), perms, scale)
                if res is not None:
                    return res
    for n in range(2, max_perm_index + 1):
        for t in enumerate_subgroups(rank, n):
            perms = list(t.action)
            inv = [_invert_perm(p) for p in perms]
            orders = [_perm_order(_word_perm(perms, inv, w)) for w in words]
            scale = screen(orders)
            if scale is None:
                continue
            res = verify("image of an index-%d action" % n, perms, scale)
            if res is not None:
                return res
    return None


def torsion_piece_oracle(
    g: GraphOfGroups, p: int, max_index: int, cap: Optional[int] = None
) -> Optional[TorsionPiece]:
    """First split, over covers, lifts and incident edges in order, whose
    certificate has p-torsion."""
    _check_prime(p)
    for m in CoverCensus(g, cap).covers(max_index):
        for v in sorted(m.cyclic_index):
            incident = sorted(d for d, ref in m.edge_assignment.items() if ref.vertex == v)
            if len(incident) < 2 or _is_cut_vertex(m.total.graph, v):
                continue
            for d in incident:
                piece = split_cyclic(m, v, [d])
                roster, matrix = abelianized_presentation(piece.total)
                rows = list(matrix.entries)
                for c in (v + ".1", v + ".2"):
                    col = roster.index(("vertex", c, 0))
                    rows.append([1 if j == col else 0 for j in range(matrix.cols)])
                q = smith_group(IntMatrix.from_rows(rows, matrix.cols))
                if p_rank(q, p) >= 1:
                    return TorsionPiece(piece, v + ".1", v + ".2", p, q)
    return None


def smith_group(a: IntMatrix) -> AbelianGroup:
    """Z^cols modulo the row space of a, off the diagonal of ``snf``."""
    return cokernel_basis(a)[0]


def cokernel_basis(a: IntMatrix) -> Tuple[AbelianGroup, Tuple[Tuple[int, ...], ...]]:
    """The group and, per generator of the presentation, its image."""
    n = a.cols
    _, d, v = snf(a)
    diag = list(d.diagonal()) + [0] * (n - min(a.rows, n))
    torsion = [i for i, e in enumerate(diag) if e >= 2]
    free = [i for i, e in enumerate(diag) if e == 0]
    rows = []
    for j in range(n):
        vec = [v.entries[j][i] for i in torsion + free]
        for t, i in enumerate(torsion):
            vec[t] %= diag[i]
        rows.append(tuple(vec))
    return AbelianGroup(len(free), tuple(diag[i] for i in torsion)), tuple(rows)


def class_image_oracle(g, target) -> Tuple[int, ...]:
    """``class_image`` as the sum of the generator images of
    ``cokernel_basis``."""
    if hasattr(g, "total"):
        g = g.total
    roster, matrix = abelianized_presentation(g)
    group, basis = cokernel_basis(matrix)
    if isinstance(target, str):
        return basis[cyclic_column(g, roster, target)]
    vertex, word = target
    if hasattr(word, "canonical"):
        word = word.canonical
    out = [0] * group.coords
    for i, c in enumerate(abelianize_word(word)):
        for t, e in enumerate(basis[roster.index(("vertex", vertex, i))]):
            out[t] += c * e
    return group.reduce_element(out)


def _relations(a: AbelianGroup) -> List[List[int]]:
    width = a.coords
    return [[d if j == i else 0 for j in range(width)] for i, d in enumerate(a.divisors)]


def quotient_by(a: AbelianGroup, xs) -> AbelianGroup:
    """Quotient of a by the subgroup generated by the given elements, which
    are vectors in a's coordinates."""
    rows = _relations(a) + [list(a.reduce_element(x)) for x in xs]
    return smith_group(IntMatrix.from_rows(rows, cols=a.coords))


def dim_mod_p(a: AbelianGroup, p: int) -> int:
    """dim_Fp(A/pA), from a presentation of A/pA (the divisor relations
    plus p times every generator) rather than from the divisor list."""
    _check_prime(p)
    width = a.coords
    rows = _relations(a) + [[p if i == j else 0 for i in range(width)] for j in range(width)]
    q = smith_group(IntMatrix.from_rows(rows, cols=width))
    assert q.betti == 0
    return sum(1 for d in q.divisors if d == p)


def evaluate(table: CosetTable, w: Word) -> Word:
    """Inverse of ``rewrite``: expand a basis word into the ambient group."""
    sd = schreier(table)
    if w.rank != len(sd.basis):
        raise ValueError("word is not in the subgroup basis")
    out = identity(table.rank)
    for letter in w.letters:
        g = sd.basis[abs(letter) - 1]
        out = out * (g if letter > 0 else g.inverse())
    return out
