"""Slow reference implementations kept as test oracles.

``isomorphic_oracle`` is the unpruned backtracking isomorphism test of
precover morphisms: it tries every fiberwise assignment of lifts, with
table isomorphisms regenerated on every branch, and checks the edge
assignments only once every lift is mapped.  ``gfgcover.covers.isomorphic``
(equal canonical codes) must give the same yes/no answer on every pair of
morphisms.

``unpruned_extensions`` is the matching engine without the census's cuts:
it screens out no lift choice and cuts no branch, not even those that can
only give a disconnected total.  ``candidate_covers``
builds every connected cover it finds, before any dedup;
``enumerate_covers_oracle`` dedups them by
``isomorphic_oracle`` within buckets of equal lift, pair and slot counts,
keeping the first of each class.  ``gfgcover.covers.enumerate_covers`` must
yield the same representatives in the same order.

``close_open_ends_oracle`` is the matching engine as nested generator
functions that share its state through closure cells;
``gfgcover.covers._close_open_ends``, whose steps are module-level
functions that take one state object, must yield the same closings in the
same order for the same nodes.

``census_extensions`` reads the census engine's candidates one lift
choice after another, and ``degree_covers_oracle`` codes every one of them
and keeps one set of codes for the whole degree;
``gfgcover.covers._degree_covers``, which keeps one set per lift choice and
codes a choice's candidates only once it has a second, must yield the same
covers, with the same codes, in the same order.

``has_pinch`` and ``is_nontrivial`` read the normal form theorem off a
finished path word; ``enumerate_closed_words_oracle`` keeps the words of
one depth-first pass to the length cap that ``is_nontrivial`` passes and
sorts them by length.  ``gfgcover.gog.enumerate_closed_words``, whose
search makes no pinch, must yield the same sequence.

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

``is_connected_oracle`` (a stack walk), ``distance_oracle`` (a
breadth-first search that stops at its target) and
``spanning_tree_oracle`` (a breadth-first search level by level) are three
separate walks over a Serre graph's stars; ``SerreGraph.is_connected``,
``distance`` and ``spanning_tree``, which share one search, must give the
same answers, errors and tree edges in the same order.

``is_cut_vertex`` walks the graph once per vertex asked;
``gfgcover.covers._cut_vertices``, one depth-first search per graph, must
find the same cut vertices on every cover total.

``torsion_lifts_oracle`` tests each candidate cyclic lift of a cover on
its own, with a unit row for the lift's generator and one ``cokernel``;
``gfgcover.covers._torsion_lifts``, which decides every lift from one
elimination over F_p and one over Q, must pass the same lifts.
``field_rank`` is dense elimination over F_p or Q; the rank of each
column deletion it gives must make the coloops that
``gfgcover.homology.rank_coloops`` finds.

``smith_group`` reads a presentation's group off the diagonal of ``snf``,
and ``cokernel_basis`` also reads, off ``snf``'s V, where each generator of
the presentation lands: torsion coordinates first, each mod its divisor,
then free ones.  ``class_image_oracle`` sums those generator images and
reduces; ``gfgcover.homology.class_image`` must return the same vector.
``quotient_by`` and ``dim_mod_p`` build a new presentation for a quotient
of a group given by its invariants and read it off ``smith_group``; they
check ``h1_mod_cyclic`` and ``p_rank`` from outside.

``evaluate`` expands a word in a subgroup's Schreier basis
(``schreier_basis``) into the ambient free group, the inverse of
``gfgcover.cosets.rewrite``.

``elevations_oracle`` builds every elevation's word and local class as it
walks the cycles; ``gfgcover.cosets.elevations``, which builds them when
first read, must give the same cycles, words and classes.

The morphism operations ``rename_total``, ``splice``, ``merge_cyclic``
and ``detach_edge`` rename, join, merge and cut a morphism by slot index,
each with its checks and one full morphism construction.  The package
builds no morphism this way; they are the reference for the two oracles
below, and the surgery tests check them on their own.

``chain_oracle`` concatenates a torsion piece's copies the way the
morphism operations compose: each copy renamed by ``rename_total``, all of
them joined by ``splice``, then one ``merge_cyclic`` per seam, each step a
full morphism construction.  ``gfgcover.covers.chain``, which writes the
chain's dicts directly and constructs once, must build the same morphism
and raise the same error; one copy is the piece itself, checked to be a
precover.

``step_assembly_oracle`` joins a tower step's chain into its site cover
the way the morphism operations compose: the site detached by
``detach_edge``, the three parts renamed by ``rename_total``, each slot
looked up among the parts' hanging slots, all of them joined by
``splice``, and the site cover's basepoint set by ``with_basepoint``.  The
tower step, which names the joined refs outright and constructs once,
must build the same morphism.

``is_class_minimal_oracle`` compares the table's full encoding with the
full encoding from every other start, and ``enumerate_subgroups_oracle``
builds a table for every standard table of the depth-first search and keeps
those it passes.  ``gfgcover.cosets.enumerate_subgroups``, which compares
raw rows entry by entry and builds only the tables that pass, must yield
the same tables in the same order.

``abelianized_presentation_oracle`` checks connectivity and finds the
spanning tree by two searches and fills each row from exponent-sum
vectors; ``gfgcover.gog.abelianized_presentation``, which reads both off
one memoised search and fills rows from the letters, must give the same
roster, matrix and error.

``admits_oracle`` builds and sorts the degree pools of each lift choice;
``gfgcover.covers._Components.admits``, which sums per-table degree
signatures, must give the same answer.

``lift_elevations`` walks a lift's elevations edge by edge, and
``morphism_fields_oracle`` derives a morphism's elevation index, hanging
slots, problems and total from it; ``PrecoverMorphism``, which renames
one memoised record per lift, must derive the same, in the same order.
"""

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from _helpers import lifts_over, reduce_element, schreier_basis, word_length

from gfgcover.cosets import (
    CosetTable,
    Elevation,
    PrescribeResult,
    Target,
    _bfs_encoding,
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
    rewrite,
    schreier,
    subgroup_rank,
    whole_group_table,
)
from gfgcover.covers import (
    CoverCensus, ElevationRef, HangingSlot, PrecoverMorphism, TorsionPiece, _AnyComponents,
    _assemble, _check_merge, _close_open_ends, _code, _elevations, _extensions,
    _lift_choices, _parts, _pooled_edges, _retarget, _same_base, _union, ensure_precover,
    split_cyclic, with_basepoint,
)
from gfgcover.errors import Budget
from gfgcover.gog import (
    GogWord, GraphOfGroups, SerreGraph, abelianized_presentation, euler_characteristic,
    pair_of, reverse_edge,
)
from gfgcover.homology import (
    AbelianGroup, IntMatrix, _check_prime, cokernel, cyclic_column, p_rank, snf,
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


def census_extensions(g: GraphOfGroups, n: int, budget: Budget) -> Iterator[tuple]:
    """The raw candidates of ``_extensions(g, None, n, "@", budget)``, one
    lift choice after another, each as (new free lifts, new cyclic lifts,
    new triples)."""
    for new_free, closings in _extensions(g, None, n, "@", budget):
        for new_cyclic, triples in closings:
            yield new_free, new_cyclic, triples


def degree_covers_oracle(g: GraphOfGroups, n: int, budget: Budget) -> Iterator[PrecoverMorphism]:
    """``_degree_covers`` with one set of codes for the whole degree: every
    candidate coded and built only when its code is new to the degree."""
    seen: Set[tuple] = set()
    for raw in census_extensions(g, n, budget):
        new_free, new_cyclic, triples = raw
        code = _code(g, itertools.chain(new_free.items(), new_cyclic.items()), triples)
        assert len(code) == 1, "census candidate with a disconnected total"
        if code in seen:
            continue
        seen.add(code)
        m = _assemble(g, None, "@", raw)
        m._code = code
        yield m


def unpruned_extensions(g: GraphOfGroups, n: int, budget: Budget) -> Iterator[tuple]:
    """``_extensions(g, None, n, "@", budget)`` without the census's cuts:
    every lift choice, closed by ``_AnyComponents``, so every candidate of
    the matching engine."""
    for new_free, pools, demands, room, taken in _lift_choices(g, None, n, "@", budget):
        for new_cyclic, triples in _close_open_ends(
            g, pools, demands, room, taken, budget, _AnyComponents()
        ):
            yield new_free, new_cyclic, triples


def candidate_covers(
    g: GraphOfGroups, n: int, budget: Optional[Budget] = None, pruned: bool = False
) -> Iterator[PrecoverMorphism]:
    """Connected covers of degree n in matching-engine order, before any
    isomorphism dedup, so one class may come up many times.  The unpruned
    engine builds every candidate and drops the disconnected ones here;
    ``pruned`` asks the census engine instead."""
    budget = budget or Budget()
    raws = census_extensions(g, n, budget) if pruned else unpruned_extensions(g, n, budget)
    for raw in raws:
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
    g: GraphOfGroups, max_index: int, budget: Optional[Budget] = None, pruned: bool = False
) -> Iterator[PrecoverMorphism]:
    """Every candidate, kept when ``isomorphic_oracle`` finds it isomorphic
    to no earlier one of its bucket; one budget for all degrees, spent by
    the census engine when ``pruned``."""
    budget = budget or Budget()
    for n in range(1, max_index + 1):
        found: Dict[tuple, List[PrecoverMorphism]] = {}
        for m in candidate_covers(g, n, budget, pruned):
            bucket = found.setdefault(_invariant(m), [])
            if any(isomorphic_oracle(m, other) for other in bucket):
                continue
            bucket.append(m)
            yield m


def has_pinch(g: GraphOfGroups, gw: GogWord) -> bool:
    """True when some crossing is undone across a syllable inside the edge
    subgroup, so the path word reduces to a shorter one."""
    for i in range(1, len(gw.crossings)):
        prev, cur = gw.crossings[i - 1], gw.crossings[i]
        if cur == reverse_edge(prev):
            mid = gw.syllables[i]
            if power_of(mid, g.edge_words[prev]) is not None:
                return True
    return False


def is_nontrivial(g: GraphOfGroups, gw: GogWord) -> bool:
    """Nontriviality of the represented element, by the normal form theorem.

    Pinch-free words with at least one crossing are nontrivial; crossing-free
    words are nontrivial exactly when their single syllable is.
    """
    if not gw.crossings:
        return not gw.syllables[0].is_identity()
    return not has_pinch(g, gw)


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

    ab = [abelianize_word(w) for w in words]

    def screen(orders: Sequence[int]) -> Optional[int]:
        scale, r0 = divmod(orders[0], degrees[0])
        if r0 or scale < 1:
            return None
        if any(o != scale * d for o, d in zip(orders, degrees)):
            return None
        return scale

    def verify(
        name: str, perms: List[Tuple[int, ...]], scale: int, order: int = 0
    ) -> Optional[PrescribeResult]:
        table = regular_table(perms, rank)
        if not is_regular(table):
            return None
        for w, d in zip(words, degrees):
            if any(e.degree != scale * d for e in elevations(table, w)):
                return None
        if order and table.size != order:
            name = "image in " + name
        return PrescribeResult(table, scale, "%s (order %d)" % (name, table.size))

    for m in range(2, max_modulus + 1):
        for cs in itertools.product(range(m), repeat=rank):
            orders = [
                _order_mod(sum(a * c for a, c in zip(v, cs)), m) for v in ab
            ]
            scale = screen(orders)
            if scale is None:
                continue
            res = verify("Z/%d" % m, [_cyclic_shift(m, c) for c in cs], scale, m)
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
                res = verify("Z/%d x Z/%d" % (m1, m2), perms, scale, m1 * m2)
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


def is_connected_oracle(gr: SerreGraph) -> bool:
    if not gr.vertices:
        return False
    seen = {gr.vertices[0]}
    queue = [gr.vertices[0]]
    while queue:
        v = queue.pop()
        for e in gr.star(v):
            w = gr.tau(e)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(gr.vertices)


def distance_oracle(gr: SerreGraph, u: str, w: str) -> int:
    if u not in gr.vertices or w not in gr.vertices:
        raise ValueError("unknown vertex")
    dist = {u: 0}
    queue = [u]
    while queue:
        nxt = []
        for x in queue:
            if x == w:
                return dist[x]
            for e in gr.star(x):
                y = gr.tau(e)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        queue = nxt
    raise ValueError("vertices %r and %r are in different components" % (u, w))


def spanning_tree_oracle(gr: SerreGraph, root: str) -> List[str]:
    seen = {root}
    tree = []
    queue = [root]
    while queue:
        nxt = []
        for v in queue:
            for e in gr.star(v):
                w = gr.tau(e)
                if w not in seen:
                    seen.add(w)
                    tree.append(pair_of(e))
                    nxt.append(w)
        queue = nxt
    return tree


def is_cut_vertex(gr: SerreGraph, v: str) -> bool:
    """Whether removing v disconnects gr (or leaves nothing): one walk
    over the other vertices."""
    others = [u for u in gr.vertices if u != v]
    if not others:
        return True
    seen = {others[0]}
    queue = [others[0]]
    while queue:
        u = queue.pop()
        for e in gr.star(u):
            w = gr.tau(e)
            if w != v and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) != len(others)


def torsion_piece_oracle(
    g: GraphOfGroups, p: int, max_index: int, budget: Optional[Budget] = None
) -> Optional[TorsionPiece]:
    """First split, over covers, lifts and incident edges in order, whose
    certificate has p-torsion."""
    _check_prime(p)
    for m in CoverCensus(g, budget).covers(max_index):
        for v in sorted(m.cyclic_index):
            incident = sorted(d for d, ref in m.edge_assignment.items() if ref.vertex == v)
            if len(incident) < 2 or is_cut_vertex(m.total.graph, v):
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


def torsion_lifts_oracle(m: PrecoverMorphism, p: int) -> List[str]:
    """The cyclic lifts ``find_torsion_piece`` passes in m, each tested on
    its own: the cover's presentation with one unit row for the lift's
    generator, and its ``cokernel``."""
    roster, matrix = abelianized_presentation(m.total)
    out = []
    for v in sorted(m.cyclic_index):
        incident = [d for d, ref in m.edge_assignment.items() if ref.vertex == v]
        if len(incident) < 2 or is_cut_vertex(m.total.graph, v):
            continue
        col = cyclic_column(m.total, roster, v)
        unit = tuple(int(k == col) for k in range(matrix.cols))
        if p_rank(cokernel(IntMatrix(matrix.entries + (unit,), matrix.cols)), p):
            out.append(v)
    return out


def field_rank(rows: Sequence[Sequence[int]], p: int = 0) -> int:
    """Rank over F_p, or over Q (on ``Fraction`` entries) when p is 0, by
    dense Gauss–Jordan elimination."""
    a = [[x % p for x in row] if p else [Fraction(x) for x in row] for row in rows]
    rank = 0
    for j in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for i in range(len(a)):
            if i != rank and a[i][j]:
                f = a[i][j] * (pow(a[rank][j], -1, p) if p else 1 / a[rank][j])
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
                if p:
                    a[i] = [x % p for x in a[i]]
        rank += 1
    return rank


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
    out = [0] * (len(group.divisors) + group.betti)
    for i, c in enumerate(abelianize_word(word)):
        for t, e in enumerate(basis[roster.index(("vertex", vertex, i))]):
            out[t] += c * e
    return reduce_element(group, out)


def _relations(a: AbelianGroup) -> List[List[int]]:
    width = len(a.divisors) + a.betti
    return [[d if j == i else 0 for j in range(width)] for i, d in enumerate(a.divisors)]


def quotient_by(a: AbelianGroup, xs) -> AbelianGroup:
    """Quotient of a by the subgroup generated by the given elements, which
    are vectors in a's coordinates."""
    rows = _relations(a) + [list(reduce_element(a, x)) for x in xs]
    return smith_group(IntMatrix.from_rows(rows, cols=len(a.divisors) + a.betti))


def dim_mod_p(a: AbelianGroup, p: int) -> int:
    """dim_Fp(A/pA), from a presentation of A/pA (the divisor relations
    plus p times every generator) rather than from the divisor list."""
    _check_prime(p)
    width = len(a.divisors) + a.betti
    rows = _relations(a) + [[p if i == j else 0 for i in range(width)] for j in range(width)]
    q = smith_group(IntMatrix.from_rows(rows, cols=width))
    assert q.betti == 0
    return sum(1 for d in q.divisors if d == p)


def evaluate(table: CosetTable, w: Word) -> Word:
    """Inverse of ``rewrite``: expand a basis word into the ambient group."""
    basis = schreier_basis(table)
    if w.rank != len(basis):
        raise ValueError("word is not in the subgroup basis")
    out = identity(table.rank)
    for letter in w.letters:
        g = basis[abs(letter) - 1]
        out = out * (g if letter > 0 else g.inverse())
    return out


class EagerElevation(NamedTuple):
    base: ConjClass
    cycle: Tuple[int, ...]
    rep: Word
    local: ConjClass


def elevations_oracle(table: CosetTable, target: Target) -> List[EagerElevation]:
    """Every cycle of the word's permutation by least coset, each with its
    word rep(m) * w**d * rep(m)**-1 and that word's class in the subgroup
    basis, all built at once."""
    cls = target if isinstance(target, ConjClass) else conj_canonical(target)
    w = cls.canonical
    sd = schreier(table)
    n = table.size
    seen = [False] * n
    out: List[EagerElevation] = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cur = table.act_word(start, w)
        while cur != start:
            seen[cur] = True
            cycle.append(cur)
            cur = table.act_word(cur, w)
        rep = sd.reps[start] * w.power(len(cycle)) * sd.reps[start].inverse()
        local = conj_canonical(rewrite(table, rep))
        out.append(EagerElevation(cls, tuple(cycle), rep, local))
    return out


def is_class_minimal_oracle(table: CosetTable) -> bool:
    """Whether no other start gives a smaller full encoding."""
    own = _bfs_encoding(table, 0)[0]
    return all(own <= _bfs_encoding(table, s)[0] for s in range(1, table.size))


def rename_total(m: PrecoverMorphism, suffix: str) -> PrecoverMorphism:
    """Append a suffix to every total vertex and pair name."""
    if not suffix:
        raise ValueError("empty suffix")
    return PrecoverMorphism(m.base, *_union((_parts(m), suffix)))


def splice(
    ms: Sequence[PrecoverMorphism],
    matches: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]],
) -> PrecoverMorphism:
    """Union of the morphisms with selected hanging slots glued in pairs.

    ``matches`` lists ((i, k), (j, l)): slot k of ms[i] against slot l of
    ms[j].  Matched slots must lie over mutually reverse orientations of
    the same base pair and have equal degrees; no slot may be used twice.
    An empty match list is the disjoint union.
    """
    if not ms:
        raise ValueError("nothing to splice")
    base = ms[0].base
    for m in ms[1:]:
        if not _same_base(m.base, base):
            raise ValueError("splice of morphisms over different bases")
    for m in ms:
        ensure_precover(m)

    vertex_map: Dict[str, str] = {}
    vertex_data: Dict[str, CosetTable] = {}
    cyclic_index: Dict[str, int] = {}
    pairs: Dict[str, Tuple[str, ElevationRef, ElevationRef]] = {}
    for m in ms:
        clash = set(vertex_map) & set(m.vertex_map)
        if clash:
            raise ValueError("total vertex name clash: %s" % sorted(clash))
        clash = set(pairs) & set(m.pair_spec)
        if clash:
            raise ValueError("total pair name clash: %s" % sorted(clash))
        vertex_map.update(m.vertex_map)
        vertex_data.update(m.vertex_data)
        cyclic_index.update(m.cyclic_index)
        pairs.update(m.pair_spec)

    used: Set[Tuple[int, int]] = set()
    counter = 0
    for (i, k), (j, l) in matches:
        for key in ((i, k), (j, l)):
            if not (0 <= key[0] < len(ms)) or not (0 <= key[1] < len(ms[key[0]].hanging)):
                raise ValueError("no such slot %r" % (key,))
            if key in used:
                raise ValueError("slot %r used twice" % (key,))
            used.add(key)
        s1 = ms[i].hanging[k]
        s2 = ms[j].hanging[l]
        if s1.edge != reverse_edge(s2.edge):
            raise ValueError(
                "orbit mismatch: slots over %r and %r" % (s1.edge, s2.edge)
            )
        if s1.degree != s2.degree:
            raise ValueError(
                "degree mismatch: %d vs %d over %r" % (s1.degree, s2.degree, s1.edge)
            )
        bp = pair_of(s1.edge)
        if s1.edge == bp:
            fwd, bwd = s1.ref, s2.ref
        else:
            fwd, bwd = s2.ref, s1.ref
        while "%s@s%d" % (bp, counter) in pairs:
            counter += 1
        pairs["%s@s%d" % (bp, counter)] = (bp, fwd, bwd)
        counter += 1

    return PrecoverMorphism(base, vertex_map, vertex_data, cyclic_index, pairs)


def merge_cyclic(m: PrecoverMorphism, v1: str, v2: str) -> PrecoverMorphism:
    """Merge two cyclic lifts of equal index over the same base vertex.

    The merged vertex keeps the first name and both edge sets.  Inverse to
    ``split_cyclic`` along the partition the two vertices record.
    """
    _check_merge(m.base, m.vertex_map, m.cyclic_index, v1, v2)
    vertex_map = dict(m.vertex_map)
    vertex_map.pop(v2)
    cyclic_index = dict(m.cyclic_index)
    cyclic_index.pop(v2)
    incident = [d for d in m.edge_assignment if m.edge_assignment[d].vertex == v2]
    rename = {(v2, d): v1 for d in incident}
    pairs = _retarget(m.pair_spec, rename)
    return PrecoverMorphism(m.base, vertex_map, m.vertex_data, cyclic_index, pairs)


def detach_edge(m: PrecoverMorphism, q: str) -> PrecoverMorphism:
    """Remove a total edge joining a cyclic and a free lift.

    Both orientations go together; the two elevations it realized reopen
    as hanging slots.
    """
    q = pair_of(q)
    if q not in m.pair_spec:
        raise ValueError("unknown total pair %r" % q)
    kinds = {
        m.total.vertex_kind[m.total.graph.iota(q)],
        m.total.vertex_kind[m.total.graph.tau(q)],
    }
    if kinds != {"cyclic", "free"}:
        raise ValueError("edge %r does not join a cyclic and a free vertex" % q)
    pairs = dict(m.pair_spec)
    pairs.pop(q)
    return PrecoverMorphism(m.base, m.vertex_map, m.vertex_data, m.cyclic_index, pairs)




def chain_oracle(piece: TorsionPiece, copies: int) -> PrecoverMorphism:
    """Copies of the piece renamed "#i", spliced, and copy i+1's c2 merged
    into copy i's c1, one morphism operation at a time."""
    if copies < 1:
        raise ValueError("need at least one copy")
    if copies == 1:
        ensure_precover(piece.morphism)
        return piece.morphism
    parts = [rename_total(piece.morphism, "#%d" % i) for i in range(1, copies + 1)]
    out = splice(parts, [])
    for i in range(1, copies):
        out = merge_cyclic(out, "%s#%d" % (piece.c1, i), "%s#%d" % (piece.c2, i + 1))
    return out


def step_assembly_oracle(
    piece: TorsionPiece, alpha: int, e1: str, cover: PrecoverMorphism, site: str,
    connector: PrecoverMorphism,
) -> PrecoverMorphism:
    """The site cover without ``site`` ("!L"), the chain of alpha pieces
    ("!K") and the connector ("!C"), spliced at slots found by search:
    site's free slot to the chain's tail c2 over e1, site's cyclic slot to
    the connector over ~e1, the chain's head c1 over each other end e to
    the connector over ~e; then re-pointed at the site cover's basepoint."""
    parts = [
        rename_total(detach_edge(cover, site), "!L"),
        rename_total(chain_oracle(piece, alpha), "!K"),
        rename_total(connector, "!C"),
    ]

    def slot(i: int, vertex: str, edge: str) -> Tuple[int, int]:
        hanging = parts[i].hanging
        return i, next(k for k, s in enumerate(hanging) if (s.vertex, s.edge) == (vertex, edge))

    _, fwd, bwd = cover.pair_spec[site]
    cyc, free = (fwd, bwd) if fwd.edge == e1 else (bwd, fwd)
    (a,) = parts[2].vertex_map
    tail = piece.c2 + ("#1" if alpha > 1 else "") + "!K"
    head = piece.c1 + ("#%d" % alpha if alpha > 1 else "") + "!K"
    gr = cover.base.graph
    matches = [
        (slot(0, free.vertex + "!L", free.edge), slot(1, tail, e1)),
        (slot(0, cyc.vertex + "!L", cyc.edge), slot(2, a, reverse_edge(e1))),
    ]
    matches += [
        (slot(1, head, e), slot(2, a, reverse_edge(e)))
        for e in sorted(gr.ends(gr.tau(e1))) if e != e1
    ]
    return with_basepoint(splice(parts, matches), cover.total.base_vertex + "!L")


def enumerate_subgroups_oracle(rank: int, idx: int) -> Iterator[CosetTable]:
    """Every completed standard table of the depth-first search, built as
    a table and kept when ``is_class_minimal_oracle`` passes it."""
    if idx == 1:
        yield whole_group_table(rank)
        return
    n, r = idx, rank
    fwd = [[-1] * n for _ in range(r)]
    bwd = [[-1] * n for _ in range(r)]
    slots = [(a, x) for a in range(n) for x in range(r)]

    def rec(si: int, used: int) -> Iterator[CosetTable]:
        if si == len(slots):
            if used == n:
                t = CosetTable(rank, tuple(tuple(row) for row in fwd))
                if is_class_minimal_oracle(t):
                    yield t
            return
        a, x = slots[si]
        if a >= used:
            return
        top = used + 1 if used < n else used
        for b in range(top):
            if bwd[x][b] != -1:
                continue
            fwd[x][a] = b
            bwd[x][b] = a
            yield from rec(si + 1, used + 1 if b == used else used)
            fwd[x][a] = -1
            bwd[x][b] = -1

    yield from rec(0, 1)


def abelianized_presentation_oracle(g: GraphOfGroups) -> Tuple[list, IntMatrix]:
    """Vertex blocks, then the stable letters outside the spanning tree
    from the base vertex; one row per pair, word_fwd's exponent sums at its
    tau block less word_bwd's at its iota block."""
    gr = g.graph
    if not gr.is_connected():
        raise ValueError("homology of a disconnected graph of groups is per component")
    tree = set(spanning_tree_oracle(gr, g.base_vertex))
    roster: list = []
    offset = {}
    for v in gr.vertices:
        offset[v] = len(roster)
        for i in range(g.vertex_rank[v]):
            roster.append(("vertex", v, i))
    for name in sorted(gr.pairs):
        if name not in tree:
            roster.append(("stable", name))
    rows = []
    for name in sorted(gr.pairs):
        row = [0] * len(roster)
        for i, c in enumerate(abelianize_word(g.edge_words[name])):
            row[offset[gr.tau(name)] + i] += c
        for i, c in enumerate(abelianize_word(g.edge_words["~" + name])):
            row[offset[gr.iota(name)] + i] -= c
        rows.append(row)
    return roster, IntMatrix.from_rows(rows, cols=len(roster))


def admits_oracle(g: GraphOfGroups, lifts: Dict[str, Tuple[str, CosetTable]]) -> bool:
    """Whether, in each group of ``_pooled_edges``, every pool of degrees
    at these lifts, sorted, is the same."""
    tables: Dict[str, List[CosetTable]] = {}
    for b, t in lifts.values():
        tables.setdefault(b, []).append(t)

    def pool(e: str) -> List[int]:
        word = g.edge_word(e)
        return sorted(el.degree for t in tables[g.graph.tau(e)] for el in elevations(t, word))

    return all(pool(e) == pool(first) for first, *rest in _pooled_edges(g) for e in rest)


def lift_elevations(
    base: GraphOfGroups, name: str, b: str, table: CosetTable
) -> Iterator[Tuple[ElevationRef, Elevation]]:
    """Every elevation at the lift ``name`` of b with the given table: one
    per cycle of each edge word ending at b, with its ref."""
    for e in base.graph.ends(b):
        for el in _elevations(table, base.edge_word(e)):
            yield ElevationRef(name, e, el.cycle[0]), el


def morphism_fields_oracle(m: PrecoverMorphism) -> dict:
    """The elevation index, hanging slots, problems and total (as plain
    dicts and tuples) that m's lift and pair data give, derived lift by
    lift from ``lift_elevations``."""
    base, gr = m.base, m.base.graph
    names = sorted(m.vertex_map)
    elevation_of: Dict[ElevationRef, Elevation] = {}
    for v in names:
        elevation_of.update(lift_elevations(base, v, m.vertex_map[v], m.vertex_table(v)))
    edge_words, realized, total_pairs = {}, {}, {}
    mismatches, repeats = [], {}
    for q in sorted(m.pair_spec):
        _, fwd, bwd = m.pair_spec[q]
        for ref, d in ((fwd, q), (bwd, "~" + q)):
            edge_words[d] = elevation_of[ref].local.canonical
            if realized.setdefault(ref, d) != d:
                repeats[ref] = repeats.get(ref, 1) + 1
        df, db = elevation_of[fwd].degree, elevation_of[bwd].degree
        if df != db:
            mismatches.append("degree mismatch at edge %r (%d vs %d)" % (q, df, db))
        total_pairs[q] = (bwd.vertex, fwd.vertex)
    problems = tuple(mismatches) + tuple(
        "elevation %r realized by %d edges" % (ref, repeats[ref])
        for ref in sorted(repeats, key=realized.__getitem__)
    )
    kinds = {v: base.vertex_kind[m.vertex_map[v]] for v in names}
    ranks = {
        v: subgroup_rank(m.vertex_data[v]) if kinds[v] == "free" else 1 for v in names
    }
    slots = [
        HangingSlot(ref.vertex, ref.edge, kinds[ref.vertex], el.degree, ref.least)
        for ref, el in elevation_of.items()
        if ref not in realized
    ]
    hanging = tuple(sorted(slots, key=lambda s: (s.vertex, s.edge, s.least)))
    total = (tuple(names), total_pairs, ranks, kinds, edge_words, m.total.base_vertex)
    return {"elevation_of": elevation_of, "hanging": hanging, "problems": problems, "total": total}


def close_open_ends_oracle(
    base: GraphOfGroups,
    pools: Dict[str, List[Tuple[ElevationRef, int]]],
    demands: Sequence[Tuple[str, int, Tuple[str, ...]]],
    room: Dict[str, int],
    taken_names: Set[str],
    budget: Budget,
    components: _AnyComponents,
) -> Iterator[Tuple[Dict[str, Tuple[str, int]], List[Tuple[str, ElevationRef, ElevationRef]]]]:
    """``gfgcover.covers._close_open_ends`` as nested generator functions
    that share the search state through closure cells."""
    gr = base.graph
    consumed: Set[ElevationRef] = set()
    new_cyclic: Dict[str, Tuple[str, int]] = {}
    out_pairs: List[Tuple[str, ElevationRef, ElevationRef]] = []

    demand_steps: List[Tuple[str, int, str]] = []
    for lift, d, ends in sorted(demands):
        for e in sorted(ends):
            demand_steps.append((lift, d, e))

    cyclic_vs = sorted(
        v for v in gr.vertices if base.vertex_kind[v] == "cyclic"
    )
    ends_of = {c: sorted(gr.ends(c)) for c in cyclic_vs}
    free_pairs = sorted(
        p
        for p in gr.pairs
        if base.vertex_kind[gr.iota(p)] == "free"
        and base.vertex_kind[gr.tau(p)] == "free"
    )

    def fresh_name(c: str) -> str:
        i = 0
        while True:
            name = "%s@%d" % (c, i)
            if name not in taken_names and name not in new_cyclic:
                return name
            i += 1

    # Pools are scanned in place; each loop restores ``consumed`` per entry.
    def first_open(e: str) -> Optional[Tuple[ElevationRef, int]]:
        return next((rd for rd in pools.get(e, ()) if rd[0] not in consumed), None)

    def emit(bp: str, cyc_end: str, cyc_ref: ElevationRef, far_ref: ElevationRef):
        if cyc_end == bp:
            out_pairs.append((bp, cyc_ref, far_ref))
        else:
            out_pairs.append((bp, far_ref, cyc_ref))

    def do_demands(i: int) -> Iterator[None]:
        if i == len(demand_steps):
            yield from do_cyclic(0, 0)
            return
        lift, d, e = demand_steps[i]
        for ref, dd in pools.get(reverse_edge(e), ()):
            if dd != d or ref in consumed:
                continue
            budget.tick()
            consumed.add(ref)
            emit(pair_of(e), e, ElevationRef(lift, e, 0), ref)
            yield from do_demands(i + 1)
            out_pairs.pop()
            consumed.remove(ref)

    def do_cyclic(ci: int, spent: int) -> Iterator[None]:
        if ci == len(cyclic_vs):
            yield from do_pairs(0)
            return
        c = cyclic_vs[ci]
        ends = ends_of[c]
        anchor = first_open(reverse_edge(ends[0])) if ends else None
        if anchor is None:
            if spent != room.get(c, 0):
                return
            for e in ends[1:]:
                if first_open(reverse_edge(e)) is not None:
                    return
            yield from do_cyclic(ci + 1, 0)
            return
        ref0, d = anchor
        if spent + d > room.get(c, 0):
            return
        name = fresh_name(c)
        consumed.add(ref0)
        new_cyclic[name] = (c, d)
        emit(pair_of(ends[0]), ends[0], ElevationRef(name, ends[0], 0), ref0)
        anchored = components.join(ref0, ref0, 1)

        def fill(j: int) -> Iterator[None]:
            if j == len(ends):
                if not components.cut(anchored):
                    yield from do_cyclic(ci, spent + d)
                return
            e = ends[j]
            for ref, dd in pools.get(reverse_edge(e), ()):
                if dd != d or ref in consumed or components.skip(ref0, ref):
                    continue
                budget.tick()
                consumed.add(ref)
                emit(pair_of(e), e, ElevationRef(name, e, 0), ref)
                undo = components.join(ref0, ref, 1)
                yield from fill(j + 1)
                components.split(undo)
                out_pairs.pop()
                consumed.remove(ref)

        yield from fill(1)
        components.split(anchored)
        out_pairs.pop()
        del new_cyclic[name]
        consumed.remove(ref0)

    def do_pairs(pi: int) -> Iterator[None]:
        if pi == len(free_pairs):
            yield new_cyclic, out_pairs
            return
        p = free_pairs[pi]
        first = first_open(p)
        if first is None:
            if first_open(reverse_edge(p)) is not None:
                return
            yield from do_pairs(pi + 1)
            return
        x, dx = first
        for y, dy in pools.get(reverse_edge(p), ()):
            if dy != dx or y in consumed or components.skip(x, y):
                continue
            budget.tick()
            consumed.add(x)
            if y != x:
                consumed.add(y)
            out_pairs.append((p, x, y))
            undo = components.join(x, y, 1 if y == x else 2)
            if not components.cut(undo):
                yield from do_pairs(pi)
            components.split(undo)
            out_pairs.pop()
            consumed.discard(y)
            consumed.discard(x)

    if not components.cut_at_start():
        yield from do_demands(0)
