"""Precovers and covers of graphs of free groups with cyclic edge groups.

A precover assigns finite-index data to lifts of the base vertices: a coset
table for each lift of a free vertex, and a bare index for each lift of a
cyclic vertex (the rank-one free group has exactly one subgroup per index,
so nothing more is needed).  Every total edge realizes one elevation of the
base edge word on each of its two sides, with matching degrees.  Elevations
that no total edge realizes are hanging slots, the loose ends that
``complete`` glues.

The data is deliberately rotation-free: a total edge records which two
elevations it joins but not which of the finitely many circle rotations
glues them.  Rotations never change ranks, Euler characteristics, degrees
or abelianizations, which is everything computed here; where a concrete
gluing is needed (``lift_word``), the rotation pairing the least coset of
one cycle with the least coset of the other is used throughout.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .cosets import (
    CosetTable,
    Elevation,
    _bfs_encoding,
    cyclic_table,
    elevations,
    enumerate_subgroups,
    prescribe_degrees,
    subgroup_rank,
)
from .errors import Budget, BudgetExceededError
from .gog import (
    GogWord,
    GraphOfGroups,
    SerreGraph,
    abelianized_presentation,
    enumerate_closed_words,
    ensure_valid,
    euler_characteristic,
    pair_of,
    reverse_edge,
)
from .homology import (
    AbelianGroup,
    TowerLedger,
    _check_prime,
    cyclic_column,
    h1,
    h1_mod_cyclic,
    ledger_check,
    ledger_update,
    p_rank,
    rank_coloops,
    torsion_exponent,
)
from .words import ConjClass, Frozen, Word, _set, check_int, conj_canonical

DEFAULT_BUDGET = 200_000
MAX_BETA = 16  # detached-copy counts tried per tower step; only 1 is supported

# The least value of each search bound: an index counts at least one sheet,
# while an added index or a word length may be 0.
_LEAST_BOUND = {
    "max_index": 1, "max_cover_index": 1, "max_piece_index": 1,
    "bound": 0, "complete_bound": 0, "max_word_length": 0,
}


def check_bounds(**bounds: int) -> None:
    """Raise ValueError naming the first search bound below its range, or
    TypeError naming the first one given as a bool: the check every search
    entry point makes before it searches."""
    for name, value in bounds.items():
        check_int(value, name)
        least = _LEAST_BOUND[name]
        if value < least:
            raise ValueError("%s must be at least %d, got %d" % (name, least, value))


@lru_cache(maxsize=None)
def _base_class(word: Word) -> ConjClass:
    """The conjugacy class of a base edge word, memoised: the elevations of
    the word at every table share it."""
    return conj_canonical(word)


@lru_cache(maxsize=None)
def _elevations(table: CosetTable, word: Word) -> Tuple[Elevation, ...]:
    """``elevations`` memoised for this layer.

    Its tables are mostly catalog tables from ``_tables`` and cyclic tables,
    so the keys stay few.  ``cosets.elevations`` itself stays uncached:
    ``prescribe_degrees`` calls it on many throw-away tables.
    """
    return tuple(elevations(table, _base_class(word)))


@lru_cache(maxsize=None)
def _lift_refs(
    g: GraphOfGroups, b: str, table: CosetTable, name: str
) -> Tuple[Tuple[ElevationRef, Elevation], ...]:
    """Every elevation at the lift ``name`` of b with this table, with its
    ref: one per cycle of each edge word ending at b, edges in ``ends``
    order; memoised, as the census names the lifts of each choice alike."""
    return tuple(
        (ElevationRef(name, e, el.cycle[0]), el)
        for e in g.graph.ends(b) for el in _elevations(table, g.edge_word(e))
    )


class ElevationRef(NamedTuple):
    """Names one elevation: a total vertex, the tau-oriented base edge whose
    word elevates there, and the least coset of the elevation's cycle.

    At cyclic lifts the single elevation of each end is the full cycle, so
    ``least`` is always 0 there.  A named tuple hashes as fast as a tuple.
    """

    vertex: str
    edge: str
    least: int


class HangingSlot(Frozen):
    """An elevation no total edge realizes.

    ``edge`` is the oriented base edge whose tau end the slot sits over, so
    two slots can be joined exactly when their edges are mutual reverses
    and their degrees agree.  ``side`` is the vertex kind of the slot's
    lift, "free" or "cyclic": ``_close_open_ends`` pools the free slots
    by edge and takes the cyclic ones as demands of their lift.
    """

    FIELDS = ("vertex", "edge", "side", "degree", "least")
    __slots__ = FIELDS

    @property
    def ref(self) -> ElevationRef:
        return ElevationRef(self.vertex, self.edge, self.least)


class PrecoverMorphism:
    """A partial cover of a graph of groups, given by explicit lift data.

    Arguments:
      base: the target graph of groups (validated, connected).
      vertex_map: total vertex name -> base vertex name.
      vertex_data: coset table per lift of a free vertex.
      cyclic_index: subgroup index per lift of a cyclic vertex.
      pairs: total pair name -> (base pair name, fwd_ref, bwd_ref) where
        fwd_ref is the elevation realized at tau of the forward orientation
        and bwd_ref the one at tau of the reverse orientation.

    What the checks need is derived at construction, in one pass over
    the lifts and one over the pairs.  ``elevation_of`` maps the ref of
    every elevation at every lift, over every oriented base edge ending at
    the lift's base vertex, to its ``Elevation``.  ``realized`` maps each
    ref some total edge realizes to the least such edge,
    ``edge_assignment`` maps each oriented total edge to its ref, and
    ``hanging`` lists the refs left unrealized as slots.  ``problems``
    lists the precover defects: degree mismatches across a pair and
    elevations realized twice.  ``sums`` is the index sum over each base
    vertex.  Of the total, ``total_graph`` is its graph, ``basepoint`` its
    base vertex, and ``vertex_rank`` and ``vertex_kind`` its vertex data.

    ``total``, the total graph of groups, is built when first read: its
    edge words are the canonical local words of the elevations the edges
    realize, the costly part, and the census, the piece test and ``h1``
    need none of them (``abelianized_presentation``).  Instances are
    treated as immutable: every operation builds a new morphism.
    """

    def __init__(
        self,
        base: GraphOfGroups,
        vertex_map: Dict[str, str],
        vertex_data: Dict[str, CosetTable],
        cyclic_index: Dict[str, int],
        pairs: Dict[str, Tuple[str, ElevationRef, ElevationRef]],
        basepoint: Optional[str] = None,
    ):
        ensure_valid(base)
        self.base = base
        vertex_map = self.vertex_map = dict(vertex_map)
        self.vertex_data = dict(vertex_data)
        self.cyclic_index = dict(cyclic_index)
        pair_spec = self.pair_spec = {q: (bp, f, b) for q, (bp, f, b) in pairs.items()}
        if not vertex_map:
            raise ValueError("a morphism needs at least one total vertex")

        gr = base.graph
        for v, b in vertex_map.items():
            if b not in gr.vertices:
                raise ValueError("lift %r of unknown base vertex %r" % (v, b))
            kind = base.vertex_kind[b]
            if kind == "free":
                t = self.vertex_data.get(v)
                if t is None:
                    raise ValueError("free lift %r has no coset table" % v)
                if t.rank != base.rank(b):
                    raise ValueError("table rank mismatch at %r" % v)
            else:
                d = self.cyclic_index.get(v)
                check_int(d, "cyclic_index")
                if not isinstance(d, int) or d < 1:
                    raise ValueError("cyclic lift %r has no index" % v)
        for v in self.vertex_data:
            if v not in vertex_map:
                raise ValueError("table for unknown lift %r" % v)
        for v in self.cyclic_index:
            if v not in vertex_map:
                raise ValueError("index for unknown lift %r" % v)

        names = sorted(vertex_map)
        elevation_of: Dict[ElevationRef, Elevation] = {}
        ranks: Dict[str, int] = {}
        kinds: Dict[str, str] = {}
        sums = dict.fromkeys(gr.vertices, 0)
        for v in names:
            b, t = vertex_map[v], self.vertex_table(v)
            kinds[v] = kind = base.vertex_kind[b]
            ranks[v] = subgroup_rank(t) if kind == "free" else 1
            sums[b] += t.size
            elevation_of.update(_lift_refs(base, b, t, v))
        self.elevation_of = elevation_of
        self.vertex_rank = ranks
        self.vertex_kind = kinds
        self.sums: Dict[str, int] = sums

        total_pairs: Dict[str, Tuple[str, str]] = {}
        assignment: Dict[str, ElevationRef] = {}
        realized: Dict[ElevationRef, str] = {}
        mismatches: List[str] = []
        repeats: Dict[ElevationRef, int] = {}
        base_pairs, tau = gr.pairs, gr.tau
        for q in sorted(pair_spec):
            if q.startswith("~"):
                raise ValueError("pair name %r may not start with '~'" % q)
            bp, fwd, bwd = pair_spec[q]
            if bp not in base_pairs:
                raise ValueError("total pair %r over unknown base pair %r" % (q, bp))
            if fwd.edge != bp or bwd.edge != reverse_edge(bp):
                raise ValueError("ref orientation mismatch at pair %r" % q)
            for ref, d in ((fwd, q), (bwd, "~" + q)):
                b = vertex_map.get(ref.vertex)
                if b is None:
                    raise ValueError("pair %r realized at unknown lift %r" % (q, ref.vertex))
                if b != tau(ref.edge):
                    raise ValueError("pair %r: lift %r is not over %r" % (q, ref.vertex, tau(ref.edge)))
                el = elevation_of.get(ref)
                if el is None:
                    raise ValueError("pair %r names a nonexistent elevation %r" % (q, ref))
                assignment[d] = ref
                # All edges that realize one ref share its orientation, so
                # the first met here is the least by name.
                if realized.setdefault(ref, d) != d:
                    repeats[ref] = repeats.get(ref, 1) + 1
            df = elevation_of[fwd].degree
            db = elevation_of[bwd].degree
            if df != db:
                mismatches.append("degree mismatch at edge %r (%d vs %d)" % (q, df, db))
            total_pairs[q] = (bwd.vertex, fwd.vertex)
        self.edge_assignment = assignment
        self.realized = realized
        self.problems: Tuple[str, ...] = tuple(mismatches) + tuple(
            "elevation %r realized by %d edges" % (ref, repeats[ref])
            for ref in sorted(repeats, key=realized.__getitem__)
        )

        self.total_graph = SerreGraph(names, total_pairs)
        if basepoint is None:
            over_base = sorted(v for v in names if vertex_map[v] == base.base_vertex)
            basepoint = over_base[0] if over_base else names[0]
        elif vertex_map.get(basepoint) != base.base_vertex:
            raise ValueError("basepoint %r is not a lift of %r" % (basepoint, base.base_vertex))
        self.basepoint = basepoint

        # realized holds refs of elevation_of only, so it holds them all
        # exactly when nothing hangs.
        self.hanging: Tuple[HangingSlot, ...] = ()
        if len(realized) < len(elevation_of):
            slots = [
                HangingSlot(ref.vertex, ref.edge, kinds[ref.vertex], el.degree, ref.least)
                for ref, el in elevation_of.items()
                if ref not in realized
            ]
            self.hanging = tuple(sorted(slots, key=lambda s: (s.vertex, s.edge, s.least)))
        self._code: Optional[tuple] = None

    @cached_property
    def total(self) -> GraphOfGroups:
        """The total graph of groups, built when first read."""
        elevation_of = self.elevation_of
        edge_words = {
            d: elevation_of[ref].local.canonical for d, ref in self.edge_assignment.items()
        }
        return GraphOfGroups(
            self.total_graph, self.vertex_rank, self.vertex_kind, edge_words, self.basepoint
        )

    def vertex_table(self, v: str) -> CosetTable:
        """Coset table of a lift; cyclic lifts materialize theirs on demand."""
        t = self.vertex_data.get(v)
        if t is not None:
            return t
        return cyclic_table(self.cyclic_index[v])

    def elevs(self, v: str, e: str) -> Tuple[Elevation, ...]:
        return _elevations(self.vertex_table(v), self.base.edge_word(e))

    def __repr__(self):
        return "<PrecoverMorphism %d vertices, %d pairs, %d hanging>" % (
            len(self.vertex_map),
            len(self.pair_spec),
            len(self.hanging),
        )


def with_basepoint(m: PrecoverMorphism, v: str) -> PrecoverMorphism:
    """The same morphism with a chosen lift of the base vertex marked; m
    itself when that lift is already its basepoint."""
    if v == m.basepoint and m.vertex_map.get(v) == m.base.base_vertex:
        return m
    return PrecoverMorphism(
        m.base, m.vertex_map, m.vertex_data, m.cyclic_index, m.pair_spec, basepoint=v
    )


# The lift and pair dicts a morphism is built from, in constructor order.
_Parts = Tuple[
    Dict[str, str], Dict[str, CosetTable], Dict[str, int],
    Dict[str, Tuple[str, ElevationRef, ElevationRef]],
]


def _union(*named: Tuple[_Parts, str]) -> _Parts:
    """One set of dicts holding every part's, in order, with the part's
    suffix appended to each of its total vertex and pair names."""
    vertex_map, vertex_data, cyclic_index, pairs = out = ({}, {}, {}, {})
    for (v_map, v_data, c_index, p_spec), suffix in named:
        vertex_map.update((v + suffix, b) for v, b in v_map.items())
        vertex_data.update((v + suffix, t) for v, t in v_data.items())
        cyclic_index.update((v + suffix, d) for v, d in c_index.items())
        pairs.update(
            (q + suffix, (bp, f._replace(vertex=f.vertex + suffix),
                          b._replace(vertex=b.vertex + suffix)))
            for q, (bp, f, b) in p_spec.items()
        )
    return out


def _parts(m: PrecoverMorphism) -> _Parts:
    return m.vertex_map, m.vertex_data, m.cyclic_index, m.pair_spec


def validate_precover(m: PrecoverMorphism) -> List[str]:
    """Degree-matched edges, each elevation realized at most once."""
    return list(m.problems)


def validate_cover(m: PrecoverMorphism) -> List[str]:
    """A precover with nothing hanging and uniform index sums."""
    problems = validate_precover(m)
    for s in m.hanging:
        problems.append("hanging slot at (%r, %r)" % (s.vertex, s.edge))
    if len(set(m.sums.values())) > 1:
        problems.append("unequal index sums: %r" % (m.sums,))
    return problems


def ensure_precover(m: PrecoverMorphism) -> None:
    problems = validate_precover(m)
    if problems:
        raise ValueError("; ".join(problems))


def degree(m: PrecoverMorphism) -> int:
    """Covering degree of a connected cover."""
    problems = validate_cover(m)
    if problems:
        raise ValueError("; ".join(problems))
    return _cover_degree(m)


def _cover_degree(m: PrecoverMorphism) -> int:
    """``degree`` of a morphism that ``validate_cover`` has passed."""
    if not _spans(m):
        raise ValueError("degree of a disconnected cover is not defined")
    return next(iter(m.sums.values()))


def _spans(m: PrecoverMorphism) -> bool:
    """Whether the breadth-first tree from the basepoint spans the total,
    which is exactly when the total is connected; the search is kept on
    the graph, and ``abelianized_presentation`` reuses it."""
    gr = m.total_graph
    return len(gr.spanning_tree(m.basepoint)) == len(gr.vertices) - 1


def predegree(m: PrecoverMorphism) -> int:
    """Largest per-base-vertex index sum: the least possible degree of a
    cover containing this precover."""
    ensure_precover(m)
    return max(m.sums.values())


def _same_base(g1: GraphOfGroups, g2: GraphOfGroups) -> bool:
    if g1 is g2:
        return True
    return (
        g1.graph.vertices == g2.graph.vertices
        and g1.graph.pairs == g2.graph.pairs
        and g1.vertex_rank == g2.vertex_rank
        and g1.vertex_kind == g2.vertex_kind
        and {e: w.letters for e, w in g1.edge_words.items()}
        == {e: w.letters for e, w in g2.edge_words.items()}
        and g1.base_vertex == g2.base_vertex
    )


def _retarget(
    pairs: Dict[str, Tuple[str, ElevationRef, ElevationRef]],
    rename: Dict[Tuple[str, str], str],
) -> Dict[str, Tuple[str, ElevationRef, ElevationRef]]:
    """Rename ref vertices keyed by (old vertex, incident oriented total edge)."""
    out = {}
    for q, (bp, fwd, bwd) in pairs.items():
        nf = rename.get((fwd.vertex, q))
        nb = rename.get((bwd.vertex, "~" + q))
        if nf is not None:
            fwd = fwd._replace(vertex=nf)
        if nb is not None:
            bwd = bwd._replace(vertex=nb)
        out[q] = (bp, fwd, bwd)
    return out


def split_cyclic(
    m: PrecoverMorphism, v: str, part: Sequence[str]
) -> PrecoverMorphism:
    """Split a cyclic lift in two along a partition of its incident edges.

    ``part`` lists oriented total edge ids (tau at v) kept by the first
    copy; the rest go to the second.  Both copies keep the index, and both
    inherit every peripheral end, so the ends moved away reopen as hanging
    slots on the other copy.
    """
    if m.vertex_kind.get(v) != "cyclic":
        raise ValueError("split of a non-cyclic vertex %r" % v)
    incident = [d for d in m.edge_assignment if m.edge_assignment[d].vertex == v]
    part = list(part)
    for d in part:
        if d not in incident:
            raise ValueError("edge %r is not incident to %r" % (d, v))
    rest = [d for d in incident if d not in part]
    if not part or not rest:
        raise ValueError("both parts of a split must be non-empty")
    v1, v2 = v + ".1", v + ".2"
    for name in (v1, v2):
        if name in m.vertex_map:
            raise ValueError("name %r already in use" % name)

    vertex_map = dict(m.vertex_map)
    b = vertex_map.pop(v)
    vertex_map[v1] = b
    vertex_map[v2] = b
    cyclic_index = dict(m.cyclic_index)
    d0 = cyclic_index.pop(v)
    cyclic_index[v1] = d0
    cyclic_index[v2] = d0
    rename = {(v, d): (v1 if d in part else v2) for d in incident}
    pairs = _retarget(m.pair_spec, rename)
    return PrecoverMorphism(m.base, vertex_map, m.vertex_data, cyclic_index, pairs)


def _check_merge(
    base: GraphOfGroups, vertex_map: Dict[str, str], cyclic_index: Dict[str, int],
    v1: str, v2: str,
) -> None:
    """Raise ValueError unless v1 and v2 are two cyclic lifts of equal index
    over the same base vertex."""
    for v in (v1, v2):
        if v not in vertex_map or base.vertex_kind[vertex_map[v]] != "cyclic":
            raise ValueError("merge of a non-cyclic vertex %r" % v)
    if v1 == v2:
        raise ValueError("merge needs two distinct vertices")
    if vertex_map[v1] != vertex_map[v2]:
        raise ValueError("merge of lifts over different base vertices")
    if cyclic_index[v1] != cyclic_index[v2]:
        raise ValueError("index mismatch: %d vs %d" % (cyclic_index[v1], cyclic_index[v2]))


# ---------------------------------------------------------------------------
# Matching engine: closing open elevation ends deterministically.


@lru_cache(maxsize=None)
def _tables(rank: int, idx: int) -> Tuple[CosetTable, ...]:
    return tuple(enumerate_subgroups(rank, idx))


def _base_shape_problems(g: GraphOfGroups) -> List[str]:
    """Why the matching engine cannot cover the valid gog g, if it cannot.

    It creates cyclic lifts only at open ends of free lifts, so a cyclic
    vertex must meet a free one by every edge and have at least one edge.
    Every edge must enter a cyclic vertex by its generator z or by z^-1:
    then a cyclic lift of index d has one elevation of degree d per end,
    which the degree screen and the tower's site search both read."""
    gr, kind = g.graph, g.vertex_kind
    problems = [
        "pair %r joins two cyclic vertices" % p
        for p in gr.pairs if kind[gr.iota(p)] == kind[gr.tau(p)] == "cyclic"
    ]
    problems += [
        "cyclic vertex %r has no edges (give it as a free vertex of rank 1)" % v
        for v in sorted(gr.vertices) if kind[v] == "cyclic" and not gr.ends(v)
    ]
    problems += [
        "edge %r enters cyclic vertex %r by the non-generator word %s (give [1] or [-1])"
        % (e, gr.tau(e), list(g.edge_word(e).letters))
        for e in sorted(gr.oriented_edges())
        if kind[gr.tau(e)] == "cyclic" and g.edge_word(e).letters not in ((1,), (-1,))
    ]
    return problems


def _check_base_shape(g: GraphOfGroups) -> None:
    """Raise ValueError with the first of ``_base_shape_problems``."""
    problems = _base_shape_problems(g)
    if problems:
        raise ValueError("unsupported base: " + problems[0])


@lru_cache(maxsize=None)
def _closing_order(
    g: GraphOfGroups,
) -> Tuple[Tuple[Tuple[str, Tuple[str, ...]], ...], Tuple[str, ...]]:
    """The order in which ``_close_open_ends`` closes ends: the cyclic
    vertices, each with its sorted ends, then the free–free pairs, all
    sorted; memoised."""
    gr, kind = g.graph, g.vertex_kind
    cyclic = tuple(
        (c, tuple(sorted(gr.ends(c)))) for c in sorted(gr.vertices) if kind[c] == "cyclic"
    )
    pairs = tuple(
        sorted(p for p in gr.pairs if kind[gr.iota(p)] == kind[gr.tau(p)] == "free")
    )
    return cyclic, pairs


@lru_cache(maxsize=None)
def _pooled_edges(g: GraphOfGroups) -> Tuple[Tuple[str, ...], ...]:
    """Groups of oriented edges whose pools a cover empties together: the
    free sides of the ends of each cyclic vertex, and the two sides of each
    free–free pair; memoised."""
    cyclic, pairs = _closing_order(g)
    return tuple(tuple(map(reverse_edge, ends)) for _, ends in cyclic) + tuple(
        (p, reverse_edge(p)) for p in pairs
    )


@lru_cache(maxsize=None)
def _signature(
    g: GraphOfGroups, b: str, table: CosetTable
) -> Tuple[Tuple[Tuple[int, int, int], int], ...]:
    """The degree signature of a lift of b with this table; memoised.

    For the k-th group of ``_pooled_edges``, its j-th pool after the first
    and each degree d, the lift's count of elevations of degree d in the
    first pool minus its count in that pool, keyed (k, j, d) and listed
    when not zero.
    """
    tau = g.graph.tau
    counts: Dict[Tuple[int, int, int], int] = {}
    for k, (first, *rest) in enumerate(_pooled_edges(g)):
        for j, e in enumerate(rest):
            for edge, sign in ((first, 1), (e, -1)):
                if tau(edge) == b:
                    for el in _elevations(table, g.edge_word(edge)):
                        key = k, j, el.degree
                        counts[key] = counts.get(key, 0) + sign
    return tuple((key, count) for key, count in counts.items() if count)


class _AnyComponents:
    """Lets every lift choice and every branch of ``_close_open_ends``
    through."""

    @staticmethod
    def admits(g: GraphOfGroups, lifts: Dict[str, Tuple[str, CosetTable]]) -> bool:
        return True

    def join(self, a: ElevationRef, b: ElevationRef, used: int) -> tuple:
        return ()

    def split(self, undo: tuple) -> None:
        pass

    def cut(self, undo: tuple) -> bool:
        return False

    def cut_at_start(self) -> bool:
        return False

    def skip(self, by: ElevationRef, ref: ElevationRef) -> bool:
        return False


@lru_cache(maxsize=None)
def _orbit_firsts(g: GraphOfGroups, b: str, table: CosetTable) -> FrozenSet[Tuple[str, int]]:
    """The elevations, as (edge, least coset), at a lift of b with this
    table that come first in their edge's pool among their orbit under the
    table's automorphisms; memoised.

    An automorphism tau renumbers the table onto itself, so the
    renumberings rho of ``_lift_code`` are rho_0 composed with each tau,
    and an elevation's least label over them is the least rho_0-label of
    its orbit: equal within an orbit, and distinct across the orbits of one
    edge, whose cycles are disjoint.
    """
    arrivals = _lift_code(g, b, table)[3]
    firsts = set()
    for e in g.graph.ends(b):
        seen = set()
        for el in _elevations(table, g.edge_word(e)):
            key = arrivals[e, el.cycle[0]][0]
            if key not in seen:
                seen.add(key)
                firsts.add((e, el.cycle[0]))
    return frozenset(firsts)


class _Components(_AnyComponents):
    """Components of the given free lifts under the joins so far, with the
    open elevation ends of each: a union-find by size, without path
    compression, whose joins ``split`` undoes in reverse order.

    A component with no open end can never grow, once the cyclic lift that
    joined it last is filled: cyclic lifts are created and filled only at
    open ends, and pairs only join open ends.  So a branch is cut as soon
    as such a component holds fewer than all the lifts.  This needs every
    open end to lie at one of the lifts, with no existing cyclic lift left
    to fill.

    It also counts the consumed ends of each lift, and ``skip`` drops a
    partner choice that a symmetry maps onto an earlier sibling.  Say the
    engine, at a state whose joins so far touch neither lift L nor L', is
    to choose the partner of ``by`` (not at L or L') and takes r at L.
    Twin lifts: if L' comes before L in pool order, over the same base
    vertex with the same table, swapping L and L' fixes the joins so far
    and ``by``.  Table automorphisms: an automorphism of L's table, on L
    alone, fixes them too.  Either map carries a cover of the branch of r
    to an isomorphic cover whose engine path makes the same choices up to
    here and then takes the image of r: at L', or at L on r's edge, which
    comes earlier in the pool.  So with an untouched twin before L, or
    with r not first of its orbit (``_orbit_firsts``), every candidate
    under r has an isomorphic candidate earlier in the order of the engine
    without skips.  So the first candidate of each class, which represents
    it, is never skipped, and the census yields the same covers in the
    same order.

    A lift's orbit firsts and twins are found at the first ``skip`` that
    consults them, which is at a lift with no consumed end: many lifts
    never are, and the orbit firsts are the costliest record of a table.
    """

    def __init__(self, g: GraphOfGroups, lifts: Dict[str, Tuple[str, CosetTable]],
                 pools: Dict[str, List[Tuple[ElevationRef, int]]]):
        names = sorted(lifts)
        self.g = g
        self.lifts = [lifts[v] for v in names]
        self.number = {v: i for i, v in enumerate(names)}
        self.parent = list(range(len(names)))
        self.size = [1] * len(names)
        self.opens = [0] * len(names)
        self.consumed = [0] * len(names)
        for entries in pools.values():
            for ref, _ in entries:
                self.opens[self.number[ref.vertex]] += 1
        self.firsts: List[Optional[FrozenSet[Tuple[str, int]]]] = [None] * len(names)
        self.twins: List[Optional[Sequence[int]]] = [None] * len(names)

    @staticmethod
    def admits(g: GraphOfGroups, lifts: Dict[str, Tuple[str, CosetTable]]) -> bool:
        """Whether the elevation degrees at these free lifts can pair up:
        the ``_signature``s of the lifts sum to zero, that is, in each group
        of ``_pooled_edges`` every pool holds the same multiset of degrees.

        Lemma: in a cover built on exactly these free lifts, a cyclic lift
        of index d over c realizes exactly one elevation of degree d in
        pool(reverse(e)) for each end e of c, and a free–free pair p joins
        one elevation of pool(p) to one of pool(~p) of the same degree.
        Every elevation is realized once and nothing hangs, so the pools of
        a group are emptied by equal multisets: they held equal ones, and
        the count of each degree in the first pool less its count in each
        later pool, which is the sum of the lifts' signatures, is zero.  A
        choice that fails therefore yields no candidate, and dropping it
        before its pools are built leaves the census's output unchanged.
        """
        total: Dict[Tuple[int, int, int], int] = {}
        for b, t in lifts.values():
            for key, count in _signature(g, b, t):
                total[key] = total.get(key, 0) + count
        return not any(total.values())

    def _find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            i = parent[i]
        return i

    def join(self, a: ElevationRef, b: ElevationRef, used: int) -> tuple:
        """Join the components of the lifts of a and b, which spend
        ``used`` open ends (b, and a too when two); returns the record
        ``split`` undoes."""
        ia, ib = self.number[a.vertex], self.number[b.vertex]
        ra, rb = self._find(ia), self._find(ib)
        size, opens = self.size, self.opens
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        spent = (ia, ib) if used == 2 else (ib,)
        undo = (ra, rb, size[ra], opens[ra], spent)
        if ra != rb:
            self.parent[rb] = ra
            size[ra] += size[rb]
            opens[ra] += opens[rb]
        opens[ra] -= used
        for i in spent:
            self.consumed[i] += 1
        return undo

    def split(self, undo: tuple) -> None:
        ra, rb, size, opens, spent = undo
        self.parent[rb] = rb
        self.size[ra] = size
        self.opens[ra] = opens
        for i in spent:
            self.consumed[i] -= 1

    def cut(self, undo: tuple) -> bool:
        """Whether the component a join made, as later joins grew it, is
        closed and misses a lift."""
        ra = self._find(undo[0])
        return self.opens[ra] == 0 and self.size[ra] < len(self.parent)

    def cut_at_start(self) -> bool:
        """Whether some lift has no open end but is not the only lift."""
        return len(self.parent) > 1 and 0 in self.opens

    def skip(self, by: ElevationRef, ref: ElevationRef) -> bool:
        """Whether a symmetry maps ``ref``, as the partner of ``by``, onto
        an earlier choice: ref's lift and ``by``'s differ, ref's has no
        consumed end, and ref is not first of its orbit or an earlier twin
        other than ``by``'s lift has no consumed end either."""
        i, k = self.number[ref.vertex], self.number[by.vertex]
        consumed = self.consumed
        if consumed[i] or i == k:
            return False
        firsts = self.firsts[i]
        if firsts is None:
            firsts = self.firsts[i] = _orbit_firsts(self.g, *self.lifts[i])
        if (ref.edge, ref.least) not in firsts:
            return True
        twins = self.twins[i]
        if twins is None:
            lift = self.lifts[i]
            twins = self.twins[i] = [j for j in range(i) if self.lifts[j] == lift]
        return any(not consumed[j] and j != k for j in twins)


def _close_open_ends(
    base: GraphOfGroups,
    pools: Dict[str, List[Tuple[ElevationRef, int]]],
    demands: Sequence[Tuple[str, int, Tuple[str, ...]]],
    room: Dict[str, int],
    taken_names: Set[str],
    budget: Budget,
    components: _AnyComponents,
) -> Iterator[Tuple[Dict[str, Tuple[str, int]], List[Tuple[str, ElevationRef, ElevationRef]]]]:
    """Yield every way to close all open elevation ends.

    ``pools`` holds the open free-side elevations per oriented base edge
    (keyed by the edge whose tau end they realize).  ``demands`` are
    existing cyclic lifts with unrealized ends; ``room`` is the total
    index of new cyclic lifts per base cyclic vertex, exactly.  Yields, in
    reused containers, (new cyclic lifts: name -> (base, index), new triples).

    ``components`` is told of every join of free lifts and may cut the
    branch a join leads to; ``_Components`` cuts those that can only give
    a disconnected total.
    """
    if not components.cut_at_start():
        state = _Closing(base, pools, demands, room, taken_names, budget, components)
        yield from _do_demands(state, 0)


class _Closing:
    """The state of one ``_close_open_ends`` search: the pools, scanned in
    place, the consumed elevations, the new cyclic lifts and pair triples
    (the containers each yield hands out), the room, taken names, budget
    and components, the demand steps in search order, and the base's
    ``_closing_order``.

    The steps of the search are module-level generator functions that
    take this object and their loop variables.  Were they nested functions
    naming each other, their closure cells would tie every lift choice's
    state into reference cycles that only the cyclic garbage collector
    frees; as it is, nothing here refers back to a step, and each choice's
    state is freed as soon as the search leaves it.
    """

    __slots__ = (
        "pools", "consumed", "new_cyclic", "out_pairs", "room", "taken_names", "budget",
        "components", "demand_steps", "cyclic", "free_pairs",
    )

    def __init__(self, base, pools, demands, room, taken_names, budget, components):
        self.pools = pools
        self.consumed: Set[ElevationRef] = set()
        self.new_cyclic: Dict[str, Tuple[str, int]] = {}
        self.out_pairs: List[Tuple[str, ElevationRef, ElevationRef]] = []
        self.room = room
        self.taken_names = taken_names
        self.budget = budget
        self.components = components
        self.demand_steps = [
            (lift, d, e) for lift, d, ends in sorted(demands) for e in sorted(ends)
        ]
        self.cyclic, self.free_pairs = _closing_order(base)

    def fresh_name(self, c: str) -> str:
        i = 0
        while True:
            name = "%s@%d" % (c, i)
            if name not in self.taken_names and name not in self.new_cyclic:
                return name
            i += 1

    # Pools are scanned in place; each loop restores ``consumed`` per entry.
    def first_open(self, e: str) -> Optional[Tuple[ElevationRef, int]]:
        consumed = self.consumed
        for rd in self.pools.get(e, ()):
            if rd[0] not in consumed:
                return rd
        return None

    def emit(self, bp: str, cyc_end: str, cyc_ref: ElevationRef, far_ref: ElevationRef):
        if cyc_end == bp:
            self.out_pairs.append((bp, cyc_ref, far_ref))
        else:
            self.out_pairs.append((bp, far_ref, cyc_ref))


def _do_demands(s: _Closing, i: int) -> Iterator[tuple]:
    """Realize the i-th and later demand steps, then the cyclic lifts."""
    if i == len(s.demand_steps):
        yield from _do_cyclic(s, 0, 0)
        return
    lift, d, e = s.demand_steps[i]
    consumed = s.consumed
    bp, own = pair_of(e), ElevationRef(lift, e, 0)
    for ref, dd in s.pools.get(reverse_edge(e), ()):
        if dd != d or ref in consumed:
            continue
        s.budget.tick()
        consumed.add(ref)
        s.emit(bp, e, own, ref)
        yield from _do_demands(s, i + 1)
        s.out_pairs.pop()
        consumed.remove(ref)


def _do_cyclic(s: _Closing, ci: int, spent: int) -> Iterator[tuple]:
    """Create the new lifts of the ci-th and later cyclic vertices, the
    ci-th having ``spent`` of its room already, then pair the free ends."""
    if ci == len(s.cyclic):
        yield from _do_pairs(s, 0)
        return
    c, ends = s.cyclic[ci]
    anchor = s.first_open(reverse_edge(ends[0])) if ends else None
    if anchor is None:
        if spent != s.room.get(c, 0):
            return
        for e in ends[1:]:
            if s.first_open(reverse_edge(e)) is not None:
                return
        yield from _do_cyclic(s, ci + 1, 0)
        return
    ref0, d = anchor
    if spent + d > s.room.get(c, 0):
        return
    name = s.fresh_name(c)
    s.consumed.add(ref0)
    s.new_cyclic[name] = (c, d)
    s.emit(pair_of(ends[0]), ends[0], ElevationRef(name, ends[0], 0), ref0)
    anchored = s.components.join(ref0, ref0, 1)
    yield from _fill(s, ci, spent, name, ref0, d, anchored, 1)
    s.components.split(anchored)
    s.out_pairs.pop()
    del s.new_cyclic[name]
    s.consumed.remove(ref0)


def _fill(
    s: _Closing, ci: int, spent: int, name: str, ref0: ElevationRef, d: int,
    anchored: tuple, j: int,
) -> Iterator[tuple]:
    """Realize the j-th and later ends of the new cyclic lift ``name`` of
    index d, anchored at ref0, then go on with the ci-th cyclic vertex."""
    ends = s.cyclic[ci][1]
    components = s.components
    if j == len(ends):
        if not components.cut(anchored):
            yield from _do_cyclic(s, ci, spent + d)
        return
    e = ends[j]
    consumed = s.consumed
    bp, own = pair_of(e), ElevationRef(name, e, 0)
    for ref, dd in s.pools.get(reverse_edge(e), ()):
        if dd != d or ref in consumed or components.skip(ref0, ref):
            continue
        s.budget.tick()
        consumed.add(ref)
        s.emit(bp, e, own, ref)
        undo = components.join(ref0, ref, 1)
        yield from _fill(s, ci, spent, name, ref0, d, anchored, j + 1)
        components.split(undo)
        s.out_pairs.pop()
        consumed.remove(ref)


def _do_pairs(s: _Closing, pi: int) -> Iterator[tuple]:
    """Join the open ends of the pi-th and later free–free pairs, then
    yield the closing."""
    if pi == len(s.free_pairs):
        yield s.new_cyclic, s.out_pairs
        return
    p = s.free_pairs[pi]
    first = s.first_open(p)
    if first is None:
        if s.first_open(reverse_edge(p)) is not None:
            return
        yield from _do_pairs(s, pi + 1)
        return
    x, dx = first
    consumed, components = s.consumed, s.components
    for y, dy in s.pools.get(reverse_edge(p), ()):
        if dy != dx or y in consumed or components.skip(x, y):
            continue
        s.budget.tick()
        consumed.add(x)
        if y != x:
            consumed.add(y)
        s.out_pairs.append((p, x, y))
        undo = components.join(x, y, 1 if y == x else 2)
        if not components.cut(undo):
            yield from _do_pairs(s, pi)
        components.split(undo)
        s.out_pairs.pop()
        consumed.discard(y)
        consumed.discard(x)


def _free_pool(
    base: GraphOfGroups,
    lifts: Dict[str, Tuple[str, CosetTable]],
) -> Dict[str, List[Tuple[ElevationRef, int]]]:
    """All elevations at the given free lifts, keyed by oriented base edge."""
    pools: Dict[str, List[Tuple[ElevationRef, int]]] = {}
    for name in sorted(lifts):
        for ref, el in _lift_refs(base, *lifts[name], name):
            pools.setdefault(ref.edge, []).append((ref, el.degree))
    return pools


def _vertex_multisets(
    rank: int, total: int
) -> List[Tuple[Tuple[int, int, CosetTable], ...]]:
    """Multisets of (index, catalog position, table) summing to total."""
    entries = []
    for i in range(1, total + 1):
        for pos, t in enumerate(_tables(rank, i)):
            entries.append((i, pos, t))
    out: List[Tuple[Tuple[int, int, CosetTable], ...]] = []
    _multisets_into(out, entries, 0, total, [])
    return out


def _multisets_into(
    out: list, entries: list, start: int, left: int, acc: List[Tuple[int, int, CosetTable]]
) -> None:
    """Append to ``out`` every multiset of entries from ``start`` on whose
    indices sum to ``left``, each after the entries in ``acc``."""
    if left == 0:
        out.append(tuple(acc))
        return
    for k in range(start, len(entries)):
        i, pos, t = entries[k]
        if i > left:
            continue
        acc.append(entries[k])
        _multisets_into(out, entries, k, left - i, acc)
        acc.pop()


# A test of a choice of new free lifts, name -> (base vertex, table); None
# keeps every choice.
_Keep = Optional[Callable[[Dict[str, Tuple[str, CosetTable]]], bool]]


def _lift_choices(
    g: GraphOfGroups,
    m: Optional[PrecoverMorphism],
    target: int,
    sep: str,
    budget: Budget,
    rules: type = _AnyComponents,
    keep: _Keep = None,
) -> Iterator[tuple]:
    """The choices of new free lifts in ``_extensions`` that ``rules``
    admits and ``keep`` (None: every choice) keeps, each as (new free
    lifts, pools, demands, room, taken names) for ``_close_open_ends``.
    Every choice costs one node, admitted and kept or not."""
    gr = g.graph
    free_vs = sorted(v for v in gr.vertices if g.vertex_kind[v] == "free")
    cyclic_vs = sorted(v for v in gr.vertices if g.vertex_kind[v] == "cyclic")
    if m is None:
        m_map, m_index = {}, {}
        sums, hanging = dict.fromkeys(gr.vertices, 0), ()
    else:
        m_map, m_index = m.vertex_map, m.cyclic_index
        sums, hanging = m.sums, m.hanging

    hang_pool: Dict[str, List[Tuple[ElevationRef, int]]] = {}
    open_cyclic: Dict[str, List[str]] = {}
    for s in hanging:
        if s.side == "free":
            hang_pool.setdefault(s.edge, []).append((s.ref, s.degree))
        else:
            open_cyclic.setdefault(s.vertex, []).append(s.edge)
    demands = [(v, m_index[v], tuple(ends)) for v, ends in open_cyclic.items()]
    room = {c: target - sums[c] for c in cyclic_vs}

    per_vertex = [_vertex_multisets(g.rank(v), target - sums[v]) for v in free_vs]
    for combo in itertools.product(*per_vertex):
        budget.tick()
        new_free: Dict[str, Tuple[str, CosetTable]] = {}
        for v, multiset in zip(free_vs, combo):
            k = 0
            for _, _, t in multiset:
                while "%s%s%d" % (v, sep, k) in m_map:
                    k += 1
                new_free["%s%s%d" % (v, sep, k)] = (v, t)
                k += 1
        if not rules.admits(g, new_free) or keep is not None and not keep(new_free):
            continue
        pools = _free_pool(g, new_free)
        for e, entries in hang_pool.items():
            pools[e] = sorted(
                pools.get(e, []) + entries, key=lambda rd: (rd[0].vertex, rd[0].least)
            )
        yield new_free, pools, demands, room, set(m_map) | set(new_free)


def _extensions(
    g: GraphOfGroups,
    m: Optional[PrecoverMorphism],
    target: int,
    sep: str,
    budget: Budget,
    keep: _Keep = None,
) -> Iterator[tuple]:
    """Every cover of degree ``target`` containing the precover ``m``
    (None: the empty precover), in matching-engine order, grouped by lift
    choice: per choice of new free lifts (name -> (base vertex, table)),
    the pair (new free lifts, closings), where closings yields the new
    cyclic lifts (name -> (base vertex, index)) and new pair triples of
    each cover of the choice.  With the new free lifts, they are the raw
    data ``_assemble`` turns into a morphism, in containers the search
    reuses once resumed.

    New free lifts run over the subgroup catalog, one multiset per free
    base vertex, named ``<base><sep><k>`` with k counting up past names
    already in use; then the open ends, hanging slots of ``m`` included,
    are closed by ``_close_open_ends``.  From the empty precover, which
    only the census starts from, only the covers with a connected total
    come out, the others in order: the search skips every lift choice
    whose elevation degrees cannot pair up and cuts every branch that can
    no longer give a connected total.  ``keep`` drops more lift choices,
    as in ``_lift_choices``.
    """
    rules = _Components if m is None else _AnyComponents
    choices = _lift_choices(g, m, target, sep, budget, rules, keep)
    for new_free, pools, demands, room, taken in choices:
        components = _Components(g, new_free, pools) if m is None else _AnyComponents()
        yield new_free, _close_open_ends(g, pools, demands, room, taken, budget, components)


def _assemble(
    g: GraphOfGroups, m: Optional[PrecoverMorphism], sep: str, raw: tuple
) -> PrecoverMorphism:
    """The cover ``m`` (None: empty) plus one ``_extensions`` cover given
    raw, as (new free lifts, new cyclic lifts, new triples), new pairs
    named ``<base pair><sep><k>`` with k counting up past names already in
    use."""
    new_free, new_cyclic, triples = raw
    vertex_map = dict(m.vertex_map) if m else {}
    vertex_data = dict(m.vertex_data) if m else {}
    cyclic_index = dict(m.cyclic_index) if m else {}
    pairs = dict(m.pair_spec) if m else {}
    for v, (b, t) in new_free.items():
        vertex_map[v] = b
        vertex_data[v] = t
    for v, (c, d) in new_cyclic.items():
        vertex_map[v] = c
        cyclic_index[v] = d
    seq: Dict[str, int] = {}
    for bp, fwd, bwd in triples:
        k = seq.get(bp, 0)
        while "%s%s%d" % (bp, sep, k) in pairs:
            k += 1
        seq[bp] = k + 1
        pairs["%s%s%d" % (bp, sep, k)] = (bp, fwd, bwd)
    out = PrecoverMorphism(g, vertex_map, vertex_data, cyclic_index, pairs)
    assert not validate_cover(out), validate_cover(out)
    return out


def _degree_covers(
    g: GraphOfGroups, n: int, budget: Budget, keep: _Keep = None
) -> Iterator[PrecoverMorphism]:
    """Connected covers of degree n in matching-engine order, one per
    rotation class, a candidate built only when it is the first of its
    class; with ``keep``, only those of the lift choices it keeps.

    Lemma: an isomorphism of covers maps each free lift to one over the
    same base vertex with a conjugate table, which is the same catalog
    table, so the multiset of (base vertex, table) of the free lifts is an
    isomorphism invariant.  ``_lift_choices`` yields each multiset once per
    degree, so no class spans two lift choices, and a candidate needs
    comparing only with the earlier ones of its own choice.  The first
    candidate of a choice is built with no code, its connected total
    checked by the breadth-first search that ``degree`` and ``h1`` read;
    codes are taken only once a second candidate arrives.
    """
    for new_free, closings in _extensions(g, None, n, "@", budget, keep):
        first: Optional[PrecoverMorphism] = None
        seen: Set[tuple] = set()
        for new_cyclic, triples in closings:
            raw = new_free, new_cyclic, triples
            if first is None:
                m = first = _assemble(g, None, "@", raw)
                assert _spans(m), "census candidate with a disconnected total"
            else:
                if not seen:
                    seen.add(canonical_code(first))
                code = _code(g, itertools.chain(new_free.items(), new_cyclic.items()), triples)
                assert len(code) == 1, "census candidate with a disconnected total"
                if code in seen:
                    continue
                seen.add(code)
                m = _assemble(g, None, "@", raw)
                m._code = code
            assert euler_characteristic(m) == n * euler_characteristic(g)
            yield m


def enumerate_covers(
    g: GraphOfGroups, max_index: int, budget: Optional[Budget] = None
) -> Iterator[PrecoverMorphism]:
    """Connected covers of degree at most max_index, one per rotation class
    (see the module docstring), in ascending degree.

    Free lifts run over the subgroup catalog; cyclic lifts are created to
    order while matching elevation ends.  No class spans two choices of
    free lifts, whose multiset of (base vertex, catalog table) every
    isomorphism keeps, so a candidate is compared only with the earlier
    ones of its choice: the first is built with no code, a later one whose
    ``canonical_code`` the choice has already seen is dropped before any
    morphism is built, and the first candidate of each class represents
    it.  At its first ``next``, before any search, raises ValueError if
    max_index is below 1 or g is invalid or of a shape the engine cannot
    cover (``_base_shape_problems``); raises BudgetExceededError when the
    search exceeds ``budget``.
    """
    check_bounds(max_index=max_index)
    ensure_valid(g)
    _check_base_shape(g)
    budget = budget or Budget()
    for n in range(1, max_index + 1):
        yield from _degree_covers(g, n, budget)


# ---------------------------------------------------------------------------
# Canonical codes of morphisms over a common base.


@lru_cache(maxsize=None)
def _lift_code(g: GraphOfGroups, b: str, data) -> tuple:
    """(descriptor, choices, starts, arrivals) of a lift of b with coset
    table ``data``, or with index ``data`` at a cyclic vertex; memoised.

    The descriptor is b with the table's class-minimal encoding (least
    ``cosets._bfs_encoding``) or the index.  Each renumbering rho attaining
    that encoding (an isomorphism onto the class-minimal table) gives one
    choice (ports, labels): ``labels`` maps each elevation, keyed (edge,
    least coset), to its least coset under rho, and ``ports`` lists (edge,
    label, least coset) in order.  ``starts`` are the choices with the
    least port list, and ``arrivals`` maps each elevation to its least
    label and the choices of least port list among those giving it.
    """
    ends = sorted(g.graph.ends(b))
    if isinstance(data, int):
        key, choices = data, [(tuple((e, 0, 0) for e in ends), {(e, 0): 0 for e in ends})]
    else:
        encodings = [_bfs_encoding(data, s) for s in range(data.size)]
        key = min(enc for enc, _ in encodings)
        choices = []
        for rho in (rho for enc, rho in encodings if enc == key):
            labels = {
                (e, el.cycle[0]): min(rho[c] for c in el.cycle)
                for e in ends
                for el in _elevations(data, g.edge_word(e))
            }
            choices.append((tuple(sorted((e, lab, c) for (e, c), lab in labels.items())), labels))
    lists = sorted({tuple(p[:2] for p in ports) for ports, _ in choices})
    rank = [lists.index(tuple(p[:2] for p in ports)) for ports, _ in choices]
    arrivals = {}
    for end in choices[0][1]:
        keys = [(labels[end], r) for (_, labels), r in zip(choices, rank)]
        low = min(keys)
        arrivals[end] = (low[0], tuple(k for k, x in enumerate(keys) if x == low))
    starts = tuple(k for k, r in enumerate(rank) if r == 0)
    return (b, key), tuple(choices), starts, arrivals


def _component_code(
    lifts: Sequence[str], info: Dict[str, tuple], partner: Dict[ElevationRef, ElevationRef]
) -> Optional[tuple]:
    """The least breadth-first code of a component, or None when a walk
    from one of its roots reaches fewer than all of ``lifts``.

    The roots are the lifts of the descriptor with the fewest starting
    choices (lifts times ``starts``; the least descriptor on a tie).  A
    walk starts at a root with one of its ``starts``, numbers lifts as it
    reaches them and lists, per lift, its descriptor and then its ports in
    (edge, label) order, each with its partner's number and label, or
    (-1, -1) when it hangs.  A newly reached lift takes the ``arrivals``
    choices of its arrival port; more than one forks the walk.  A walk is
    dropped once its code exceeds the least so far.
    """
    by_desc: Dict[tuple, List[str]] = {}
    for v in lifts:
        by_desc.setdefault(info[v][0], []).append(v)
    roots = by_desc[min(by_desc, key=lambda d: (len(by_desc[d]) * len(info[by_desc[d][0]][2]), d))]
    best: Optional[list] = None
    pending = [([r], {r: 0}, [k], [], 0, 0) for r in roots for k in info[r][2]]
    while pending:
        # Walks pop last in, first out, and fork only after their last token
        # is level with or below the least code, which then shares their
        # prefix: a popped walk's code so far is a prefix of the least code.
        order, num, sig, code, i, p = pending.pop()
        less = best is None
        dead = False
        while i < len(order) and not dead:
            v = order[i]
            desc, choices = info[v][:2]
            ports = choices[sig[i]][0]
            while p <= len(ports):
                ks = ()
                if p == 0:
                    tok = desc
                else:
                    e, lab, least = ports[p - 1]
                    far = partner.get((v, e, least))
                    if far is None:
                        tok = (e, lab, -1, -1)
                    else:
                        w, fe, fl = far
                        j = num.get(w)
                        if j is not None:
                            tok = (e, lab, j, info[w][1][sig[j]][1][fe, fl])
                        else:
                            low, ks = info[w][3][fe, fl]
                            j = num[w] = len(order)
                            order.append(w)
                            sig.append(ks[0])
                            tok = (e, lab, j, low)
                p += 1
                if not less:
                    old = best[len(code)]
                    if tok != old:
                        if tok > old:
                            dead = True
                            break
                        less = True
                for k in ks[1:]:
                    pending.append((order.copy(), num.copy(), sig[:j] + [k], code + [tok], i, p))
                code.append(tok)
            i += 1
            p = 0
        if dead:
            continue
        if best is None and len(order) < len(lifts):
            return None
        if less:
            best = code
    return tuple(best)


def _code(g: GraphOfGroups, lifts, triples) -> tuple:
    """The sorted tuple of component codes of the lifts (name -> (base
    vertex, table or cyclic index)) joined by the pair triples."""
    info = {v: _lift_code(g, b, data) for v, (b, data) in lifts}
    partner: Dict[ElevationRef, ElevationRef] = {}
    for _, f, b in triples:
        if f in partner or b in partner:
            raise ValueError("canonical codes need each elevation realized at most once")
        partner[f] = b
        partner[b] = f
    code = _component_code(list(info), info, partner)
    if code is not None:
        return (code,)
    codes = []
    left = set(info)
    while left:
        comp = [min(left)]
        left.remove(comp[0])
        for v in comp:
            for e, _, least in info[v][1][0][0]:
                far = partner.get((v, e, least))
                if far is not None and far[0] in left:
                    left.remove(far[0])
                    comp.append(far[0])
        codes.append(_component_code(comp, info, partner))
    return tuple(sorted(codes))


def canonical_code(m: PrecoverMorphism) -> tuple:
    """A code two morphisms over one base share exactly when they are
    ``isomorphic``; cached on m, which must realize each elevation at most
    once (as every precover does).

    Each component is coded by breadth-first walks over its lifts, in the
    style of Sims' standard coset tables: free lifts' cosets are renumbered
    onto the class-minimal table, elevations are labelled by their least
    renumbered coset, and each port records its partner's walk number and
    label (``_component_code``).
    """
    if m._code is None:
        data = itertools.chain(m.vertex_data.items(), m.cyclic_index.items())
        lifts = ((v, (m.vertex_map[v], d)) for v, d in data)
        m._code = _code(m.base, lifts, m.pair_spec.values())
    return m._code


def isomorphic(m1: PrecoverMorphism, m2: PrecoverMorphism) -> bool:
    """Whether two morphisms differ only by renaming lifts compatibly: a
    fiberwise bijection of lifts, with a table isomorphism per free lift
    and equal indices at cyclic lifts, carrying every edge assignment of
    one onto the other.  Basepoints are ignored and the totals may be
    disconnected.  Decided as equal bases and equal ``canonical_code``s.
    """
    if m1 is m2:
        return True
    return _same_base(m1.base, m2.base) and canonical_code(m1) == canonical_code(m2)


# ---------------------------------------------------------------------------
# Completion.


def complete(
    m: PrecoverMorphism, bound: int, budget: Optional[Budget] = None
) -> Optional[PrecoverMorphism]:
    """Extend a precover to a cover by adding at most ``bound`` total index.

    Searches degrees in ascending order; within a degree, new free lifts
    run over the subgroup catalog and open ends are matched exactly as in
    cover enumeration.  Hanging slots of the input may be glued to each
    other, to new lifts, or to new cyclic vertices.  Returns None when no
    completion exists within the bound.  Raises BudgetExceededError when
    the search exceeds ``budget``; ValueError if bound is below 0.
    """
    check_bounds(bound=bound)
    ensure_precover(m)
    if not validate_cover(m):
        return m
    _check_base_shape(m.base)
    budget = budget or Budget()
    for target in itertools.count(max(m.sums.values())):
        if sum(target - s for s in m.sums.values()) > bound:
            return None
        for new_free, closings in _extensions(m.base, m, target, "+", budget):
            for new_cyclic, triples in closings:
                return _assemble(m.base, m, "+", (new_free, new_cyclic, triples))


# ---------------------------------------------------------------------------
# Torsion pieces and chains.


class TorsionPiece(Frozen):
    """A split cover whose homology shows p-torsion against its boundary.

    ``morphism`` is a cover with one cyclic lift split in two; ``c1`` keeps
    a single incident edge and ``c2`` the rest.  ``certificate`` is the
    first homology of the piece with both boundary classes killed; its
    p-part is what chaining copies multiplies up.  Left out, it is
    computed from the morphism when first read: of the commands, only
    ``validate`` reads the certificate of a piece it loads.  The instance
    keeps a ``__dict__`` for it.
    """

    FIELDS = ("morphism", "c1", "c2", "prime", "certificate")
    __slots__ = FIELDS[:4] + ("__dict__",)

    def __init__(
        self, morphism: PrecoverMorphism, c1: str, c2: str, prime: int,
        certificate: Optional[AbelianGroup] = None,
    ):
        _set(self, "morphism", morphism)
        _set(self, "c1", c1)
        _set(self, "c2", c2)
        _set(self, "prime", prime)
        if certificate is not None:
            _set(self, "certificate", certificate)

    @cached_property
    def certificate(self) -> AbelianGroup:
        return h1_mod_cyclic(self.morphism, [self.c1, self.c2])

    @property
    def boundary_index(self) -> int:
        return self.morphism.cyclic_index[self.c1]


def _cut_vertices(gr: SerreGraph) -> Set[str]:
    """The vertices whose removal disconnects the connected graph gr, from
    one depth-first search (Hopcroft and Tarjan, CACM 16, 1973).

    ``low[v]`` is the least discovery number reachable from v's subtree by
    one edge that leaves it.  A vertex other than the root is a cut vertex
    exactly when some child's ``low`` reaches no higher than the vertex
    itself; the root is one exactly when it has two children or more.
    """
    root = gr.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    cut: Set[str] = set()
    root_children = 0
    stack = [(root, iter(gr.ends(root)))]
    while stack:
        v, edges = stack[-1]
        for e in edges:
            w = gr.iota(e)
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, iter(gr.ends(w))))
                break
            low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if u == root:
                    root_children += 1
                elif low[v] >= disc[u]:
                    cut.add(u)
    if root_children > 1:
        cut.add(root)
    return cut


def find_torsion_piece(
    g: GraphOfGroups, p: int, max_index: int, budget: Optional[Budget] = None
) -> Optional[TorsionPiece]:
    """Search small covers for a cyclic lift whose splitting certifies
    p-torsion.

    Scans covers in enumeration order and, in each, the non-cut cyclic
    lifts with at least two incident edges in name order.  The first lift
    v that passes is split as ``split_cyclic(m, v, [d])``, d its least
    incident edge, and returned with its certificate; None if no lift
    passes.

    No split is built to test a lift.  Killing the generator of column j
    adds the unit relation e_j to the abelianized presentation R, and
    Z^n/(R + Z·e_j) ≅ Z^(n-1)/R_j with R_j the matrix R without column j:
    killing a generator deletes its column.  A row of R touches vertex
    columns only, so splitting v keeps every row and moves v's column to
    v.1 or v.2, and killing both deletes the columns that killing v
    deletes in the unsplit cover; the split has one vertex more and the
    same pairs, hence one stable column fewer.  So for every incident edge
    d, ``h1_mod_cyclic(split_cyclic(m, v, [d]), [v.1, v.2])`` has the
    divisors of ``h1_mod_cyclic(m, [v])`` and betti one less, and v passes
    exactly when the latter has p-torsion.

    At most two eliminations per cover decide every lift
    (``_torsion_lifts``).  Lemma: coker(R_j) has p-torsion exactly when
    rank_Fp(R_j) < rank_Q(R_j), as the invariant factors divisible by p
    are the nonzero ones that vanish mod p.  Over either field rank(R_j)
    is rank(R) - 1 when j is a coloop of R (e_j in its row space) and
    rank(R) otherwise, so ``rank_coloops`` over F_p and over Q, once per
    cover, gives rank(R_j) for every j.  The rank of a matrix over F_p
    never exceeds its rank over Q, so when R has full row rank over F_p
    the two ranks of R agree, and a lift passes only when its column is a
    coloop over F_p and not over Q: when no eligible column is a coloop
    over F_p, the cover fails without the elimination over Q.  Raises
    ValueError if max_index is below 1.
    """
    check_bounds(max_index=max_index)
    _check_prime(p)
    return _torsion_piece_in(enumerate_covers(g, max_index, budget), p)


def _torsion_lifts(m: PrecoverMorphism, p: int) -> List[Tuple[str, List[str]]]:
    """The cyclic lifts of m that ``find_torsion_piece`` passes, in name
    order, each with its incident edges in order: non-cut, with two
    incident edges or more, and leaving p-torsion once killed.  The cut
    vertices are found once, when some lift has two incident edges, and
    the eliminations run once, when some lift is eligible; the one over Q
    only when the one over F_p does not decide."""
    eligible = []
    cut = None
    for v in sorted(m.cyclic_index):
        incident = sorted(d for d, ref in m.edge_assignment.items() if ref.vertex == v)
        if len(incident) < 2:
            continue
        if cut is None:
            cut = _cut_vertices(m.total_graph)
        if v not in cut:
            eligible.append((v, incident))
    if not eligible:
        return []
    roster, matrix = abelianized_presentation(m)
    cols = [cyclic_column(m, roster, v) for v, _ in eligible]
    rank_p, loose_p = rank_coloops(matrix, p)
    if rank_p == matrix.rows and loose_p.isdisjoint(cols):
        return []
    rank_q, loose_q = rank_coloops(matrix)
    return [
        lift for lift, col in zip(eligible, cols)
        if rank_p - (col in loose_p) < rank_q - (col in loose_q)
    ]


def _torsion_piece_in(covers: Iterable[PrecoverMorphism], p: int) -> Optional[TorsionPiece]:
    for m in covers:
        for v, incident in _torsion_lifts(m, p):
            piece = split_cyclic(m, v, [incident[0]])
            q = h1_mod_cyclic(piece, [v + ".1", v + ".2"])
            if p_rank(q, p) == 0:
                raise RuntimeError("split of %r lost the %d-torsion of its cover" % (v, p))
            return TorsionPiece(piece, v + ".1", v + ".2", p, q)
    return None


def _chain_parts(piece: TorsionPiece, copies: int) -> _Parts:
    """The lift and pair dicts of ``chain(piece, copies)``.

    For two copies or more, copy i's lifts and pairs carry the suffix "#i",
    and copy i+1's c2 is merged into copy i's c1 with the checks of a cyclic
    merge.  These are the dicts ``chain_oracle`` in ``tests/_oracles.py``
    reaches by renaming, splicing and merging one construction at a time,
    written directly, so the chain is built with one construction.  A
    piece with precover defects raises them, named as copy 1's when there
    are two copies or more.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    m = piece.morphism
    if copies == 1:
        ensure_precover(m)
        return _parts(m)
    if m.problems:
        ensure_precover(PrecoverMorphism(m.base, *_union((_parts(m), "#1"))))  # copy 1's names
    vertex_map, vertex_data, cyclic_index, pairs = _union(
        *((_parts(m), "#%d" % i) for i in range(1, copies + 1))
    )
    incident = [d for d, ref in m.edge_assignment.items() if ref.vertex == piece.c2]
    rename: Dict[Tuple[str, str], str] = {}
    for i in range(1, copies):
        v1, v2 = "%s#%d" % (piece.c1, i), "%s#%d" % (piece.c2, i + 1)
        _check_merge(m.base, vertex_map, cyclic_index, v1, v2)
        del vertex_map[v2], cyclic_index[v2]
        rename.update(((v2, "%s#%d" % (d, i + 1)), v1) for d in incident)
    return vertex_map, vertex_data, cyclic_index, _retarget(pairs, rename)


def chain(piece: TorsionPiece, copies: int) -> PrecoverMorphism:
    """Concatenate copies of a torsion piece end to end.

    Copy i's single-edge boundary vertex is merged with copy i+1's other
    boundary vertex, leaving one open boundary on each end of the chain.
    One copy is the piece itself, once it is checked to be a precover.
    """
    check_int(copies, "copies")
    parts = _chain_parts(piece, copies)
    if copies == 1:
        return piece.morphism
    return PrecoverMorphism(piece.morphism.base, *parts)


# ---------------------------------------------------------------------------
# Walking words through a cover.


class InSubgroup(Frozen):
    """The lifted walk closes up at the basepoint."""

    __slots__ = ()


class ExitsAt(Frozen):
    """The lifted walk leaves the subgroup.

    ``position`` counts fully traversed segments (syllables and crossings
    alternate, starting with a syllable); a walk that survives every
    segment but ends away from the basepoint reports the total segment
    count.  ``vertex`` and ``coset`` locate the walk when it stopped.
    """

    FIELDS = ("position", "vertex", "coset")
    __slots__ = FIELDS


def lift_word(m: PrecoverMorphism, gw: GogWord):
    """Trace a closed base word through the total space.

    Returns InSubgroup when the walk from the basepoint lift closes up,
    ExitsAt otherwise.  On precovers the walk can also stop mid-way at a
    hanging slot; the crossing uses the canonical rotation, matching cycle
    positions counted from the least coset on both sides.
    """
    ensure_precover(m)
    problems = gw.validate_on(m.base)
    if problems:
        raise ValueError("; ".join(problems))
    if not gw.is_closed(m.base):
        raise ValueError("only closed words can be tested for membership")
    start = m.basepoint
    if m.vertex_map[start] != gw.start:
        raise ValueError(
            "word starts at %r but the basepoint lift is over %r"
            % (gw.start, m.vertex_map[start])
        )
    v, c = start, 0
    position = 0
    for i, syl in enumerate(gw.syllables):
        if not syl.is_identity():
            c = m.vertex_table(v).act_word(c, syl)
        position += 1
        if i < len(gw.crossings):
            e = gw.crossings[i]
            end = reverse_edge(e)
            el = next(cand for cand in m.elevs(v, end) if c in cand.cycle)
            d_rev = m.realized.get(ElevationRef(v, end, el.cycle[0]))
            if d_rev is None:
                return ExitsAt(position, v, c)
            ref2 = m.edge_assignment[reverse_edge(d_rev)]
            el2 = m.elevation_of[ref2]
            pos = el.cycle.index(c)
            v, c = ref2.vertex, el2.cycle[pos]
            position += 1
    if v == start and c == 0:
        return InSubgroup()
    return ExitsAt(position, v, c)


# ---------------------------------------------------------------------------
# Towers.


class TowerBounds(Frozen):
    """Search limits for tower construction, all small by design.

    Both index bounds are at least 1; ``complete_bound`` and
    ``max_word_length`` are at least 0.  Construction raises ValueError on
    a value out of range and TypeError on a bool, so a run never starts a
    search with one.
    """

    FIELDS = ("max_cover_index", "max_piece_index", "complete_bound", "max_word_length")
    __slots__ = FIELDS

    def __init__(
        self,
        max_cover_index: int = 4,
        max_piece_index: int = 4,
        complete_bound: int = 24,
        max_word_length: int = 6,
    ):
        check_bounds(
            max_cover_index=max_cover_index, max_piece_index=max_piece_index,
            complete_bound=complete_bound, max_word_length=max_word_length,
        )
        _set(self, "max_cover_index", max_cover_index)
        _set(self, "max_piece_index", max_piece_index)
        _set(self, "complete_bound", complete_bound)
        _set(self, "max_word_length", max_word_length)


class TowerStep(Frozen):
    """One completed tower step, with its fields in this order.

    ``step`` is n and ``prime`` its prime p; ``relative_degree`` is the
    degree of the step's cover over the previous base and
    ``total_degree`` its degree over the tower's base.  ``alpha`` pieces
    were chained and ``beta`` site covers detached; ``piece_predegree``
    is the piece's predegree h.  ``exponents`` maps each tracked prime to
    its torsion exponent in the cover.  ``excluded_word`` is the step's
    closed word ("" if none), ``excluded`` says whether it exits the
    cover, and ``exclusion_note`` says why not ("" when it does).
    ``site_distance`` is the distance from the basepoint of the detached
    site cover to the site's free end.
    """

    FIELDS = (
        "step", "prime", "relative_degree", "total_degree", "alpha", "beta",
        "piece_predegree", "exponents", "excluded_word", "excluded",
        "exclusion_note", "site_distance",
    )
    __slots__ = FIELDS


class TowerReport(Frozen):
    """Everything a tower run produced, failures included.

    ``status`` is "ok" or "failed:<stage>:<reason>"; steps lists only the
    completed steps and the ledger carries the verified ratio data.
    """

    FIELDS = (
        "base", "primes", "requested_steps", "steps", "ledger", "base_exponents", "status",
    )
    __slots__ = FIELDS

    def to_csv(self) -> str:
        def row(lead: Sequence[str], exps: Dict[int, int], deg: int, status: str) -> str:
            ratios = [Fraction(exps[p], deg) if p in exps else None for p in self.primes]
            cells = [str(exps[p]) if p in exps else "" for p in self.primes]
            cells += ["" if r is None else "%d/%d" % (r.numerator, r.denominator) for r in ratios]
            return ",".join(list(lead) + cells + [status])

        header = ["e_%d" % p for p in self.primes] + ["ratio_%d" % p for p in self.primes]
        base = {p: self.base_exponents.get(p, 0) for p in self.primes}
        lines = [",".join(["step", "prime", "degree"] + header + ["status"])]
        lines.append(row(("0", "", "1"), base, 1, "base"))
        for st in self.steps:
            lead = (str(st.step), str(st.prime), str(st.total_degree))
            lines.append(row(lead, st.exponents, st.total_degree, "ok"))
        if self.status != "ok":
            lead = (str(len(self.steps) + 1), "", "")
            lines.append(row(lead, {}, 1, self.status.replace(",", ";")))
        return "\n".join(lines) + "\n"


class _StageFailure(Exception):
    """A tower step stopped at ``stage`` for ``reason``."""

    def __init__(self, stage: str, reason: str):
        super().__init__("%s: %s" % (stage, reason))
        self.stage, self.reason = stage, reason


def _site_stage(
    g: GraphOfGroups, n: int, piece: TorsionPiece, e1: str, bounds: TowerBounds,
    budget: Budget,
) -> Tuple[PrecoverMorphism, str, int, Optional[GogWord], str]:
    """The cover a step detaches, its site, and the step's word.

    A site is a total edge over e1's pair whose cyclic end has the piece's
    boundary index d_p; each cover offers its site farthest from the
    basepoint, the least by name among ties.  The word is the n-th closed
    word within ``max_word_length``.  Of the census covers of g of index <=
    ``max_cover_index``, in census order, the first with a site that the
    word exits is taken, else the first with a site.  Returns (cover, site,
    distance, word, note), where note is the exclusion note that stands if
    the word does not exit the step's cover.

    The stage runs its own census, screened by lift choice with the two
    lemmas below, so it builds only covers it can take.  A screened choice
    still costs its node, and the census compares covers only within one
    choice, so the kept choices yield the same covers in the same order.

    Site lemma: a census cover has a site exactly when one of its free
    lifts has an elevation of degree d_p over ~e1.  Each elevation over ~e1
    is realized once, against a cyclic lift at e1's end, and e1's word is z
    or z^-1 (``_base_shape_problems``), so that lift's index is the
    elevation's degree.

    Exit lemma: a word without crossings is one syllable at the base
    vertex, and it lies in the subgroup exactly when its walk in the
    basepoint's coset table closes up (Stallings, Invent. Math. 71, 1983),
    that is, when it fixes coset 0.  At a free base vertex the basepoint is
    the least-named lift over it, a free lift, so the lift choice decides
    whether the word exits.

    So the search keeps a choice when it has a site and, once the fallback
    is found, when the word exits it; the exit test is skipped when the
    word has crossings, when there is no word, or when the base vertex is
    cyclic.  The first cover yielded is the fallback, and the first that
    the word exits is the answer.
    """
    words = enumerate_closed_words(g, bounds.max_word_length)
    word = next(itertools.islice(words, n - 1, None), None)
    d_p, side = piece.boundary_index, reverse_edge(e1)
    u, side_word = g.graph.tau(side), g.edge_word(side)
    screened = (
        word is not None and not word.crossings and g.vertex_kind[g.base_vertex] == "free"
    )
    first = None

    def keep(lifts: Dict[str, Tuple[str, CosetTable]]) -> bool:
        if not any(
            el.degree == d_p
            for b, t in lifts.values() if b == u
            for el in _elevations(t, side_word)
        ):
            return False
        if first is None or not screened:
            return True
        basepoint = min(v for v, (b, _) in lifts.items() if b == g.base_vertex)
        return lifts[basepoint][1].act_word(0, word.syllables[0]) != 0

    covers = (
        m for k in range(1, bounds.max_cover_index + 1) for m in _degree_covers(g, k, budget, keep)
    )
    for cover in covers:
        sites = []
        for q, (bp, fwd, bwd) in cover.pair_spec.items():
            if bp != pair_of(e1):
                continue
            cyc, free = (fwd, bwd) if fwd.edge == e1 else (bwd, fwd)
            if cover.cyclic_index[cyc.vertex] == d_p:
                dist = cover.total_graph.distance(cover.basepoint, free.vertex)
                sites.append((dist, q))
        dist, site = min(sites, key=lambda s: (-s[0], s[1]))
        if word is not None and isinstance(lift_word(cover, word), ExitsAt):
            return cover, site, dist, word, "word re-enters after assembly"
        if first is None:
            first = (cover, site, dist)
            if word is None:
                break
    if first is None:
        raise _StageFailure(
            "site",
            "no cover of index <= %d detaches at a cyclic lift of index %d over %r"
            % (bounds.max_cover_index, d_p, piece.morphism.vertex_map[piece.c1]),
        )
    if word is None:
        note = "no nontrivial closed word within length %d" % bounds.max_word_length
    else:
        note = "word lifts into every candidate cover of index <= %d" % bounds.max_cover_index
    return first + (word, note)


def _build_connector(base: GraphOfGroups, u: str, d: int) -> PrecoverMorphism:
    """A single lift of the free vertex u on which every peripheral word
    elevates with degree exactly d; all its elevations hang.
    ``prescribe_degrees`` has read every degree off the table it returns."""
    targets = [base.edge_word(e) for e in base.graph.ends(u)]
    res = prescribe_degrees(base.rank(u), targets, [d] * len(targets))
    if res is None or res.scale != 1:
        raise _StageFailure(
            "connector",
            "no finite quotient gives every peripheral word at %r degree %d" % (u, d),
        )
    name = u + "@A"
    return PrecoverMorphism(base, {name: u}, {name: res.table}, {}, {})


def _copy_count(n: int, h: int, k_p: int, ell: int, n_a: int) -> Tuple[int, int]:
    """(β, α0) for step n, from the piece's predegree h and least index sum
    k_p, the site cover's degree ell and the connector's index n_a.

    β is the least count of detached site covers, up to ``MAX_BETA``, whose
    share β·ell of the predegree β·ell + β·α0·k_p + n_a is at least
    1 - 2^-n (β = 1 at step 1); α0 >= 1 is the least chain length with
    α0·β·(2^(n+1)·h - k_p) >= β·ell + n_a.  Only β = 1 is built.
    """
    growth = 2 ** (n + 1) * h - k_p
    if growth <= 0:
        raise _StageFailure("assembly", "piece predegree too small to meet the bound")
    for beta in range(1, MAX_BETA + 1):
        alpha0 = max(1, -(-(beta * ell + n_a) // (beta * growth)))
        d_pred = beta * ell + beta * alpha0 * k_p + n_a
        if n == 1 or Fraction(beta * ell, d_pred) >= 1 - Fraction(1, 2**n):
            break
    else:
        raise _StageFailure("assembly", "no copy count keeps enough of the previous cover")
    if beta > 1:
        raise _StageFailure(
            "assembly", "step needs %d detached copies; only one is supported" % beta
        )
    return beta, alpha0


def _completion_stage(
    piece: TorsionPiece, alpha: int, e1: str, cover: PrecoverMorphism, site: str,
    connector: PrecoverMorphism, bounds: TowerBounds, budget: Budget,
) -> PrecoverMorphism:
    """The chain of alpha pieces joined into the site cover through the
    connector with one construction, then completed within ``complete_bound``.

    The parts, in order: the site cover without ``site`` (suffix "!L"), the
    chain ("!K") and the connector ("!C").  Joins ``<base pair>@s<k>``, k =
    0, 1, ..., take the site's free ref to the chain's tail c2 over e1, the
    site's cyclic ref to the connector over ~e1, and the chain's head c1
    over each other end e of the boundary vertex, in sorted order, to the
    connector over ~e.  The basepoint is the site cover's.  That is the
    morphism ``step_assembly_oracle`` in ``tests/_oracles.py`` composes
    from the detached, renamed parts, with no slot to look up: a census
    cover realizes every elevation exactly once, so detaching the site
    leaves its two refs hanging; ``split_cyclic`` leaves c1 one edge, so c2
    hangs over e1 and c1 over every other end; and the connector lifts the
    free vertex at the boundary, so it has an elevation over every ~e, the
    one through coset 0 with least coset 0.  A ValueError from the
    construction fails the stage.

    ``complete`` searches only when the joins leave a slot hanging: when
    the connector's index n_a exceeds the boundary index d_p, when the
    connector's vertex has ends away from the boundary vertex, or, once
    β > 1 is built, at the further detached copies.  Otherwise, as on every
    one-step tower measured, it returns the joined cover itself.
    """
    detached = {q: spec for q, spec in cover.pair_spec.items() if q != site}
    vertex_map, vertex_data, cyclic_index, pairs = _union(
        ((cover.vertex_map, cover.vertex_data, cover.cyclic_index, detached), "!L"),
        (_chain_parts(piece, alpha), "!K"),
        (_parts(connector), "!C"),
    )
    _, fwd, bwd = cover.pair_spec[site]
    cyc, free = (fwd, bwd) if fwd.edge == e1 else (bwd, fwd)
    (a,) = connector.vertex_map
    gr = cover.base.graph
    conn = {e: ElevationRef(a + "!C", reverse_edge(e), 0) for e in sorted(gr.ends(gr.tau(e1)))}
    tail = ElevationRef(piece.c2 + ("#1" if alpha > 1 else "") + "!K", e1, 0)
    head = piece.c1 + ("#%d" % alpha if alpha > 1 else "") + "!K"
    joins = [
        (free._replace(vertex=free.vertex + "!L"), tail),
        (cyc._replace(vertex=cyc.vertex + "!L"), conn.pop(e1)),
    ]
    joins += [(ElevationRef(head, e, 0), ref) for e, ref in conn.items()]
    for k, (r, s) in enumerate(joins):
        bp = pair_of(r.edge)
        pairs["%s@s%d" % (bp, k)] = (bp, r, s) if r.edge == bp else (bp, s, r)
    try:
        asm = PrecoverMorphism(
            cover.base, vertex_map, vertex_data, cyclic_index, pairs,
            basepoint=cover.basepoint + "!L",
        )
    except ValueError as exc:
        raise _StageFailure("completion", str(exc))
    cover_n = complete(asm, bounds.complete_bound, budget)
    if cover_n is None:
        raise _StageFailure(
            "completion", "no completion within added index %d" % bounds.complete_bound
        )
    if not cover_n.total_graph.is_connected():
        raise _StageFailure("completion", "assembled cover is disconnected")
    return cover_n


def _ledger_stage(
    cover_n: PrecoverMorphism, tracked: Sequence[int], ledger: TowerLedger,
    n: int, p: int, total: int, h: int,
) -> Tuple[Dict[int, int], TowerLedger]:
    """The tracked exponents of the step-n cover of total degree ``total``,
    and a copy of the ledger with its row added and checked."""
    a = h1(cover_n)
    exps = {q: torsion_exponent(a, q) for q in tracked}
    trial = TowerLedger(intro=dict(ledger.intro), rows=list(ledger.rows))
    try:
        ledger_update(trial, step=n, prime=p, degree=total, exponents=exps, piece_predegree=h)
    except ValueError as exc:
        raise _StageFailure("completion", str(exc))
    problems = ledger_check(trial)
    if problems:
        raise _StageFailure("completion", problems[0])
    return exps, trial


def _tower_step(
    b: GraphOfGroups, n: int, p: int, tracked: Sequence[int], bounds: TowerBounds,
    budget: Budget, ledger: TowerLedger, degree_so_far: int,
) -> Tuple[TowerStep, PrecoverMorphism, TowerLedger]:
    """Step n over the base b, stage by stage; a stage that finds nothing
    raises ``_StageFailure``."""
    piece = _torsion_piece_in(enumerate_covers(b, bounds.max_piece_index, budget), p)
    if piece is None:
        raise _StageFailure(
            "piece", "no p=%d torsion piece within index %d" % (p, bounds.max_piece_index)
        )
    c_base = piece.morphism.vertex_map[piece.c1]
    far = {b.graph.iota(e) for e in b.graph.ends(c_base)}
    if len(far) != 1:
        raise _StageFailure("assembly", "boundary vertex %r meets several free vertices" % c_base)
    (u,) = far
    e1 = next(r.edge for r in piece.morphism.edge_assignment.values() if r.vertex == piece.c1)
    cover, site, site_distance, word, note = _site_stage(b, n, piece, e1, bounds, budget)
    connector = _build_connector(b, u, piece.boundary_index)
    h = predegree(piece.morphism)
    n_a = connector.vertex_data[u + "@A"].size
    beta, alpha = _copy_count(n, h, min(piece.morphism.sums.values()), degree(cover), n_a)
    cover_n = _completion_stage(piece, alpha, e1, cover, site, connector, bounds, budget)
    cover_n = with_basepoint(cover_n, cover.basepoint + "!L")
    rel = degree(cover_n)
    exps, trial = _ledger_stage(cover_n, tracked, ledger, n, p, degree_so_far * rel, h)
    excluded = word is not None and isinstance(lift_word(cover_n, word), ExitsAt)
    step = TowerStep(
        step=n, prime=p, relative_degree=rel, total_degree=degree_so_far * rel,
        alpha=alpha, beta=beta, piece_predegree=h, exponents=exps,
        excluded_word=str(word) if word is not None else "", excluded=excluded,
        exclusion_note="" if excluded else note, site_distance=site_distance,
    )
    return step, cover_n, trial


def build_tower(
    g: GraphOfGroups,
    primes: Sequence[int],
    steps: int,
    bounds: Optional[TowerBounds] = None,
    budget: Optional[Budget] = None,
) -> TowerReport:
    """Grow a tower of covers, one new prime per step, ledgered throughout.

    Each step finds a torsion piece for its prime in the current base,
    chains enough copies, joins the chain into a detached excluding cover
    through a prescribed-degree connector as one morphism, completes,
    measures the torsion exponents and updates the ledger.  Stops early with a
    "failed:<stage>:<reason>" status when any stage finds nothing within
    its bounds; completed steps stay in the report.  Every census and
    completion draws from ``budget``, by default ``Budget(DEFAULT_BUDGET)``.
    """
    ensure_valid(g)
    _check_base_shape(g)
    check_int(steps, "steps")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    primes = tuple(primes)
    for p in primes:
        _check_prime(p)
    if len(primes) < steps:
        raise ValueError("need one prime per step")
    bounds = bounds or TowerBounds()
    budget = budget or Budget(DEFAULT_BUDGET)

    base_h1 = h1(g)
    base_exps = {p: torsion_exponent(base_h1, p) for p in primes}
    ledger = TowerLedger()
    done: List[TowerStep] = []
    current = g
    total_degree = 1
    status = "ok"
    for n in range(1, steps + 1):
        try:
            step, cover_n, ledger = _tower_step(
                current,
                n,
                primes[n - 1],
                primes[:n],
                bounds,
                budget,
                ledger,
                total_degree,
            )
        except _StageFailure as exc:
            status = "failed:%s:%s" % (exc.stage, exc.reason)
            break
        except BudgetExceededError as exc:
            status = "failed:budget:%s" % exc
            break
        done.append(step)
        if n < steps:
            current = cover_n.total  # the next step's base
        total_degree = step.total_degree
    return TowerReport(
        base=g,
        primes=primes,
        requested_steps=steps,
        steps=tuple(done),
        ledger=ledger,
        base_exponents=base_exps,
        status=status,
    )
