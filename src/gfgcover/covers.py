"""Precovers and covers of graphs of free groups with cyclic edge groups.

A precover assigns finite-index data to lifts of the base vertices: a coset
table for each lift of a free vertex, and a bare index for each lift of a
cyclic vertex (the rank-one free group has exactly one subgroup per index,
so nothing more is needed).  Every total edge realizes one elevation of the
base edge word on each of its two sides, with matching degrees.  Elevations
that no total edge realizes are hanging slots, the loose ends available for
splicing.

The data is deliberately rotation-free: a total edge records which two
elevations it joins but not which of the finitely many circle rotations
glues them.  Rotations never change ranks, Euler characteristics, degrees
or abelianizations, which is everything computed here; where a concrete
gluing is needed (``lift_word``), the rotation pairing the least coset of
one cycle with the least coset of the other is used throughout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .cosets import (
    CosetTable,
    Elevation,
    _bfs_encoding,
    cyclic_table,
    elevations,
    enumerate_subgroups,
    prescribe_degrees,
    subgroup_rank,
    whole_group_table,
)
from .errors import BudgetExceededError
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
    cokernel,
    cyclic_column,
    h1,
    h1_mod_cyclic,
    ledger_check,
    ledger_update,
    p_rank,
    torsion_exponent,
)
from .words import Word

DEFAULT_BUDGET = 200_000


@lru_cache(maxsize=None)
def _elevations(table: CosetTable, word: Word) -> Tuple[Elevation, ...]:
    """``elevations`` memoised for this layer.

    Its tables are mostly catalog tables from ``_tables`` and cyclic tables,
    so the keys stay few.  ``cosets.elevations`` itself stays uncached:
    ``prescribe_degrees`` calls it on many throw-away tables.
    """
    return tuple(elevations(table, word))


class ElevationRef(NamedTuple):
    """Names one elevation: a total vertex, the tau-oriented base edge whose
    word elevates there, and the least coset of the elevation's cycle.

    At cyclic lifts the single elevation of each end is the full cycle, so
    ``least`` is always 0 there.  A named tuple hashes as fast as a tuple.
    """

    vertex: str
    edge: str
    least: int


@dataclass(frozen=True)
class HangingSlot:
    """An elevation no total edge realizes.

    ``edge`` is the oriented base edge whose tau end the slot sits over, so
    two slots can be spliced exactly when their edges are mutual reverses
    and their degrees agree.
    """

    vertex: str
    edge: str
    side: str
    degree: int
    least: int

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

    Everything else is derived once, at construction.  ``elevation_of``
    maps the ref of every elevation at every lift, over every oriented
    base edge ending at the lift's base vertex, to its ``Elevation``.
    ``realized`` maps each ref some total edge realizes to the least such
    edge, ``edge_assignment`` maps each oriented total edge to its ref,
    and ``hanging`` lists the refs left unrealized as slots.  ``problems``
    lists the precover defects: degree mismatches across a pair and
    elevations realized twice.  ``sums`` is the index sum over each base
    vertex, and ``total`` the total graph of groups.  Instances are
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
        self.vertex_map = dict(vertex_map)
        self.vertex_data = dict(vertex_data)
        self.cyclic_index = dict(cyclic_index)
        self.pair_spec = {q: (bp, f, b) for q, (bp, f, b) in pairs.items()}
        if not self.vertex_map:
            raise ValueError("a morphism needs at least one total vertex")

        gr = base.graph
        for v, b in self.vertex_map.items():
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
                if not isinstance(d, int) or d < 1:
                    raise ValueError("cyclic lift %r has no index" % v)
        for v in self.vertex_data:
            if v not in self.vertex_map:
                raise ValueError("table for unknown lift %r" % v)
        for v in self.cyclic_index:
            if v not in self.vertex_map:
                raise ValueError("index for unknown lift %r" % v)

        names = sorted(self.vertex_map)
        self.elevation_of: Dict[ElevationRef, Elevation] = {}
        for v in names:
            self.elevation_of.update(
                _lift_elevations(base, v, self.vertex_map[v], self.vertex_table(v))
            )

        total_pairs: Dict[str, Tuple[str, str]] = {}
        edge_words: Dict[str, Word] = {}
        self.edge_assignment: Dict[str, ElevationRef] = {}
        self.realized: Dict[ElevationRef, str] = {}
        mismatches: List[str] = []
        repeats: Dict[ElevationRef, int] = {}
        for q in sorted(self.pair_spec):
            if q.startswith("~"):
                raise ValueError("pair name %r may not start with '~'" % q)
            bp, fwd, bwd = self.pair_spec[q]
            if bp not in gr.pairs:
                raise ValueError("total pair %r over unknown base pair %r" % (q, bp))
            if fwd.edge != bp or bwd.edge != reverse_edge(bp):
                raise ValueError("ref orientation mismatch at pair %r" % q)
            for ref, d in ((fwd, q), (bwd, "~" + q)):
                if ref.vertex not in self.vertex_map:
                    raise ValueError("pair %r realized at unknown lift %r" % (q, ref.vertex))
                if self.vertex_map[ref.vertex] != gr.tau(ref.edge):
                    raise ValueError("pair %r: lift %r is not over %r" % (q, ref.vertex, gr.tau(ref.edge)))
                el = self.elevation_of.get(ref)
                if el is None:
                    raise ValueError("pair %r names a nonexistent elevation %r" % (q, ref))
                edge_words[d] = el.local.canonical
                self.edge_assignment[d] = ref
                # All edges that realize one ref share its orientation, so
                # the first met here is the least by name.
                if self.realized.setdefault(ref, d) != d:
                    repeats[ref] = repeats.get(ref, 1) + 1
            df = self.elevation_of[fwd].degree
            db = self.elevation_of[bwd].degree
            if df != db:
                mismatches.append("degree mismatch at edge %r (%d vs %d)" % (q, df, db))
            total_pairs[q] = (bwd.vertex, fwd.vertex)
        self.problems: Tuple[str, ...] = tuple(mismatches) + tuple(
            "elevation %r realized by %d edges" % (ref, repeats[ref])
            for ref in sorted(repeats, key=self.realized.__getitem__)
        )

        graph = SerreGraph(names, total_pairs)
        ranks = {}
        kinds = {}
        for v in names:
            b = self.vertex_map[v]
            kinds[v] = base.vertex_kind[b]
            if kinds[v] == "free":
                ranks[v] = subgroup_rank(self.vertex_data[v])
            else:
                ranks[v] = 1
        if basepoint is None:
            over_base = sorted(v for v in names if self.vertex_map[v] == base.base_vertex)
            basepoint = over_base[0] if over_base else names[0]
        elif self.vertex_map.get(basepoint) != base.base_vertex:
            raise ValueError("basepoint %r is not a lift of %r" % (basepoint, base.base_vertex))
        self.total = GraphOfGroups(graph, ranks, kinds, edge_words, basepoint)

        slots = [
            HangingSlot(ref.vertex, ref.edge, kinds[ref.vertex], el.degree, ref.least)
            for ref, el in self.elevation_of.items()
            if ref not in self.realized
        ]
        self.hanging: Tuple[HangingSlot, ...] = tuple(
            sorted(slots, key=lambda s: (s.vertex, s.edge, s.least))
        )

        sums = {b: 0 for b in gr.vertices}
        for v in names:
            sums[self.vertex_map[v]] += self.vertex_index(v)
        self.sums: Dict[str, int] = sums
        self._code: Optional[tuple] = None

    def vertex_table(self, v: str) -> CosetTable:
        """Coset table of a lift; cyclic lifts materialize theirs on demand."""
        t = self.vertex_data.get(v)
        if t is not None:
            return t
        return cyclic_table(self.cyclic_index[v])

    def vertex_index(self, v: str) -> int:
        t = self.vertex_data.get(v)
        return t.size if t is not None else self.cyclic_index[v]

    def elevs(self, v: str, e: str) -> Tuple[Elevation, ...]:
        return _elevations(self.vertex_table(v), self.base.edge_word(e))

    def __repr__(self):
        return "<PrecoverMorphism %d vertices, %d pairs, %d hanging>" % (
            len(self.vertex_map),
            len(self.pair_spec),
            len(self.hanging),
        )


def _lift_elevations(
    base: GraphOfGroups, name: str, b: str, table: CosetTable
) -> Iterator[Tuple[ElevationRef, Elevation]]:
    """Every elevation at the lift ``name`` of b with the given table: one
    per cycle of each edge word ending at b, with its ref."""
    for e in base.graph.ends(b):
        for el in _elevations(table, base.edge_word(e)):
            yield ElevationRef(name, e, el.cycle[0]), el


def identity_cover(g: GraphOfGroups) -> PrecoverMorphism:
    """The degree-one cover: one lift of everything."""
    vertex_map = {}
    vertex_data = {}
    cyclic_index = {}
    for v in g.graph.vertices:
        name = v + "@0"
        vertex_map[name] = v
        if g.vertex_kind[v] == "free":
            vertex_data[name] = whole_group_table(g.rank(v))
        else:
            cyclic_index[name] = 1
    pairs = {}
    for p in sorted(g.graph.pairs):
        fwd = ElevationRef(g.graph.tau(p) + "@0", p, 0)
        bwd = ElevationRef(g.graph.iota(p) + "@0", reverse_edge(p), 0)
        pairs[p + "@0"] = (p, fwd, bwd)
    return PrecoverMorphism(g, vertex_map, vertex_data, cyclic_index, pairs)


def with_basepoint(m: PrecoverMorphism, v: str) -> PrecoverMorphism:
    """The same morphism with a chosen lift of the base vertex marked."""
    return PrecoverMorphism(
        m.base, m.vertex_map, m.vertex_data, m.cyclic_index, m.pair_spec, basepoint=v
    )


def rename_total(m: PrecoverMorphism, suffix: str) -> PrecoverMorphism:
    """Append a suffix to every total vertex and pair name."""
    if not suffix:
        raise ValueError("empty suffix")

    def rv(v: str) -> str:
        return v + suffix

    def rr(ref: ElevationRef) -> ElevationRef:
        return ref._replace(vertex=rv(ref.vertex))

    return PrecoverMorphism(
        m.base,
        {rv(v): b for v, b in m.vertex_map.items()},
        {rv(v): t for v, t in m.vertex_data.items()},
        {rv(v): d for v, d in m.cyclic_index.items()},
        {q + suffix: (bp, rr(f), rr(b)) for q, (bp, f, b) in m.pair_spec.items()},
    )


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
    if not m.total.graph.is_connected():
        raise ValueError("degree of a disconnected cover is not defined")
    return next(iter(m.sums.values()))


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
    if m.total.vertex_kind.get(v) != "cyclic":
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


def merge_cyclic(m: PrecoverMorphism, v1: str, v2: str) -> PrecoverMorphism:
    """Merge two cyclic lifts of equal index over the same base vertex.

    The merged vertex keeps the first name and both edge sets.  Inverse to
    ``split_cyclic`` along the partition the two vertices record.
    """
    for v in (v1, v2):
        if m.total.vertex_kind.get(v) != "cyclic":
            raise ValueError("merge of a non-cyclic vertex %r" % v)
    if v1 == v2:
        raise ValueError("merge needs two distinct vertices")
    if m.vertex_map[v1] != m.vertex_map[v2]:
        raise ValueError("merge of lifts over different base vertices")
    if m.cyclic_index[v1] != m.cyclic_index[v2]:
        raise ValueError(
            "index mismatch: %d vs %d" % (m.cyclic_index[v1], m.cyclic_index[v2])
        )
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


# ---------------------------------------------------------------------------
# Matching engine: closing open elevation ends deterministically.


@lru_cache(maxsize=None)
def _tables(rank: int, idx: int) -> Tuple[CosetTable, ...]:
    return tuple(enumerate_subgroups(rank, idx))


def _tick(counter: List[int], cap: Optional[int]) -> None:
    counter[0] += 1
    if cap is not None and counter[0] > cap:
        raise BudgetExceededError("search budget exceeded (%d nodes)" % cap)


def _check_base_shape(g: GraphOfGroups) -> None:
    gr = g.graph
    for p in gr.pairs:
        kinds = {g.vertex_kind[gr.iota(p)], g.vertex_kind[gr.tau(p)]}
        if kinds == {"cyclic"}:
            raise ValueError("unsupported base: pair %r joins two cyclic vertices" % p)


def _close_open_ends(
    base: GraphOfGroups,
    pools: Dict[str, List[Tuple[ElevationRef, int]]],
    demands: Sequence[Tuple[str, int, Tuple[str, ...]]],
    budgets: Dict[str, int],
    taken_names: Set[str],
    counter: List[int],
    cap: Optional[int],
) -> Iterator[Tuple[Dict[str, Tuple[str, int]], List[Tuple[str, ElevationRef, ElevationRef]]]]:
    """Yield every way to close all open elevation ends.

    ``pools`` holds the open free-side elevations per oriented base edge
    (keyed by the edge whose tau end they realize).  ``demands`` are
    existing cyclic lifts with unrealized ends; ``budgets`` caps the total
    index of new cyclic lifts per base cyclic vertex, exactly.  Yields, in
    reused containers, (new cyclic lifts: name -> (base, index), new triples).
    """
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

    def open_entries(e: str) -> List[Tuple[ElevationRef, int]]:
        return [(r, d) for (r, d) in pools.get(e, []) if r not in consumed]

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
        far = open_entries(reverse_edge(e))
        for ref, dd in far:
            if dd != d:
                continue
            _tick(counter, cap)
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
        anchor_pool = open_entries(reverse_edge(ends[0])) if ends else []
        if not anchor_pool:
            if spent != budgets.get(c, 0):
                return
            for e in ends[1:]:
                if open_entries(reverse_edge(e)):
                    return
            yield from do_cyclic(ci + 1, 0)
            return
        ref0, d = anchor_pool[0]
        if spent + d > budgets.get(c, 0):
            return
        name = fresh_name(c)
        consumed.add(ref0)
        new_cyclic[name] = (c, d)
        emit(pair_of(ends[0]), ends[0], ElevationRef(name, ends[0], 0), ref0)

        def fill(j: int) -> Iterator[None]:
            if j == len(ends):
                yield from do_cyclic(ci, spent + d)
                return
            e = ends[j]
            for ref, dd in open_entries(reverse_edge(e)):
                if dd != d:
                    continue
                _tick(counter, cap)
                consumed.add(ref)
                emit(pair_of(e), e, ElevationRef(name, e, 0), ref)
                yield from fill(j + 1)
                out_pairs.pop()
                consumed.remove(ref)

        yield from fill(1)
        out_pairs.pop()
        del new_cyclic[name]
        consumed.remove(ref0)

    def do_pairs(pi: int) -> Iterator[None]:
        if pi == len(free_pairs):
            yield new_cyclic, out_pairs
            return
        p = free_pairs[pi]
        fwd_open = open_entries(p)
        bwd_open = open_entries(reverse_edge(p))
        if not fwd_open:
            if bwd_open:
                return
            yield from do_pairs(pi + 1)
            return
        x, dx = fwd_open[0]
        for y, dy in bwd_open:
            if dy != dx:
                continue
            _tick(counter, cap)
            consumed.add(x)
            if y != x:
                consumed.add(y)
            out_pairs.append((p, x, y))
            yield from do_pairs(pi)
            out_pairs.pop()
            consumed.discard(y)
            consumed.discard(x)

    yield from do_demands(0)


def _free_pool(
    base: GraphOfGroups,
    lifts: Dict[str, Tuple[str, CosetTable]],
) -> Dict[str, List[Tuple[ElevationRef, int]]]:
    """All elevations at the given free lifts, keyed by oriented base edge."""
    pools: Dict[str, List[Tuple[ElevationRef, int]]] = {}
    for name in sorted(lifts):
        b, table = lifts[name]
        for ref, el in _lift_elevations(base, name, b, table):
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

    def rec(start: int, left: int, acc: List[Tuple[int, int, CosetTable]]):
        if left == 0:
            out.append(tuple(acc))
            return
        for k in range(start, len(entries)):
            i, pos, t = entries[k]
            if i > left:
                continue
            acc.append(entries[k])
            rec(k, left - i, acc)
            acc.pop()

    rec(0, total, [])
    return out


def _extensions(
    g: GraphOfGroups,
    m: Optional[PrecoverMorphism],
    target: int,
    sep: str,
    counter: List[int],
    cap: Optional[int],
) -> Iterator[tuple]:
    """Every cover of degree ``target`` containing the precover ``m``
    (None: the empty precover), in matching-engine order, as the raw data
    ``_assemble`` turns into a morphism: new free lifts (name -> (base
    vertex, table)), new cyclic lifts (name -> (base vertex, index)) and
    new pair triples, in containers the search reuses once resumed.

    New free lifts run over the subgroup catalog, one multiset per free
    base vertex, named ``<base><sep><k>`` with k counting up past names
    already in use; then the open ends, hanging slots of ``m`` included,
    are closed by ``_close_open_ends``.
    """
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
    budgets = {c: target - sums[c] for c in cyclic_vs}

    per_vertex = [_vertex_multisets(g.rank(v), target - sums[v]) for v in free_vs]
    for combo in itertools.product(*per_vertex):
        _tick(counter, cap)
        new_free: Dict[str, Tuple[str, CosetTable]] = {}
        for v, multiset in zip(free_vs, combo):
            k = 0
            for _, _, t in multiset:
                while "%s%s%d" % (v, sep, k) in m_map:
                    k += 1
                new_free["%s%s%d" % (v, sep, k)] = (v, t)
                k += 1
        pools = _free_pool(g, new_free)
        for e, entries in hang_pool.items():
            pools[e] = sorted(
                pools.get(e, []) + entries, key=lambda rd: (rd[0].vertex, rd[0].least)
            )
        taken = set(m_map) | set(new_free)
        for new_cyclic, triples in _close_open_ends(
            g, pools, demands, budgets, taken, counter, cap
        ):
            yield new_free, new_cyclic, triples


def _assemble(
    g: GraphOfGroups, m: Optional[PrecoverMorphism], sep: str, raw: tuple
) -> PrecoverMorphism:
    """The cover ``m`` (None: empty) plus one raw ``_extensions`` result,
    new pairs named ``<base pair><sep><k>`` with k counting up past names
    already in use."""
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
    g: GraphOfGroups, n: int, counter: List[int], cap: Optional[int]
) -> Iterator[PrecoverMorphism]:
    """Connected covers of degree n in matching-engine order, a candidate
    built only when its canonical code is new (the first of its class)."""
    seen: Set[tuple] = set()
    for raw in _extensions(g, None, n, "@", counter, cap):
        new_free, new_cyclic, triples = raw
        lifts = itertools.chain(new_free.items(), new_cyclic.items())
        code = _code(g, lifts, triples, connected_only=True)
        if code is None or code in seen:
            continue
        seen.add(code)
        m = _assemble(g, None, "@", raw)
        assert euler_characteristic(m.total) == n * euler_characteristic(g)
        m._code = code
        yield m


class CoverCensus:
    """The connected covers of one base, enumerated once and replayed:
    ``covers(max_index)`` yields what ``enumerate_covers(g, max_index,
    cap)`` yields.  Each degree is searched once, as far as some caller has
    read.  One node counter serves all callers, so the budget runs out at
    the same cover as in a fresh enumeration, and stays spent."""

    def __init__(self, g: GraphOfGroups, cap: Optional[int] = None):
        ensure_valid(g)
        _check_base_shape(g)
        self.base, self._cap, self._counter = g, cap, [0]
        self._degrees: Dict[int, Tuple[List[PrecoverMorphism], Optional[Iterator]]] = {}
        self._failure: Optional[BudgetExceededError] = None

    def covers(self, max_index: int) -> Iterator[PrecoverMorphism]:
        for n in range(1, max_index + 1):
            if n not in self._degrees:
                self._degrees[n] = ([], _degree_covers(self.base, n, self._counter, self._cap))
            found, search = self._degrees[n]
            for i in itertools.count():
                if i == len(found):
                    if search is None:
                        break
                    if self._failure is not None:
                        raise BudgetExceededError(str(self._failure))
                    try:
                        m = next(search, None)
                    except BudgetExceededError as exc:
                        self._failure = exc
                        raise
                    if m is None:
                        self._degrees[n] = (found, None)
                        break
                    found.append(m)
                yield found[i]


def enumerate_covers(
    g: GraphOfGroups, max_index: int, cap: Optional[int] = None
) -> Iterator[PrecoverMorphism]:
    """Connected covers of degree at most max_index, one per isomorphism
    class, in ascending degree.

    Free lifts run over the subgroup catalog; cyclic lifts are created to
    order while matching elevation ends.  A candidate whose
    ``canonical_code`` was already seen is dropped before any morphism is
    built, so the first candidate of each class represents it.  Raises
    BudgetExceededError when the search exceeds ``cap`` nodes.
    """
    yield from CoverCensus(g, cap).covers(max_index)


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


def _code(g: GraphOfGroups, lifts, triples, connected_only: bool = False) -> Optional[tuple]:
    """The sorted tuple of component codes of the lifts (name -> (base
    vertex, table or cyclic index)) joined by the pair triples; None for a
    disconnected total when ``connected_only``."""
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
    if connected_only:
        return None
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
    m: PrecoverMorphism, bound: int, cap: Optional[int] = None
) -> Optional[PrecoverMorphism]:
    """Extend a precover to a cover by adding at most ``bound`` total index.

    Searches degrees in ascending order; within a degree, new free lifts
    run over the subgroup catalog and open ends are matched exactly as in
    cover enumeration.  Hanging slots of the input may be glued to each
    other, to new lifts, or to new cyclic vertices.  Returns None when no
    completion exists within the bound.
    """
    ensure_precover(m)
    if not validate_cover(m):
        return m
    _check_base_shape(m.base)
    counter = [0]
    for target in itertools.count(max(m.sums.values())):
        if sum(target - s for s in m.sums.values()) > bound:
            return None
        for raw in _extensions(m.base, m, target, "+", counter, cap):
            return _assemble(m.base, m, "+", raw)


# ---------------------------------------------------------------------------
# Torsion pieces and chains.


@dataclass(frozen=True)
class TorsionPiece:
    """A split cover whose homology shows p-torsion against its boundary.

    ``morphism`` is a cover with one cyclic lift split in two; ``c1`` keeps
    a single incident edge and ``c2`` the rest.  ``certificate`` is the
    first homology of the piece with both boundary classes killed; its
    p-part is what chaining copies multiplies up.
    """

    morphism: PrecoverMorphism
    c1: str
    c2: str
    prime: int
    certificate: AbelianGroup

    @property
    def boundary_index(self) -> int:
        return self.morphism.cyclic_index[self.c1]


def _is_cut_vertex(gr: SerreGraph, v: str) -> bool:
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


def find_torsion_piece(
    g: GraphOfGroups, p: int, max_index: int, cap: Optional[int] = None
) -> Optional[TorsionPiece]:
    """Search small covers for a cyclic lift whose splitting certifies
    p-torsion.

    Scans covers in enumeration order and, in each, the non-cut cyclic
    lifts with at least two incident edges in name order.  The first lift
    v that passes is split as ``split_cyclic(m, v, [d])``, d its least
    incident edge, and returned with its certificate; None if no lift
    passes.

    No split is built to test a lift.  A row of the abelianized
    presentation touches vertex columns only, so splitting v keeps every
    row and moves v's column to v.1 or v.2, and killing both deletes the
    columns that killing v deletes in the unsplit cover; the split has one
    vertex more and the same pairs, hence one stable column fewer.  So for
    every incident edge d, ``h1_mod_cyclic(split_cyclic(m, v, [d]), [v.1,
    v.2])`` has the divisors of ``h1_mod_cyclic(m, [v])`` and betti one
    less, and v passes exactly when the latter has p-torsion.
    """
    _check_prime(p)
    return _torsion_piece_in(CoverCensus(g, cap).covers(max_index), p)


def _torsion_piece_in(covers: Iterable[PrecoverMorphism], p: int) -> Optional[TorsionPiece]:
    for m in covers:
        presentation = None
        for v in sorted(m.cyclic_index):
            incident = sorted(
                d for d, ref in m.edge_assignment.items() if ref.vertex == v
            )
            if len(incident) < 2 or _is_cut_vertex(m.total.graph, v):
                continue
            if presentation is None:
                presentation = abelianized_presentation(m.total)
            roster, matrix = presentation
            col = cyclic_column(m.total, roster, v)
            if p_rank(cokernel(matrix.without_columns([col])), p) == 0:
                continue
            piece = split_cyclic(m, v, [incident[0]])
            q = h1_mod_cyclic(piece, [v + ".1", v + ".2"])
            if p_rank(q, p) == 0:
                raise RuntimeError("split of %r lost the %d-torsion of its cover" % (v, p))
            return TorsionPiece(piece, v + ".1", v + ".2", p, q)
    return None


def chain(piece: TorsionPiece, copies: int) -> PrecoverMorphism:
    """Concatenate copies of a torsion piece end to end.

    Copy i's single-edge boundary vertex is merged with copy i+1's other
    boundary vertex, leaving one open boundary on each end of the chain.
    One copy is the piece itself.
    """
    if copies < 1:
        raise ValueError("need at least one copy")
    if copies == 1:
        return piece.morphism
    parts = [rename_total(piece.morphism, "#%d" % i) for i in range(1, copies + 1)]
    out = splice(parts, [])
    for i in range(1, copies):
        out = merge_cyclic(out, "%s#%d" % (piece.c1, i), "%s#%d" % (piece.c2, i + 1))
    return out


# ---------------------------------------------------------------------------
# Walking words through a cover.


@dataclass(frozen=True)
class InSubgroup:
    """The lifted walk closes up at the basepoint."""


@dataclass(frozen=True)
class ExitsAt:
    """The lifted walk leaves the subgroup.

    ``position`` counts fully traversed segments (syllables and crossings
    alternate, starting with a syllable); a walk that survives every
    segment but ends away from the basepoint reports the total segment
    count.  ``vertex`` and ``coset`` locate the walk when it stopped.
    """

    position: int
    vertex: str
    coset: int


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
    start = m.total.base_vertex
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


@dataclass(frozen=True)
class TowerBounds:
    """Search limits for tower construction, all small by design."""

    max_cover_index: int = 4
    max_piece_index: int = 4
    complete_bound: int = 24
    max_word_length: int = 6
    max_beta: int = 16
    max_alpha_retries: int = 4


@dataclass(frozen=True)
class TowerStep:
    step: int
    prime: int
    relative_degree: int
    total_degree: int
    alpha: int
    beta: int
    piece_predegree: int
    exponents: Dict[int, int]
    excluded_word: str
    excluded: bool
    exclusion_note: str
    site_distance: int


@dataclass(frozen=True)
class TowerReport:
    """Everything a tower run produced, failures included.

    ``status`` is "ok" or "failed:<stage>:<reason>"; steps lists only the
    completed steps and the ledger carries the verified ratio data.
    """

    base: GraphOfGroups
    primes: Tuple[int, ...]
    requested_steps: int
    steps: Tuple[TowerStep, ...]
    ledger: TowerLedger
    base_exponents: Dict[int, int]
    status: str

    @property
    def completed_steps(self) -> int:
        return len(self.steps)

    def to_csv(self) -> str:
        cols = ["step", "prime", "degree"]
        for p in self.primes:
            cols.append("e_%d" % p)
        for p in self.primes:
            cols.append("ratio_%d" % p)
        cols.append("status")
        lines = [",".join(cols)]

        def fmt_ratio(e: int, deg: int) -> str:
            fr = Fraction(e, deg)
            return "%d/%d" % (fr.numerator, fr.denominator)

        row = ["0", "", "1"]
        for p in self.primes:
            row.append(str(self.base_exponents.get(p, 0)))
        for p in self.primes:
            row.append(fmt_ratio(self.base_exponents.get(p, 0), 1))
        row.append("base")
        lines.append(",".join(row))

        for st in self.steps:
            row = [str(st.step), str(st.prime), str(st.total_degree)]
            for p in self.primes:
                row.append(str(st.exponents[p]) if p in st.exponents else "")
            for p in self.primes:
                if p in st.exponents:
                    row.append(fmt_ratio(st.exponents[p], st.total_degree))
                else:
                    row.append("")
            row.append("ok")
            lines.append(",".join(row))

        if self.status != "ok":
            row = [str(len(self.steps) + 1), "", ""]
            row.extend([""] * (2 * len(self.primes)))
            row.append(self.status.replace(",", ";"))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


class _StageFailure(Exception):
    def __init__(self, stage: str, reason: str):
        super().__init__("%s: %s" % (stage, reason))
        self.stage = stage
        self.reason = reason


def _nth_nontrivial_word(
    g: GraphOfGroups, n: int, max_length: int
) -> Optional[GogWord]:
    return next(itertools.islice(enumerate_closed_words(g, max_length), n - 1, None), None)


def _build_connector(
    base: GraphOfGroups, u: str, d: int
) -> Optional[PrecoverMorphism]:
    """A single lift of the free vertex u on which every peripheral word
    elevates with degree exactly d; all its elevations hang.
    ``prescribe_degrees`` has read every degree off the table it returns."""
    targets = [base.edge_word(e) for e in base.graph.ends(u)]
    if not targets:
        return None
    res = prescribe_degrees(base.rank(u), targets, [d] * len(targets))
    if res is None or res.scale != 1:
        return None
    name = u + "@A"
    return PrecoverMorphism(base, {name: u}, {name: res.table}, {}, {})


def _tower_step(
    b: GraphOfGroups,
    n: int,
    p: int,
    tracked: Sequence[int],
    bounds: TowerBounds,
    budget: Optional[int],
    ledger: TowerLedger,
    degree_so_far: int,
) -> Tuple[TowerStep, PrecoverMorphism, TowerLedger]:
    word = _nth_nontrivial_word(b, n, bounds.max_word_length)

    census = CoverCensus(b, budget)
    piece = _torsion_piece_in(census.covers(bounds.max_piece_index), p)
    if piece is None:
        raise _StageFailure(
            "piece", "no p=%d torsion piece within index %d" % (p, bounds.max_piece_index)
        )
    d_p = piece.boundary_index
    h = predegree(piece.morphism)
    k_p = min(piece.morphism.sums.values())
    c_base = piece.morphism.vertex_map[piece.c1]
    e1 = next(
        ref.edge
        for ref in piece.morphism.edge_assignment.values()
        if ref.vertex == piece.c1
    )
    gr = b.graph
    ends_c = sorted(gr.ends(c_base))
    far = {gr.iota(e) for e in ends_c}
    if len(far) != 1:
        raise _StageFailure(
            "assembly", "boundary vertex %r meets several free vertices" % c_base
        )
    u = far.pop()

    chosen = None
    fallback = None
    for cover in census.covers(bounds.max_cover_index):
        sites = []
        for q, (bp, fwd, bwd) in sorted(cover.pair_spec.items()):
            if bp != pair_of(e1):
                continue
            cyc_ref = fwd if cover.total.vertex_kind[fwd.vertex] == "cyclic" else bwd
            if cover.cyclic_index.get(cyc_ref.vertex) != d_p:
                continue
            free_ref = bwd if cyc_ref is fwd else fwd
            dist = cover.total.graph.distance(
                cover.total.base_vertex, free_ref.vertex
            )
            sites.append((-dist, q))
        if not sites:
            continue
        sites.sort()
        site = sites[0][1]
        dist = -sites[0][0]
        if word is not None and isinstance(lift_word(cover, word), ExitsAt):
            chosen = (cover, site, dist, True)
            break
        if fallback is None:
            fallback = (cover, site, dist, False)
    if chosen is None:
        chosen = fallback
    if chosen is None:
        raise _StageFailure(
            "site",
            "no cover of index <= %d detaches at a cyclic lift of index %d over %r"
            % (bounds.max_cover_index, d_p, c_base),
        )
    cover, site, site_distance, excluded_in_l = chosen
    ell = degree(cover)

    connector = _build_connector(b, u, d_p)
    if connector is None:
        raise _StageFailure(
            "connector",
            "no finite quotient gives every peripheral word at %r degree %d" % (u, d_p),
        )
    n_a = connector.vertex_data[u + "@A"].size

    growth = 2 ** (n + 1) * h - k_p
    if growth <= 0:
        raise _StageFailure("assembly", "piece predegree too small to meet the bound")

    beta = None
    alpha0 = None
    for cand in range(1, bounds.max_beta + 1):
        a0 = max(1, -(-(cand * ell + n_a) // (cand * growth)))
        if n == 1:
            beta, alpha0 = cand, a0
            break
        d_pred = cand * ell + cand * a0 * k_p + n_a
        if Fraction(cand * ell, d_pred) >= 1 - Fraction(1, 2**n):
            beta, alpha0 = cand, a0
            break
    if beta is None:
        raise _StageFailure(
            "assembly", "no copy count keeps enough of the previous cover"
        )
    if beta > 1:
        raise _StageFailure(
            "assembly", "step needs %d detached copies; only one is supported" % beta
        )

    detached = rename_total(detach_edge(cover, site), "!L")
    last_error = None
    for alpha in range(alpha0, alpha0 + bounds.max_alpha_retries + 1):
        body = rename_total(chain(piece, alpha), "!K")
        conn = rename_total(connector, "!C")
        tail_c2 = (piece.c2 + ("#1" if alpha > 1 else "")) + "!K"
        head_c1 = (piece.c1 + ("#%d" % alpha if alpha > 1 else "")) + "!K"
        parts = [detached, body, conn]

        def slot_index(part: int, vertex_pred, edge: str) -> Optional[int]:
            for i, s in enumerate(parts[part].hanging):
                if s.edge == edge and vertex_pred(s.vertex):
                    return i
            return None

        matches = []
        i_free = slot_index(
            0, lambda v: detached.total.vertex_kind[v] == "free", reverse_edge(e1)
        )
        i_cyc = slot_index(
            0, lambda v: detached.total.vertex_kind[v] == "cyclic", e1
        )
        j_tail = slot_index(1, lambda v: v == tail_c2, e1)
        if i_free is None or i_cyc is None or j_tail is None:
            last_error = "detached slots not found"
            continue
        matches.append(((0, i_free), (1, j_tail)))
        used_conn = set()

        def conn_slot(edge: str) -> Optional[int]:
            for i, s in enumerate(parts[2].hanging):
                if s.edge == edge and i not in used_conn:
                    used_conn.add(i)
                    return i
            return None

        j_conn = conn_slot(reverse_edge(e1))
        if j_conn is None:
            last_error = "connector lacks a boundary elevation"
            continue
        matches.append(((0, i_cyc), (2, j_conn)))
        ok = True
        for e in ends_c:
            if e == e1:
                continue
            j_head = slot_index(1, lambda v: v == head_c1, e)
            j_c = conn_slot(reverse_edge(e))
            if j_head is None or j_c is None:
                ok = False
                last_error = "chain head slots not found"
                break
            matches.append(((1, j_head), (2, j_c)))
        if not ok:
            continue

        try:
            asm = splice(parts, matches)
        except ValueError as exc:
            last_error = str(exc)
            continue
        cover_n = complete(asm, bounds.complete_bound, cap=budget)
        if cover_n is None:
            last_error = "no completion within added index %d" % bounds.complete_bound
            continue
        if not cover_n.total.graph.is_connected():
            last_error = "assembled cover is disconnected"
            continue
        cover_n = with_basepoint(cover_n, cover.total.base_vertex + "!L")
        rel = degree(cover_n)
        a = h1(cover_n)
        exps = {q: torsion_exponent(a, q) for q in tracked}
        trial = TowerLedger(intro=dict(ledger.intro), rows=list(ledger.rows))
        try:
            ledger_update(
                trial,
                step=n,
                prime=p,
                degree=degree_so_far * rel,
                exponents=exps,
                piece_predegree=h,
            )
        except ValueError as exc:
            last_error = str(exc)
            continue
        problems = ledger_check(trial)
        if problems:
            last_error = problems[0]
            continue
        excluded = False
        note = ""
        if word is None:
            note = "no nontrivial closed word within length %d" % bounds.max_word_length
        else:
            res = lift_word(cover_n, word)
            excluded = isinstance(res, ExitsAt)
            if not excluded:
                if excluded_in_l:
                    note = "word re-enters after assembly"
                else:
                    note = "word lifts into every candidate cover of index <= %d" % (
                        bounds.max_cover_index
                    )
        step = TowerStep(
            step=n,
            prime=p,
            relative_degree=rel,
            total_degree=degree_so_far * rel,
            alpha=alpha,
            beta=beta,
            piece_predegree=h,
            exponents=exps,
            excluded_word=str(word) if word is not None else "",
            excluded=excluded,
            exclusion_note=note,
            site_distance=site_distance,
        )
        return step, cover_n, trial
    raise _StageFailure("completion", last_error or "assembly failed")


def build_tower(
    g: GraphOfGroups,
    primes: Sequence[int],
    steps: int,
    bounds: Optional[TowerBounds] = None,
    budget: Optional[int] = None,
) -> TowerReport:
    """Grow a tower of covers, one new prime per step, ledgered throughout.

    Each step finds a torsion piece for its prime in the current base,
    chains enough copies, splices the chain into a detached excluding
    cover through a prescribed-degree connector, completes, measures the
    torsion exponents and updates the ledger.  Stops early with a
    "failed:<stage>:<reason>" status when any stage finds nothing within
    its bounds; completed steps stay in the report.
    """
    ensure_valid(g)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    primes = tuple(primes)
    for p in primes:
        _check_prime(p)
    if len(primes) < steps:
        raise ValueError("need one prime per step")
    if bounds is None:
        bounds = TowerBounds()
    if budget is None:
        budget = DEFAULT_BUDGET

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
        current = cover_n.total
        total_degree = step.total_degree
    if status == "ok" and done:
        problems = ledger_check(ledger)
        if problems:
            status = "failed:ledger:%s" % problems[0]
    return TowerReport(
        base=g,
        primes=primes,
        requested_steps=steps,
        steps=tuple(done),
        ledger=ledger,
        base_exponents=base_exps,
        status=status,
    )
