"""Graphs of free groups with cyclic edge groups.

A Serre graph stores unoriented edge pairs; the oriented edge "p" runs from
ends[0] to ends[1] of pair p and "~p" runs the other way.  A graph of groups
decorates each vertex with a free group (its rank, and a kind flag that may
designate a rank-one vertex as the cyclic side of the bipartite normal form)
and each oriented edge e with a word in the vertex group at the terminal
vertex tau(e).  The edge group of a pair is infinite cyclic and embeds via
those two words, so the pair record in a document carries word_fwd (living
at ends[1]) and word_bwd (living at ends[0]).

Path words (GogWord) are alternating sequences of vertex-group syllables and
oriented edge crossings.  A closed path word with no pinch (a crossing
immediately undone across a syllable lying in the edge subgroup) represents
a nontrivial element of the fundamental group; that is the normal form
theorem for graphs of groups, and it is what enumerate_closed_words leans
on to produce a deterministic stream of nontrivial elements.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from .homology import IntMatrix
from .words import Frozen, Word, _set, abelianize_word, check_int, power_of

Roster = List[Tuple]


def reverse_edge(e: str) -> str:
    return e[1:] if e.startswith("~") else "~" + e


def pair_of(e: str) -> str:
    return e[1:] if e.startswith("~") else e


class SerreGraph:
    """Finite graph with involutive oriented edges, never changed once
    built.

    ``pairs`` is a read-only map from a pair name to (ends[0], ends[1]).
    Connectivity is not an invariant of the type: totals of partial covers
    are allowed to be disconnected, so it is checked by callers that need
    it.  The breadth-first search from each root is made once and kept, so
    ``is_connected``, ``distance`` and ``spanning_tree`` share it.
    """

    def __init__(self, vertices: Iterable[str], pairs: Dict[str, Tuple[str, str]]):
        self.vertices: Tuple[str, ...] = tuple(vertices)
        self.pairs: Mapping[str, Tuple[str, str]] = MappingProxyType(
            {k: (u, w) for k, (u, w) in pairs.items()}
        )
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise ValueError("duplicate vertex %r" % v)
            seen.add(v)
        for name, (u, w) in self.pairs.items():
            if name.startswith("~"):
                raise ValueError("pair name %r may not start with '~'" % name)
            if u not in seen or w not in seen:
                raise ValueError("pair %r has an unknown end" % name)
        # Stars, ends and the two end maps are built once.
        self._stars: Dict[str, List[str]] = {v: [] for v in self.vertices}
        ends: Dict[str, List[str]] = {v: [] for v in self.vertices}
        self._iota: Dict[str, str] = {}
        self._tau: Dict[str, str] = {}
        for name in sorted(self.pairs):
            u, w = self.pairs[name]
            for e, start, end in ((name, u, w), ("~" + name, w, u)):
                self._iota[e], self._tau[e] = start, end
                self._stars[start].append(e)
                ends[end].append(e)
        self._ends = {v: tuple(es) for v, es in ends.items()}
        self._searches: Dict[str, Tuple[Dict[str, int], Tuple[str, ...]]] = {}

    def oriented_edges(self) -> List[str]:
        out = []
        for name in sorted(self.pairs):
            out.append(name)
            out.append("~" + name)
        return out

    def iota(self, e: str) -> str:
        return self._iota[e]

    def tau(self, e: str) -> str:
        return self._tau[e]

    def star(self, v: str) -> List[str]:
        """Oriented edges leaving v, in ``oriented_edges`` order."""
        return list(self._stars.get(v, ()))

    def ends(self, v: str) -> Tuple[str, ...]:
        """Oriented edges ending at v, in ``oriented_edges`` order."""
        return self._ends.get(v, ())

    def _search(self, root: str) -> Tuple[Dict[str, int], Tuple[str, ...]]:
        """Breadth-first search from root, edges tried in star order: the
        edge-count distance of each vertex reached, and the pair names of
        the spanning tree in the order the search finds them; made once per
        root.  Callers must not change the distances."""
        found = self._searches.get(root)
        if found is None:
            dist = {root: 0}
            tree = []
            queue = [root]
            tau = self._tau
            for v in queue:
                for e in self._stars.get(v, ()):
                    w = tau[e]
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        tree.append(pair_of(e))
                        queue.append(w)
            found = self._searches[root] = (dist, tuple(tree))
        return found

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        return len(self._search(self.vertices[0])[0]) == len(self.vertices)

    def distance(self, u: str, w: str) -> int:
        """Edge-count distance between two vertices (BFS)."""
        if u not in self.vertices or w not in self.vertices:
            raise ValueError("unknown vertex")
        dist = self._search(u)[0]
        if w not in dist:
            raise ValueError("vertices %r and %r are in different components" % (u, w))
        return dist[w]

    def spanning_tree(self, root: str) -> List[str]:
        """Pair names of a BFS spanning tree from root, edges tried by name
        (a new list on each call)."""
        return list(self._search(root)[1])


class GraphOfGroups:
    """Graph of free groups with cyclic edge groups, never changed once
    built."""

    def __init__(
        self,
        graph: SerreGraph,
        vertex_rank: Dict[str, int],
        vertex_kind: Dict[str, str],
        edge_words: Dict[str, Word],
        base_vertex: str,
    ):
        self.graph = graph
        self.vertex_rank = dict(vertex_rank)
        self.vertex_kind = dict(vertex_kind)
        self.edge_words = dict(edge_words)
        self.base_vertex = base_vertex
        self._valid = False  # set once ensure_valid has passed

    def edge_word(self, e: str) -> Word:
        return self.edge_words[e]

    def rank(self, v: str) -> int:
        return self.vertex_rank[v]


def validate(g: GraphOfGroups) -> List[str]:
    """Structural checks; returns a list of problems (empty when valid)."""
    problems = []
    gr = g.graph
    for v in gr.vertices:
        if v not in g.vertex_rank:
            problems.append("vertex %r has no rank" % v)
            continue
        if g.vertex_rank[v] < 1:
            problems.append("vertex %r has rank < 1" % v)
        kind = g.vertex_kind.get(v)
        if kind not in ("free", "cyclic"):
            problems.append("vertex %r has unknown kind %r" % (v, kind))
        elif kind == "cyclic" and g.vertex_rank[v] != 1:
            problems.append("cyclic vertex %r must have rank 1" % v)
    for v in g.vertex_rank:
        if v not in gr.vertices:
            problems.append("rank given for unknown vertex %r" % v)
    for e in gr.oriented_edges():
        w = g.edge_words.get(e)
        if w is None:
            problems.append("edge %r has no word" % e)
            continue
        tv = gr.tau(e)
        if tv in g.vertex_rank and w.rank != g.vertex_rank[tv]:
            problems.append("word on edge %r has rank %d, vertex %r has rank %d"
                            % (e, w.rank, tv, g.vertex_rank[tv]))
        if w.is_identity():
            problems.append("edge %r carries the trivial word" % e)
    for e in g.edge_words:
        if pair_of(e) not in gr.pairs:
            problems.append("word given for unknown edge %r" % e)
    if g.base_vertex not in gr.vertices:
        problems.append("base vertex %r is not a vertex" % g.base_vertex)
    if gr.vertices and not gr.is_connected():
        problems.append("graph is not connected")
    return problems


def ensure_valid(g: GraphOfGroups) -> None:
    """Raise on an invalid or disconnected g; a graph of groups that has
    passed once is not walked again."""
    if g._valid:
        return
    problems = validate(g)
    if problems:
        raise ValueError("; ".join(problems))
    g._valid = True


def euler_characteristic(g) -> int:
    """Sum over vertices of 1 - rank; cyclic edge groups contribute zero.
    ``g`` is a valid graph of groups or a morphism, whose total has one
    vertex per lift, of the rank in its ``vertex_rank``."""
    return sum(1 - r for r in g.vertex_rank.values())


def abelianized_presentation(g) -> Tuple[Roster, IntMatrix]:
    """Presentation of H_1 of a graph of groups, or of a morphism's total:
    vertex blocks plus one free column per stable letter, one row per edge
    pair.

    The roster lists the columns: ("vertex", name, i) for the i-th generator
    of each vertex block (vertices in graph order), then ("stable", pair)
    for each pair outside a breadth-first spanning tree from the base
    vertex, sorted by name.  The row of a pair p is the exponent vector of
    word_fwd in the block of its terminal vertex minus that of word_bwd in
    the block of its initial vertex.

    A morphism's total is not built.  Its edge words are the canonical
    local words of the elevations the edges realize, least rotations of
    the elevations' walks, and a rotation keeps exponent sums, so each row
    reads the elevations' ``exponent_sums``.
    """
    if isinstance(g, GraphOfGroups):
        gr, root = g.graph, g.base_vertex
        sums = {e: abelianize_word(w) for e, w in g.edge_words.items()}
    else:
        gr, root = g.total_graph, g.basepoint
        elevation_of = g.elevation_of
        sums = {d: elevation_of[ref].exponent_sums for d, ref in g.edge_assignment.items()}
    # The search from the base vertex gives the tree, and it spans the graph
    # exactly when the graph is connected and the base vertex is in it.
    tree = gr.spanning_tree(root)
    if len(tree) != len(gr.vertices) - 1 and not gr.is_connected():
        raise ValueError("homology of a disconnected graph of groups is per component")
    tree = set(tree)
    roster: Roster = []
    offset = {}
    for v in gr.vertices:
        offset[v] = len(roster)
        for i in range(g.vertex_rank[v]):
            roster.append(("vertex", v, i))
    names = sorted(gr.pairs)
    roster.extend(("stable", name) for name in names if name not in tree)
    width = len(roster)
    rows = []
    for name in names:
        # The exponent sum c of generator i in word_fwd adds c in column i
        # of tau's block, and in word_bwd subtracts it in iota's.
        row = [0] * width
        for e, at, sign in ((name, gr.tau(name), 1), ("~" + name, gr.iota(name), -1)):
            k = offset[at]
            for i, c in enumerate(sums[e]):
                if c:
                    row[k + i] += sign * c
        rows.append(row)
    return roster, IntMatrix.from_rows(rows, cols=width)


# ---------------------------------------------------------------------------
# Path words


class GogWord(Frozen):
    """Alternating path word: syllable, crossing, syllable, ...

    There is always one syllable more than there are crossings; syllable i
    lives at the vertex reached after i crossings.
    """

    FIELDS = ("start", "syllables", "crossings")
    __slots__ = FIELDS

    def __init__(self, start: str, syllables: Tuple[Word, ...], crossings: Tuple[str, ...]):
        if len(syllables) != len(crossings) + 1:
            raise ValueError("need exactly one more syllable than crossings")
        _set(self, "start", start)
        _set(self, "syllables", syllables)
        _set(self, "crossings", crossings)

    def validate_on(self, g: GraphOfGroups) -> List[str]:
        problems = []
        gr = g.graph
        if self.start not in gr.vertices:
            return ["unknown start vertex %r" % self.start]
        v = self.start
        for i, w in enumerate(self.syllables):
            if w.rank != g.vertex_rank[v]:
                problems.append("syllable %d has rank %d at vertex %r" % (i, w.rank, v))
            if i < len(self.crossings):
                e = self.crossings[i]
                if pair_of(e) not in gr.pairs:
                    problems.append("unknown edge %r" % e)
                    break
                if gr.iota(e) != v:
                    problems.append("crossing %d starts at %r, path is at %r" % (i, gr.iota(e), v))
                    break
                v = gr.tau(e)
        return problems

    def end_vertex(self, g: GraphOfGroups) -> str:
        v = self.start
        for e in self.crossings:
            v = g.graph.tau(e)
        return v

    def is_closed(self, g: GraphOfGroups) -> bool:
        return self.end_vertex(g) == self.start

    def __str__(self):
        bits = []
        for i, w in enumerate(self.syllables):
            if not w.is_identity():
                bits.append(",".join(str(a) for a in w.letters))
            if i < len(self.crossings):
                bits.append(self.crossings[i])
        return "(%s)@%s" % (" ".join(bits) or "1", self.start)


def enumerate_closed_words(g: GraphOfGroups, max_length: int) -> Iterator[GogWord]:
    """Nontrivial pinch-free closed path words at the base vertex.

    Both hold by construction: the search never crosses back over an edge
    from a syllable in that edge's subgroup, and a word without crossings
    is one freely reduced syllable of at least one letter.

    Deterministic order: ascending total length; within one length,
    depth-first generation order, where each step first extends the current
    syllable by a letter (letters in integer order) and then tries crossings
    (oriented edge ids in sorted order).  The stream is lazy: each length
    is one depth-first pass cut off at that length.
    """
    check_int(max_length, "max_length")
    edges = sorted(g.graph.oriented_edges())
    for length in range(1, max_length + 1):
        yield from _closed_words(g, edges, g.base_vertex, [], [], [], length)


def _closed_words(g, edges, v, syllables, crossings, cur, left) -> Iterator[GogWord]:
    """The words of ``enumerate_closed_words`` that go on from v with
    ``left`` more letters, after the finished ``syllables`` and
    ``crossings`` and the letters ``cur`` of the open syllable at v."""
    gr = g.graph
    if left == 0:
        if v == g.base_vertex:
            word = Word(tuple(cur), g.vertex_rank[v])
            yield GogWord(v, tuple(syllables) + (word,), tuple(crossings))
        return
    r = g.vertex_rank[v]
    for a in range(-r, r + 1):
        if a == 0 or cur and cur[-1] == -a:
            continue
        cur.append(a)
        yield from _closed_words(g, edges, v, syllables, crossings, cur, left - 1)
        cur.pop()
    word = Word(tuple(cur), r)
    for e in edges:
        if gr.iota(e) != v:
            continue
        if crossings and e == reverse_edge(crossings[-1]):
            if power_of(word, g.edge_words[crossings[-1]]) is not None:
                continue
        syllables.append(word)
        crossings.append(e)
        yield from _closed_words(g, edges, gr.tau(e), syllables, crossings, [], left - 1)
        crossings.pop()
        syllables.pop()
