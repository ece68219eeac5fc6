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

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .homology import IntMatrix
from .words import (
    Word,
    conj_canonical,
    power_of,
    primitive_root,
    abelianize_word,
)

Roster = List[Tuple]


def reverse_edge(e: str) -> str:
    return e[1:] if e.startswith("~") else "~" + e


def pair_of(e: str) -> str:
    return e[1:] if e.startswith("~") else e


class SerreGraph:
    """Finite graph with involutive oriented edges.

    ``pairs`` maps a pair name to (ends[0], ends[1]).  Connectivity is not
    an invariant of the type: totals of partial covers are allowed to be
    disconnected, so it is checked by callers that need it.
    """

    def __init__(self, vertices: Iterable[str], pairs: Dict[str, Tuple[str, str]]):
        self.vertices: Tuple[str, ...] = tuple(vertices)
        self.pairs: Dict[str, Tuple[str, str]] = {k: (u, w) for k, (u, w) in pairs.items()}
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
        # Stars and ends are built once; a graph never changes once built.
        self._stars: Dict[str, List[str]] = {v: [] for v in self.vertices}
        ends: Dict[str, List[str]] = {v: [] for v in self.vertices}
        for e in self.oriented_edges():
            self._stars[self.iota(e)].append(e)
            ends[self.tau(e)].append(e)
        self._ends = {v: tuple(es) for v, es in ends.items()}

    def oriented_edges(self) -> List[str]:
        out = []
        for name in sorted(self.pairs):
            out.append(name)
            out.append("~" + name)
        return out

    def iota(self, e: str) -> str:
        if e.startswith("~"):
            return self.pairs[e[1:]][1]
        return self.pairs[e][0]

    def tau(self, e: str) -> str:
        if e.startswith("~"):
            return self.pairs[e[1:]][0]
        return self.pairs[e][1]

    def star(self, v: str) -> List[str]:
        """Oriented edges leaving v, in ``oriented_edges`` order."""
        return list(self._stars.get(v, ()))

    def ends(self, v: str) -> Tuple[str, ...]:
        """Oriented edges ending at v, in ``oriented_edges`` order."""
        return self._ends.get(v, ())

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        queue = [self.vertices[0]]
        while queue:
            v = queue.pop()
            for e in self._stars[v]:
                w = self.tau(e)
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self.vertices)

    def distance(self, u: str, w: str) -> int:
        """Edge-count distance between two vertices (BFS)."""
        if u not in self.vertices or w not in self.vertices:
            raise ValueError("unknown vertex")
        dist = {u: 0}
        queue = [u]
        while queue:
            nxt = []
            for x in queue:
                if x == w:
                    return dist[x]
                for e in self._stars[x]:
                    y = self.tau(e)
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            queue = nxt
        raise ValueError("vertices %r and %r are in different components" % (u, w))

    def spanning_tree(self, root: str) -> List[str]:
        """Pair names of a BFS spanning tree from root, edges tried by name."""
        seen = {root}
        tree = []
        queue = [root]
        while queue:
            nxt = []
            for v in queue:
                for e in self._stars.get(v, ()):
                    w = self.tau(e)
                    if w not in seen:
                        seen.add(w)
                        tree.append(pair_of(e))
                        nxt.append(w)
            queue = nxt
        return tree


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


def validate(g: GraphOfGroups, require_connected: bool = True) -> List[str]:
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
    if require_connected and gr.vertices and not gr.is_connected():
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


def euler_characteristic(g: GraphOfGroups) -> int:
    """Sum over vertices of 1 - rank; cyclic edge groups contribute zero."""
    return sum(1 - g.vertex_rank[v] for v in g.graph.vertices)


def induced_pair(g: GraphOfGroups, v: str) -> Tuple[int, List[Tuple[str, Word]]]:
    """The vertex group's rank and the incident edge words living at v.

    One entry per oriented edge with terminal vertex v, sorted by edge id.
    """
    fam = [(e, g.edge_words[e]) for e in sorted(g.graph.ends(v))]
    return g.vertex_rank[v], fam


def malnormal_family_problems(words: Sequence[Word]) -> List[str]:
    """Emptiness means the words generate a malnormal family of cyclic
    subgroups: each word primitive, and no two roots conjugate even up to
    inverse."""
    problems = []
    roots = []
    for i, w in enumerate(words):
        if w.is_identity():
            problems.append("word %d is trivial" % i)
            continue
        root, exp = primitive_root(w)
        if exp != 1:
            problems.append("word %d is a proper power (exponent %d)" % (i, exp))
        roots.append((i, conj_canonical(root)))
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            i, ca = roots[a]
            j, cb = roots[b]
            if ca == cb or ca == cb.inverse():
                problems.append("words %d and %d share a conjugate root" % (i, j))
    return problems


def check_normal_form(g: GraphOfGroups) -> List[str]:
    """Check the bipartite normal form; returns problems (empty when ok).

    Requires: kinds split every edge between a free and a cyclic vertex;
    words at cyclic ends are single letters; at each free vertex the
    incident words form a malnormal family.
    """
    problems = list(validate(g))
    gr = g.graph
    for name, (u, w) in sorted(gr.pairs.items()):
        ku = g.vertex_kind.get(u)
        kw = g.vertex_kind.get(w)
        if ku == kw:
            problems.append("pair %r joins two %s vertices" % (name, ku))
    for e in sorted(gr.oriented_edges()):
        if g.vertex_kind.get(gr.tau(e)) == "cyclic":
            word = g.edge_words.get(e)
            if word is not None and word.letters not in ((1,), (-1,)):
                problems.append("edge %r enters a cyclic vertex with a non-generator word" % e)
    for v in gr.vertices:
        if g.vertex_kind.get(v) != "free":
            continue
        _, fam = induced_pair(g, v)
        for msg in malnormal_family_problems([w for _, w in fam]):
            problems.append("at vertex %r: %s" % (v, msg))
    return problems


def abelianized_presentation(g: GraphOfGroups) -> Tuple[Roster, IntMatrix]:
    """Presentation of H_1: vertex blocks plus one free column per stable
    letter, one row per edge pair.

    The roster lists the columns: ("vertex", name, i) for the i-th generator
    of each vertex block (vertices in graph order), then ("stable", pair)
    for each pair outside a breadth-first spanning tree from the base
    vertex, sorted by name.  The row of a pair p is the exponent vector of
    word_fwd in the block of its terminal vertex minus that of word_bwd in
    the block of its initial vertex.
    """
    gr = g.graph
    if not gr.is_connected():
        raise ValueError("homology of a disconnected graph of groups is per component")
    tree = set(gr.spanning_tree(g.base_vertex))
    roster: Roster = []
    offset = {}
    for v in gr.vertices:
        offset[v] = len(roster)
        for i in range(g.vertex_rank[v]):
            roster.append(("vertex", v, i))
    stable = [name for name in sorted(gr.pairs) if name not in tree]
    for name in stable:
        roster.append(("stable", name))
    width = len(roster)
    rows = []
    for name in sorted(gr.pairs):
        row = [0] * width
        fwd = g.edge_words[name]
        bwd = g.edge_words["~" + name]
        tv = gr.tau(name)
        iv = gr.iota(name)
        for i, c in enumerate(abelianize_word(fwd)):
            row[offset[tv] + i] += c
        for i, c in enumerate(abelianize_word(bwd)):
            row[offset[iv] + i] -= c
        rows.append(row)
    return roster, IntMatrix.from_rows(rows, cols=width)


# ---------------------------------------------------------------------------
# Path words


@dataclass(frozen=True)
class GogWord:
    """Alternating path word: syllable, crossing, syllable, ...

    There is always one syllable more than there are crossings; syllable i
    lives at the vertex reached after i crossings.
    """

    start: str
    syllables: Tuple[Word, ...]
    crossings: Tuple[str, ...]

    def __post_init__(self):
        if len(self.syllables) != len(self.crossings) + 1:
            raise ValueError("need exactly one more syllable than crossings")

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


def enumerate_closed_words(g: GraphOfGroups, max_length: int) -> Iterator[GogWord]:
    """Nontrivial pinch-free closed path words at the base vertex.

    Deterministic order: ascending total length; within one length,
    depth-first generation order, where each step first extends the current
    syllable by a letter (letters in integer order) and then tries crossings
    (oriented edge ids in sorted order).  The stream is lazy: each length
    is one depth-first pass cut off at that length.
    """
    base = g.base_vertex
    gr = g.graph
    edges = sorted(gr.oriented_edges())

    def letters_at(v):
        r = g.vertex_rank[v]
        return [a for a in range(-r, r + 1) if a != 0]

    def dfs(v, syllables, crossings, cur, left):
        # cur: letters of the open syllable at v; left: letters still to spend.
        if left == 0:
            if v == base:
                word = Word(tuple(cur), g.vertex_rank[v])
                gw = GogWord(base, tuple(syllables) + (word,), tuple(crossings))
                if is_nontrivial(g, gw):
                    yield gw
            return
        for a in letters_at(v):
            if cur and cur[-1] == -a:
                continue
            cur.append(a)
            yield from dfs(v, syllables, crossings, cur, left - 1)
            cur.pop()
        word = Word(tuple(cur), g.vertex_rank[v])
        for e in edges:
            if gr.iota(e) != v:
                continue
            if crossings and e == reverse_edge(crossings[-1]):
                if power_of(word, g.edge_words[crossings[-1]]) is not None:
                    continue
            syllables.append(word)
            crossings.append(e)
            yield from dfs(gr.tau(e), syllables, crossings, [], left - 1)
            crossings.pop()
            syllables.pop()

    for length in range(1, max_length + 1):
        yield from dfs(base, [], [], [], length)
