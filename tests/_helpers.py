"""Small builders and measures that only tests need.

``word_length`` and ``gog_word_power`` make and measure path words for the
closed-word and lifting tests; ``lifts_over`` lists a morphism's lifts of a
base vertex in name order.  ``schreier_basis`` builds the words of a
subgroup's Schreier basis, and ``contains`` and ``subgroup_contains`` test
membership and inclusion of finite-index subgroups on those bases.
``identity_cover`` builds the degree-one cover, ``document_for_gog`` the
gog document of a graph of groups, and ``reduce_element`` reduces an
element of an abelian group to its torsion residues.  ``check_normal_form``
checks the bipartite normal form, with ``induced_pair`` and
``malnormal_family_problems`` for its per-vertex part, which reads each
word's ``primitive_root``.  ``determinant`` is the exact Bareiss
determinant the homology tests check Smith forms against, ``matmul`` the
matrix product they check U * A * V = D with, and ``group_order`` the
order of a finite abelian group.  ``outcome`` is a call's value or the
message of the ValueError it raises, for comparing a function with its
oracle errors included.  ``run_cli`` runs the command line in a fresh
interpreter, as the console script does.
"""

import os
import subprocess
import sys
from pathlib import Path
from typing import List, Sequence, Tuple

import gfgcover
from gfgcover.cli import FORMAT_VERSION, gog_to_payload
from gfgcover.cosets import CosetTable, _primitive_root, schreier, whole_group_table
from gfgcover.covers import ElevationRef, PrecoverMorphism, _base_shape_problems
from gfgcover.gog import GogWord, GraphOfGroups, reverse_edge, validate
from gfgcover.homology import AbelianGroup, IntMatrix
from gfgcover.words import Word, conj_canonical, cyclic_reduce


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


def schreier_basis(table: CosetTable) -> Tuple[Word, ...]:
    """The Schreier basis words rep(a) * x * rep(a.x)**-1, one per non-tree
    positive edge (a, x), in the order of the basis letters."""
    sd = schreier(table)
    reps, r = sd.reps, table.rank
    return tuple(
        reps[a] * Word((x,), r) * reps[table.act(a, x)].inverse()
        for a, x, _ in sd.edge_basis
    )


def contains(table: CosetTable, w: Word) -> bool:
    if w.rank != table.rank:
        raise ValueError("rank mismatch")
    return table.act_word(0, w) == 0


def subgroup_contains(big: CosetTable, small: CosetTable) -> bool:
    """Whether the subgroup of ``small`` lies inside the subgroup of ``big``."""
    if big.rank != small.rank:
        raise ValueError("rank mismatch")
    return all(contains(big, g) for g in schreier_basis(small))


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


def document_for_gog(g: GraphOfGroups) -> dict:
    out = {"format_version": FORMAT_VERSION, "kind": "gog"}
    out.update(gog_to_payload(g))
    return out


def reduce_element(group: AbelianGroup, vec: Sequence[int]) -> Tuple[int, ...]:
    """vec with each torsion coordinate reduced mod its divisor."""
    coords = len(group.divisors) + group.betti
    if len(vec) != coords:
        raise ValueError("element has %d coordinates, expected %d" % (len(vec), coords))
    out = []
    for i, d in enumerate(group.divisors):
        out.append(vec[i] % d)
    out.extend(int(a) for a in vec[len(group.divisors):])
    return tuple(out)


def induced_pair(g: GraphOfGroups, v: str) -> Tuple[int, List[Tuple[str, Word]]]:
    """The vertex group's rank and the incident edge words living at v.

    One entry per oriented edge with terminal vertex v, sorted by edge id.
    """
    fam = [(e, g.edge_words[e]) for e in sorted(g.graph.ends(v))]
    return g.vertex_rank[v], fam


def primitive_root(w: Word) -> Tuple[Word, int]:
    """Primitive root of a non-trivial word.

    Returns (root, exponent) with root cyclically reduced, exponent maximal,
    and w conjugate to root**exponent.
    """
    core, _ = cyclic_reduce(w)
    if core.is_identity():
        raise ValueError("the trivial word has no primitive root")
    return _primitive_root(core)


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
    the shape the cover searches take (``covers._base_shape_problems``:
    among others, words at cyclic ends are single letters); at each free
    vertex the incident words form a malnormal family.
    """
    problems = list(validate(g))
    if problems:
        return problems
    gr = g.graph
    for name, (u, w) in sorted(gr.pairs.items()):
        if g.vertex_kind[u] == g.vertex_kind[w] == "free":
            problems.append("pair %r joins two free vertices" % name)
    problems += _base_shape_problems(g)
    for v in gr.vertices:
        if g.vertex_kind[v] != "free":
            continue
        _, fam = induced_pair(g, v)
        for msg in malnormal_family_problems([w for _, w in fam]):
            problems.append("at vertex %r: %s" % (v, msg))
    return problems


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = [list(row) for row in a.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    columns = list(zip(*b.entries)) if b.entries else [()] * b.cols
    return IntMatrix(
        tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns)
              for row in a.entries),
        b.cols,
    )


def group_order(g: AbelianGroup) -> int:
    if g.betti:
        raise ValueError("infinite group")
    n = 1
    for d in g.divisors:
        n *= d
    return n


def outcome(fn, *args):
    """fn's value, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "error: %s" % exc


def run_cli(*argv: str, python_flags: Sequence[str] = ()) -> Tuple[int, str, str]:
    """Exit code, stdout and stderr of ``python [python_flags] -m
    gfgcover.cli argv`` in a fresh interpreter.  The child imports the
    package these tests import, with or without PYTHONPATH set by the
    caller."""
    package_root = str(Path(gfgcover.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *python_flags, "-m", "gfgcover.cli", *argv],
        capture_output=True, encoding="utf-8", env=env,
    )
    return done.returncode, done.stdout, done.stderr
