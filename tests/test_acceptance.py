"""Acceptance checklist for the shipped guarantees, one test per item.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Each test carries its own independent oracle (determinants
by Bareiss elimination, permutation-pair counting, explicit orbit walks)
so a regression in the library cannot hide behind its own arithmetic, and
the timed items enforce their runtime budgets.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from _helpers import matmul, reduce_element
from _oracles import detach_edge, is_cut_vertex, merge_cyclic, quotient_by, splice

from gfgcover.cosets import CosetTable, elevations, enumerate_subgroups
from gfgcover.covers import (
    chain,
    degree,
    enumerate_covers,
    find_torsion_piece,
    predegree,
    split_cyclic,
    isomorphic,
    build_tower,
    validate_cover,
)
from gfgcover.gog import (
    GraphOfGroups,
    SerreGraph,
    abelianized_presentation,
    euler_characteristic,
)
from gfgcover.homology import (
    AbelianGroup,
    IntMatrix,
    class_image,
    cokernel,
    h1,
    h1_mod_cyclic,
    ledger_check,
    p_rank,
    snf,
    torsion_exponent,
)
from gfgcover.words import Word, conj_canonical, free_reduce


def bs13():
    graph = SerreGraph(["v"], {"p": ("v", "v")})
    return GraphOfGroups(
        graph, {"v": 1}, {"v": "free"},
        {"p": Word((1,), 1), "~p": Word((1, 1, 1), 1)}, "v",
    )


def genus2():
    graph = SerreGraph(["u", "w"], {"p": ("u", "w")})
    comm = Word((1, 2, -1, -2), 2)
    return GraphOfGroups(
        graph, {"u": 2, "w": 2}, {"u": "free", "w": "free"},
        {"p": comm, "~p": comm}, "u",
    )


def amalgam(words):
    pairs = {"p%d" % i: ("v", "c") for i in range(len(words))}
    edge_words = {}
    for i, letters in enumerate(words):
        edge_words["p%d" % i] = Word((1,), 1)
        edge_words["~p%d" % i] = Word(tuple(letters), 2)
    graph = SerreGraph(["v", "c"], pairs)
    return GraphOfGroups(
        graph, {"v": 2, "c": 1}, {"v": "free", "c": "cyclic"}, edge_words, "v"
    )


def seeded():
    return amalgam(((2,), (1, 1, 1, -2)))


# --- oracle helpers -------------------------------------------------------


def bareiss_det(rows):
    """Exact integer determinant by fraction-free elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def minors_gcd(entries, k, floor):
    """gcd of all k x k minors; stops early once it hits the (k-1)-level
    gcd, which every k-level gcd is a multiple of."""
    g = 0
    rows = range(len(entries))
    cols = range(len(entries[0]))
    for rs in itertools.combinations(rows, k):
        for cs in itertools.combinations(cols, k):
            sub = [[entries[i][j] for j in cs] for i in rs]
            g = math.gcd(g, abs(bareiss_det(sub)))
            if g and g == floor:
                return g
    return g


def orbit_is_full(perms, n):
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for p in perms:
            if p[x] not in seen:
                seen.add(p[x])
                stack.append(p[x])
    return len(seen) == n


def conjugation_classes(pairs, n):
    """Distinct pairs of permutations up to simultaneous relabeling."""
    perms = list(itertools.permutations(range(n)))
    reps = set()
    for pa, pb in pairs:
        best = None
        for s in perms:
            inv = [0] * n
            for i, si in enumerate(s):
                inv[si] = i
            key = (
                tuple(s[pa[inv[j]]] for j in range(n)),
                tuple(s[pb[inv[j]]] for j in range(n)),
            )
            if best is None or key < best:
                best = key
        reps.add(best)
    return reps


# --- the checklist --------------------------------------------------------


def test_criterion_01_smith_normal_form():
    started = time.monotonic()
    rng = random.Random(1009)
    for _ in range(500):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        entries = [
            [rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)
        ]
        a = IntMatrix.from_rows(entries, ncols)
        u, d, v = snf(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(bareiss_det(u.entries)) == 1
        assert abs(bareiss_det(v.entries)) == 1
        diag = d.diagonal()
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        expected = []
        prev = 1
        for k in range(1, min(nrows, ncols) + 1):
            g = minors_gcd(entries, k, prev)
            if g == 0:
                break
            expected.append(g // prev)
            prev = g
        assert [x for x in diag if x] == expected
    assert time.monotonic() - started <= 10


def test_criterion_02_elevation_degree_partition():
    started = time.monotonic()
    classes = {}
    for length in (1, 2, 3):
        for letters in itertools.product([1, -1, 2, -2], repeat=length):
            if free_reduce(letters, 2).letters != letters:
                continue
            cls = conj_canonical(Word(letters, 2))
            classes.setdefault(cls.canonical.letters, cls)
    assert len(classes) == 24
    for idx in range(1, 5):
        for table in enumerate_subgroups(2, idx):
            for cls in classes.values():
                els = elevations(table, cls)
                assert sum(el.degree for el in els) == table.size
                covered = sorted(c for el in els for c in el.cycle)
                assert covered == list(range(table.size))
                for el in els:
                    least = el.cycle[0]
                    assert least == min(el.cycle)
                    coset = least
                    for n in range(1, el.degree + 1):
                        for letter in cls.canonical.letters:
                            coset = table.act(coset, letter)
                        if n < el.degree:
                            assert coset != least
                    assert coset == least
                    at = 0
                    for letter in el.rep.letters:
                        at = table.act(at, letter)
                    assert at == 0
    assert time.monotonic() - started <= 30


def test_criterion_03_subgroup_counts():
    for idx, expected in ((2, 3), (3, 7)):
        perms = list(itertools.permutations(range(idx)))
        transitive = [
            (pa, pb)
            for pa in perms
            for pb in perms
            if orbit_is_full((pa, pb), idx)
        ]
        oracle = conjugation_classes(transitive, idx)
        assert len(oracle) == expected
        tables = list(enumerate_subgroups(2, idx))
        assert len(tables) == expected
        keys = conjugation_classes([t.action for t in tables], idx)
        assert keys == oracle


def test_criterion_04_euler_characteristic_multiplicativity():
    for g in (bs13(), genus2()):
        base_chi = euler_characteristic(g)
        seen = set()
        for m in enumerate_covers(g, 3):
            assert euler_characteristic(m.total) == degree(m) * base_chi
            seen.add(degree(m))
        assert seen == {1, 2, 3}


def test_criterion_05_first_homology_fixtures():
    _, presentation = abelianized_presentation(bs13())
    group = cokernel(presentation)
    assert (group.betti, group.divisors) == (1, (2,))
    _, presentation = abelianized_presentation(genus2())
    group = cokernel(presentation)
    assert (group.betti, group.divisors) == (4, ())


def test_criterion_06_p_rank_drop_bound():
    started = time.monotonic()
    chains = set()
    for d1 in range(1, 17):
        for d2 in range(d1, 17, d1):
            for d3 in range(d2, 17, d2):
                chains.add(tuple(d for d in (d1, d2, d3) if d > 1))
    checked = 0
    for divisors in sorted(chains):
        if not divisors:
            continue
        a = AbelianGroup(0, divisors)
        for x in itertools.product(*(range(d) for d in divisors)):
            q = quotient_by(a, [x])
            for p in (2, 3, 5):
                assert p_rank(a, p) >= p_rank(q, p) - 1
            checked += 1
    assert checked > 30000
    assert time.monotonic() - started <= 60


def test_criterion_07_merge_homology_identity():
    checked = 0
    for g, max_index in ((seeded(), 3), (amalgam(((1, 1, 2), (2, 2, 1))), 2)):
        for m in enumerate_covers(g, max_index):
            for v in sorted(m.cyclic_index):
                incident = sorted(
                    d for d, ref in m.edge_assignment.items() if ref.vertex == v
                )
                if len(incident) < 2 or is_cut_vertex(m.total.graph, v):
                    continue
                for size in range(1, len(incident)):
                    for part in itertools.combinations(incident, size):
                        piece = split_cyclic(m, v, list(part))
                        a = h1(piece)
                        images = [class_image(piece, v + ".1"), class_image(piece, v + ".2")]
                        diff = reduce_element(a, tuple(x - y for x, y in zip(*images)))
                        rhs = quotient_by(a, [diff])
                        lhs = h1(merge_cyclic(piece, v + ".1", v + ".2"))
                        assert lhs.betti == rhs.betti + 1
                        assert lhs.divisors == rhs.divisors
                        # The one-Smith-form torsion certificate against
                        # h1, class_image and quotient_by.
                        killed = quotient_by(a, images)
                        cert = h1_mod_cyclic(piece, [v + ".1", v + ".2"])
                        assert (cert.betti, cert.divisors) == (killed.betti, killed.divisors)
                        checked += 1
    assert checked >= 40


def test_criterion_08_torsion_chain_growth():
    g = seeded()
    piece = find_torsion_piece(g, 2, 4)
    assert piece is not None and piece.prime == 2
    for copies in range(1, 5):
        linked = chain(piece, copies)
        assert torsion_exponent(h1(linked), 2) >= copies
        assert predegree(linked) <= copies * predegree(piece.morphism)


def test_criterion_09_single_tower_step():
    started = time.monotonic()
    report = build_tower(seeded(), [2], 1)
    assert report.status == "ok"
    assert len(report.steps) == 1
    assert ledger_check(report.ledger) == []
    step = report.steps[0]
    ratio = Fraction(step.exponents[2], step.total_degree)
    assert ratio >= Fraction(1, 4 * step.piece_predegree)
    if step.excluded:
        assert step.excluded_word
    else:
        assert step.exclusion_note
    assert time.monotonic() - started <= 300


def test_criterion_10_inverse_operation_laws():
    rng = random.Random(2026)
    pool = list(enumerate_covers(seeded(), 3))
    assert pool
    trials = 0
    while trials < 100:
        m = rng.choice(pool)
        splittable = [
            v
            for v in sorted(m.cyclic_index)
            if sum(1 for ref in m.edge_assignment.values() if ref.vertex == v) >= 2
        ]
        if splittable:
            v = rng.choice(splittable)
            incident = sorted(
                d for d, ref in m.edge_assignment.items() if ref.vertex == v
            )
            size = rng.randint(1, len(incident) - 1)
            part = rng.sample(incident, size)
            piece = split_cyclic(m, v, part)
            merged = merge_cyclic(piece, v + ".1", v + ".2")
            assert isomorphic(merged, m)
        q = rng.choice(sorted(m.pair_spec))
        opened = detach_edge(m, q)
        assert len(opened.hanging) == 2
        closed = splice([opened], [((0, 0), (0, 1))])
        assert isomorphic(closed, m)
        assert validate_cover(closed) == []
        trials += 1
    assert trials == 100
