import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from _helpers import determinant, group_order, matmul, reduce_element
from _oracles import dim_mod_p, field_rank, quotient_by
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfgcover.gog import GraphOfGroups, SerreGraph
from gfgcover.homology import (
    AbelianGroup,
    IntMatrix,
    TowerLedger,
    _check_prime,
    class_image,
    cokernel,
    h1,
    h1_mod_cyclic,
    ledger_bound,
    ledger_check,
    ledger_update,
    p_rank,
    rank_coloops,
    snf,
    torsion_exponent,
)
from gfgcover.words import Word


def minors_gcd(a: IntMatrix, k: int) -> int:
    """Oracle: gcd of all k x k minors (0 when there are none nonzero)."""
    g = 0
    for rows in itertools.combinations(range(a.rows), k):
        for cols in itertools.combinations(range(a.cols), k):
            sub = IntMatrix.from_rows(
                [[a.entries[i][j] for j in cols] for i in rows]
            )
            g = math.gcd(g, determinant(sub))
    return g


def invariant_factors_via_minors(a: IntMatrix):
    """Oracle for the nonzero diagonal of the Smith form: d_k = g_k / g_{k-1}
    where g_k is the gcd of k x k minors."""
    out = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = minors_gcd(a, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


matrices = st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


class TestIntMatrix:
    def test_width_must_match_cols(self):
        with pytest.raises(ValueError, match="3 entries"):
            IntMatrix.from_rows([[1, 2], [3, 4]], cols=3)
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_empty_shapes(self):
        a = IntMatrix.from_rows([[], []])
        b = IntMatrix.from_rows([], cols=3)
        assert (a.rows, a.cols, b.rows, b.cols) == (2, 0, 0, 3)
        assert matmul(a, b).entries == ((0, 0, 0), (0, 0, 0))
        u, d, v = snf(b)
        assert (u.rows, d.rows, d.cols, v.rows) == (0, 0, 3, 3)


class TestSnf:
    def test_frozen_example(self):
        u, d, v = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert d.diagonal() == (2, 4)
        assert matmul(matmul(u, IntMatrix.from_rows([[2, 4], [6, 8]])), v).entries == d.entries

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_properties(self, rows):
        a = IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
        u, d, v = snf(a)
        assert matmul(matmul(u, a), v).entries == d.entries
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = d.diagonal()
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.entries[i][j] == 0
        for x in diag:
            assert x >= 0
        nonzero = [x for x in diag if x]
        assert list(diag[: len(nonzero)]) == nonzero, "zeros must come last"
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_against_minors_oracle(self, rows):
        a = IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
        _, d, _ = snf(a)
        expected = invariant_factors_via_minors(a)
        got = [x for x in d.diagonal() if x]
        assert got == expected

    def test_deterministic(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
            a = IntMatrix.from_rows(rows)
            assert snf(a) == snf(a)


# Up to 7 x 7, so wide and tall shapes come up, and sparse enough that
# unit pivots and zero rows and columns do too.
shaped = st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda mn: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4, 6, -9]), min_size=mn[1], max_size=mn[1]),
        min_size=mn[0],
        max_size=mn[0],
    ).map(lambda rows: IntMatrix.from_rows(rows, cols=mn[1]))
)


class TestCokernelInvariants:
    @given(shaped)
    @example(IntMatrix.from_rows([], cols=0))
    @example(IntMatrix.from_rows([], cols=3))
    @example(IntMatrix.from_rows([[], [], []]))
    @example(IntMatrix.from_rows([[2, 0, 4, 0, 6, 0, 8], [0, 3, 0, 9, 0, 0, 0]]))
    @example(IntMatrix.from_rows([[2, 4], [6, 8], [0, 0], [4, -2], [6, 6], [2, 2], [0, 8]]))
    @settings(max_examples=300, deadline=None)
    def test_against_snf(self, a):
        _, d, _ = snf(a)
        diag = d.diagonal()
        got = cokernel(a)
        assert got.betti == a.cols - sum(1 for x in diag if x)
        assert got.divisors == tuple(x for x in diag if x >= 2)
        factors = invariant_factors_via_minors(a)
        assert got.betti == a.cols - len(factors)
        assert got.divisors == tuple(x for x in factors if x >= 2)


class TestDeterminant:
    def test_three_by_three(self):
        rng = random.Random(3)
        for _ in range(50):
            rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            expected = sum(
                sign * rows[0][p[0]] * rows[1][p[1]] * rows[2][p[2]]
                for p, sign in [
                    ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                    ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
                ]
            )
            assert determinant(IntMatrix.from_rows(rows)) == expected

    def test_empty(self):
        assert determinant(IntMatrix.from_rows([])) == 1


def loops(rank, rows):
    """One free vertex of the given rank with one loop per row.  A loop's
    words abelianize to the positive and the negative part of its row, so
    H_1 is the cokernel of the rows plus one free stable letter per loop."""
    pairs, words = {}, {}
    for k, row in enumerate(rows):
        pairs["p%d" % k] = ("v", "v")
        for name, sign in (("p%d" % k, 1), ("~p%d" % k, -1)):
            letters = [i + 1 for i, c in enumerate(row) for _ in range(max(0, sign * c))]
            words[name] = Word(tuple(letters), rank)
    return GraphOfGroups(SerreGraph(["v"], pairs), {"v": rank}, {"v": "free"}, words, "v")


class TestCokernel:
    def test_diag_2_3_gives_z6(self):
        g = cokernel(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert g.betti == 0 and g.divisors == (6,)

    def test_free_quotient_basis_map(self):
        g = loops(2, [[1, -1]])
        assert (h1(g).betti, h1(g).divisors) == (2, ())
        # Both generators land on the same element of Z^2.
        assert class_image(g, ("v", Word((1,), 2))) == class_image(g, ("v", Word((2,), 2)))

    @pytest.mark.parametrize("v", ["v", "nope"], ids=["free", "unknown"])
    def test_only_cyclic_vertices_killed(self, v):
        with pytest.raises(ValueError, match="vertex %r is not cyclic" % v):
            h1_mod_cyclic(loops(2, [[1, -1]]), [v])

    def test_zero_rows(self):
        g = cokernel(IntMatrix.from_rows([], cols=3))
        assert g.betti == 3 and g.divisors == ()

    def test_relations_die(self):
        rows = [[2, 0, 4], [0, 0, 6]]
        g = loops(3, rows)
        group = h1(g)
        assert (group.betti, group.divisors) == (3, (2, 6))
        images = [class_image(g, ("v", Word((j + 1,), 3))) for j in range(3)]
        coords = len(group.divisors) + group.betti
        for k, row in enumerate(rows):
            img = [sum(c * x[i] for c, x in zip(row, images)) for i in range(coords)]
            assert reduce_element(group, img) == (0,) * coords
            fwd, bwd = g.edge_words["p%d" % k], g.edge_words["~p%d" % k]
            assert class_image(g, ("v", fwd)) == class_image(g, ("v", bwd))

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_order_matches_minors(self, rows):
        a = IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)
        g = cokernel(a)
        factors = invariant_factors_via_minors(a)
        torsion_order = 1
        for f in factors:
            torsion_order *= f
        by_hand = 1
        for d in g.divisors:
            by_hand *= d
        assert by_hand == torsion_order
        assert g.betti == a.cols - len(factors)


# Small matrices, mostly zeros, with entries that vanish mod some primes.
sparse = st.integers(0, 6).flatmap(
    lambda m: st.integers(1, 7).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 10]),
                     min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        ).map(lambda rows: (rows, n))
    )
)


class TestRankColoops:
    @given(sparse, st.sampled_from([0, 2, 3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_rank_of_each_deletion(self, shaped, p):
        rows, n = shaped
        rank, loose = rank_coloops(IntMatrix.from_rows(rows, cols=n), p)
        assert rank == field_rank(rows, p)
        deleted = [field_rank([row[:j] + row[j + 1:] for row in rows], p) for j in range(n)]
        assert loose == {j for j in range(n) if deleted[j] == rank - 1}
        assert all(d in (rank, rank - 1) for d in deleted)

    @given(sparse, st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=200, deadline=None)
    def test_ranks_give_the_torsion_of_each_kill(self, shaped, p):
        """Z^n/(R + Z e_j) has as many p-divisible invariant factors as
        rank_Q(R_j) exceeds rank_Fp(R_j)."""
        rows, n = shaped
        a = IntMatrix.from_rows(rows, cols=n)
        rank_p, loose_p = rank_coloops(a, p)
        rank_q, loose_q = rank_coloops(a)
        for j in range(n):
            unit = tuple(int(k == j) for k in range(n))
            killed = cokernel(IntMatrix(a.entries + (unit,), n))
            assert p_rank(killed, p) == (rank_q - (j in loose_q)) - (rank_p - (j in loose_p))


class TestAbelianGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            AbelianGroup(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroup(0, (4, 2))

    def test_str(self):
        assert str(AbelianGroup(2, (2,))) == "Z^2 ⊕ Z/2"
        assert str(AbelianGroup(0, ())) == "0"
        assert str(AbelianGroup(1, ())) == "Z"

    def test_reduce_and_order(self):
        g = AbelianGroup(0, (2, 4))
        assert group_order(g) == 8
        assert reduce_element(g, (3, -1)) == (1, 3)
        with pytest.raises(ValueError):
            group_order(AbelianGroup(1, ()))

    def test_p_rank_and_exponent(self):
        g = AbelianGroup(1, (2, 4))
        assert p_rank(g, 2) == 2
        assert p_rank(g, 3) == 0
        assert torsion_exponent(g, 2) == 3
        assert torsion_exponent(g, 3) == 0
        with pytest.raises(ValueError):
            p_rank(g, 4)

    @given(
        st.integers(0, 2),
        st.lists(st.sampled_from([2, 3, 4, 6, 12]), max_size=3),
        st.sampled_from([2, 3, 5]),
    )
    @settings(max_examples=100, deadline=None)
    def test_p_rank_cross_check(self, b, ds, p):
        ds = sorted(ds)
        for x, y in zip(ds, ds[1:]):
            if y % x:
                return
        g = AbelianGroup(b, tuple(ds))
        assert p_rank(g, p) == dim_mod_p(g, p) - g.betti


class TestQuotient:
    def test_frozen(self):
        g = AbelianGroup(0, (2, 4))
        q = quotient_by(g, [(1, 2)])
        assert q.betti == 0 and q.divisors == (4,)

    def test_quotient_by_nothing(self):
        g = AbelianGroup(2, (3,))
        assert quotient_by(g, []) == g

    def test_quotient_by_generators_is_trivial(self):
        g = AbelianGroup(1, (2,))
        q = quotient_by(g, [(1, 0), (0, 1)])
        assert q == AbelianGroup(0, ())

    def test_finite_order_oracle(self):
        # |A / <x>| equals |A| divided by the order of the cyclic subgroup
        # generated by x, computed here by direct iteration.
        rng = random.Random(11)
        for _ in range(40):
            divisors = sorted(rng.choice([(2,), (2, 2), (2, 4), (3, 3), (2, 6), (4,)]))
            g = AbelianGroup(0, tuple(divisors))
            x = tuple(rng.randrange(d) for d in divisors)
            seen = set()
            cur = (0,) * len(divisors)
            while cur not in seen:
                seen.add(cur)
                cur = reduce_element(g, tuple(a + b for a, b in zip(cur, x)))
            q = quotient_by(g, [x])
            assert group_order(q) == group_order(g) // len(seen)


def is_prime_by_trial_division(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


class TestCheckPrime:
    def test_agrees_with_trial_division_below_10000(self):
        for n in range(-3, 10 ** 4):
            try:
                _check_prime(n)
                got = True
            except ValueError:
                got = False
            assert got == is_prime_by_trial_division(n), n

    @pytest.mark.parametrize("n, prime", [
        (561, False),  # Carmichael number
        (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
        (2 ** 61 - 1, True),
        (2 ** 64 - 59, True),  # the largest prime below 2**64
        (2 ** 61 + 1, False),
    ])
    def test_known_cases(self, n, prime):
        if prime:
            _check_prime(n)
        else:
            with pytest.raises(ValueError, match="not prime"):
                _check_prime(n)

    def test_fast_on_a_61_bit_prime(self):
        started = time.perf_counter()
        _check_prime(2 ** 61 - 1)
        assert time.perf_counter() - started < 0.01

    @pytest.mark.parametrize("n", [2 ** 64, 2 ** 89 - 1, 10 ** 400 + 1])
    def test_refuses_large_input(self, n):
        with pytest.raises(ValueError, match=r"below 2\*\*64"):
            _check_prime(n)


class TestLedger:
    def build(self):
        ledger = TowerLedger()
        ledger_update(
            ledger, step=1, prime=2, degree=6, exponents={2: 2}, piece_predegree=3
        )
        return ledger

    def test_bound_frozen(self):
        ledger = self.build()
        assert ledger_bound(ledger, 2, 1) == Fraction(1, 12)
        assert ledger_bound(ledger, 2, 2) == Fraction(1, 16)
        assert ledger_bound(ledger, 2, 3) == Fraction(7, 128)

    def test_check_passes(self):
        ledger = self.build()
        ledger_update(
            ledger, step=2, prime=3, degree=24, exponents={2: 2, 3: 1}, piece_predegree=5
        )
        assert ledger_check(ledger) == []
        assert ledger.rows[0].ratio(2) == Fraction(1, 3)

    def test_check_flags_shortfall(self):
        ledger = self.build()
        ledger_update(
            ledger, step=2, prime=3, degree=600, exponents={2: 2, 3: 1}, piece_predegree=5
        )
        problems = ledger_check(ledger)
        assert problems and "prime 2" in problems[0]

    def test_update_validates_degrees(self):
        ledger = self.build()
        with pytest.raises(ValueError):
            ledger_update(
                ledger, step=2, prime=3, degree=7, exponents={}, piece_predegree=1
            )
        with pytest.raises(ValueError):
            ledger_update(
                ledger, step=3, prime=3, degree=12, exponents={}, piece_predegree=1
            )
        with pytest.raises(ValueError):
            ledger_update(
                TowerLedger(), step=1, prime=4, degree=2, exponents={}, piece_predegree=1
            )
