import itertools
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from _oracles import evaluate, prescribe_degrees_oracle

from gfgcover.cosets import (
    CosetTable,
    Pair,
    contains,
    cyclic_table,
    elevations,
    enumerate_subgroups,
    is_class_minimal,
    is_regular,
    prescribe_degrees,
    pullback,
    rewrite,
    schreier,
    subgroup_contains,
    subgroup_rank,
    whole_group_table,
)
from gfgcover.errors import PairCollisionError
from gfgcover.words import Word, conj_canonical

SWAP = CosetTable(2, ((1, 0), (0, 1)))  # generator 1 swaps, generator 2 fixes


def small_tables():
    out = [whole_group_table(2)]
    for n in (2, 3):
        out.extend(enumerate_subgroups(2, n))
    return out


SMALL_TABLES = small_tables()

from gfgcover.words import free_reduce

letters2 = st.integers(-2, 2).filter(lambda a: a != 0)
words2 = st.lists(letters2, max_size=8).map(lambda ls: free_reduce(ls, 2))


class TestCosetTable:
    def test_validation(self):
        with pytest.raises(ValueError):
            CosetTable(2, ((0, 0), (0, 1)))
        with pytest.raises(ValueError):
            CosetTable(2, ((0, 1), (0, 1)))  # not transitive
        with pytest.raises(ValueError):
            CosetTable(0, ())

    def test_act(self):
        assert SWAP.act(0, 1) == 1
        assert SWAP.act(0, -1) == 1
        assert SWAP.act(1, 2) == 1
        assert SWAP.act_word(0, Word((1, 2, 1), 2)) == 0

    def test_index_and_rank(self):
        assert SWAP.size == 2
        assert subgroup_rank(SWAP) == 3
        assert subgroup_rank(whole_group_table(2)) == 2
        assert subgroup_rank(cyclic_table(4)) == 1

    def test_contains(self):
        assert contains(SWAP, Word((1, 1), 2))
        assert contains(SWAP, Word((2,), 2))
        assert not contains(SWAP, Word((1,), 2))


class TestSchreier:
    def test_swap_table_frozen(self):
        sd = schreier(SWAP)
        assert [r.letters for r in sd.reps] == [(), (1,)]
        assert [b.letters for b in sd.basis] == [(2,), (1, 1), (1, 2, -1)]

    def test_rewrite_frozen(self):
        assert rewrite(SWAP, Word((1, 1), 2)).letters == (2,)
        assert rewrite(SWAP, Word((2,), 2)).letters == (1,)
        assert rewrite(SWAP, Word((1, 2, -1), 2)).letters == (3,)

    def test_rewrite_rejects_non_members(self):
        with pytest.raises(ValueError):
            rewrite(SWAP, Word((1,), 2))

    def test_basis_count(self):
        for t in SMALL_TABLES:
            assert len(schreier(t).basis) == subgroup_rank(t)

    def test_basis_words_in_subgroup(self):
        for t in SMALL_TABLES:
            for b in schreier(t).basis:
                assert contains(t, b)

    @given(st.sampled_from(SMALL_TABLES), st.lists(st.integers(-3, 3).filter(bool), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_rewrite_evaluate_round_trip(self, t, sub_letters):
        r = subgroup_rank(t)
        sub_letters = [a for a in sub_letters if abs(a) <= r]
        from gfgcover.words import free_reduce

        sub = free_reduce(sub_letters, r)
        ambient = evaluate(t, sub)
        assert contains(t, ambient)
        assert rewrite(t, ambient) == sub

    @given(st.sampled_from(SMALL_TABLES), words2)
    @settings(max_examples=150, deadline=None)
    def test_evaluate_rewrite_round_trip(self, t, w):
        assume(t.act_word(0, w) == 0)
        assert evaluate(t, rewrite(t, w)) == w


class TestElevations:
    def test_degree_two_elevation(self):
        (e,) = elevations(SWAP, Word((1,), 2))
        assert e.degree == 2
        assert e.cycle == (0, 1)
        assert e.rep.letters == (1, 1)
        assert str(e.local) == "[2]"

    def test_two_degree_one_elevations(self):
        one, two = elevations(SWAP, Word((2,), 2))
        assert (one.degree, two.degree) == (1, 1)
        assert one.rep.letters == (2,)
        assert two.rep.letters == (1, 2, -1)
        assert str(one.local) == "[1]"
        assert str(two.local) == "[3]"

    def test_trivial_rejected(self):
        with pytest.raises(ValueError):
            elevations(SWAP, Word((), 2))

    @given(st.sampled_from(SMALL_TABLES), words2)
    @settings(max_examples=200, deadline=None)
    def test_partition_and_minimality(self, t, w):
        assume(not conj_canonical(w).is_trivial())
        elevs = elevations(t, w)
        # Degrees sum to the index and the cycles partition the cosets.
        assert sum(e.degree for e in elevs) == t.size
        all_cosets = sorted(c for e in elevs for c in e.cycle)
        assert all_cosets == list(range(t.size))
        # Listed by least coset, which heads its own cycle.
        assert [e.cycle[0] for e in elevs] == sorted(e.cycle[0] for e in elevs)
        for e in elevs:
            assert e.cycle[0] == min(e.cycle)
        # Each degree is minimal: no earlier return to the start coset.
        v = conj_canonical(w).canonical
        for e in elevs:
            for beta in e.cycle:
                cur = beta
                for j in range(1, e.degree):
                    cur = t.act_word(cur, v)
                    assert cur != beta

    @given(st.sampled_from(SMALL_TABLES), words2)
    @settings(max_examples=100, deadline=None)
    def test_reps_live_in_subgroup(self, t, w):
        assume(not conj_canonical(w).is_trivial())
        for e in elevations(t, w):
            assert contains(t, e.rep)
            assert conj_canonical(rewrite(t, e.rep)) == e.local


class TestPullback:
    def test_frozen(self):
        pair = Pair(2, (conj_canonical(Word((1,), 2)), conj_canonical(Word((2,), 2))))
        out = pullback(pair, SWAP)
        assert out.rank == 3
        assert [str(c) for c in out.classes] == ["[2]", "[1]", "[3]"]

    def test_collision_on_proper_power(self):
        pair = Pair(2, (conj_canonical(Word((1, 1), 2)),))
        with pytest.raises(PairCollisionError):
            pullback(pair, SWAP)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            Pair(2, (conj_canonical(Word((), 2)),))
        with pytest.raises(ValueError):
            Pair(1, (conj_canonical(Word((2,), 2)),))


def transitive_class_count(n: int) -> int:
    """Oracle: transitive pairs of permutations of n points, counted up to
    simultaneous relabeling."""
    perms = list(itertools.permutations(range(n)))

    def canonical(p, q):
        best = None
        for rho in perms:
            inv = [0] * n
            for i, a in enumerate(rho):
                inv[a] = i
            key = (
                tuple(rho[p[inv[i]]] for i in range(n)),
                tuple(rho[q[inv[i]]] for i in range(n)),
            )
            if best is None or key < best:
                best = key
        return best

    def transitive(p, q):
        seen = {0}
        stack = [0]
        while stack:
            a = stack.pop()
            for r in (p, q):
                if r[a] not in seen:
                    seen.add(r[a])
                    stack.append(r[a])
        return len(seen) == n

    classes = set()
    for p in perms:
        for q in perms:
            if transitive(p, q):
                classes.add(canonical(p, q))
    return len(classes)


class TestEnumerate:
    def test_counts_against_oracle(self):
        for n in (2, 3, 4):
            got = len(list(enumerate_subgroups(2, n)))
            assert got == transitive_class_count(n)
        assert len(list(enumerate_subgroups(2, 2))) == 3
        assert len(list(enumerate_subgroups(2, 3))) == 7
        assert len(list(enumerate_subgroups(2, 4))) == 26

    def test_rank_one(self):
        for n in (1, 2, 5):
            tables = list(enumerate_subgroups(1, n))
            assert tables == [cyclic_table(n)]

    def test_all_minimal_and_distinct(self):
        tables = list(enumerate_subgroups(2, 3))
        assert all(is_class_minimal(t) for t in tables)
        assert len(set(tables)) == len(tables)

    def test_deterministic(self):
        assert list(enumerate_subgroups(2, 3)) == list(enumerate_subgroups(2, 3))

    def test_index_one(self):
        assert list(enumerate_subgroups(3, 1)) == [whole_group_table(3)]


class TestPrescribe:
    def test_single_word_cyclic(self):
        res = prescribe_degrees(1, [Word((1,), 1)], (3,))
        assert res is not None
        assert res.scale == 1
        assert res.table == cyclic_table(3)
        assert res.quotient.startswith("Z/3")

    def test_two_words(self):
        res = prescribe_degrees(2, [Word((1,), 2), Word((2,), 2)], (2, 3))
        assert res is not None
        assert res.scale == 1
        assert res.table.size == 6
        assert is_regular(res.table)
        assert [e.degree for e in elevations(res.table, Word((1,), 2))] == [2, 2, 2]
        assert [e.degree for e in elevations(res.table, Word((2,), 2))] == [3, 3]

    def test_commutator_needs_perm_phase(self):
        w = Word((1, 2, -1, -2), 2)
        res = prescribe_degrees(2, [w], (2,))
        assert res is not None
        assert is_regular(res.table)
        for e in elevations(res.table, w):
            assert e.degree == 2 * res.scale

    def test_within(self):
        within = CosetTable(2, ((1, 0), (1, 0)))
        res = prescribe_degrees(2, [Word((1,), 2)], (2,), within=within)
        assert res is not None
        assert subgroup_contains(within, res.table)
        assert res.table == within

    def test_not_found(self):
        res = prescribe_degrees(
            2,
            [Word((1,), 2), Word((1,), 2)],
            (2, 3),
            max_modulus=6,
            max_pair_modulus=4,
            max_perm_index=3,
        )
        assert res is None

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            prescribe_degrees(2, [Word((), 2)], (2,))
        with pytest.raises(ValueError):
            prescribe_degrees(2, [Word((1,), 2)], (0,))
        with pytest.raises(ValueError):
            prescribe_degrees(2, [Word((1,), 2)], (2, 3))

    def test_deterministic(self):
        a = prescribe_degrees(2, [Word((1, 2), 2)], (4,))
        b = prescribe_degrees(2, [Word((1, 2), 2)], (4,))
        assert a == b and a is not None

    def test_matches_unpruned_oracle(self):
        caps = dict(max_modulus=24, max_pair_modulus=6, max_perm_index=4)
        words = [
            Word(letters, 2)
            for n in range(1, 5)
            for letters in itertools.product((1, -1, 2, -2), repeat=n)
            if all(a != -b for a, b in zip(letters, letters[1:]))
        ]
        assert len(words) == 160
        calls = [(2, [w], (d,), None) for w in words for d in range(1, 5)]
        comm = Word((1, 2, -1, -2), 2)
        for pair in ([comm, Word((1,), 2)], [Word((1, 2), 2), comm],
                     [Word((1, 1), 2), Word((2, 2, 2), 2)]):
            calls += [(2, pair, ds, None) for ds in ((1, 1), (2, 1), (1, 2), (2, 3))]
        calls += [(1, [Word((1,) * k, 1)], (d,), None) for k in (1, 2) for d in range(1, 5)]
        within = CosetTable(2, ((1, 0), (1, 0)))
        calls += [(2, [w], (d,), within) for w in (Word((1,), 2), Word((1, 2), 2), comm)
                  for d in (1, 2, 3)]
        found = 0
        for rank, targets, degrees, inside in calls:
            got = prescribe_degrees(rank, targets, degrees, within=inside, **caps)
            want = prescribe_degrees_oracle(rank, targets, degrees, within=inside, **caps)
            assert got == want, (targets, degrees, inside)
            found += got is not None
        assert 0 < found < len(calls)
        # Order 6 with the cyclic phase stopped at Z/4: only Z/2 x Z/3, whose
        # bound is lcm(2, 3) = 6, can reach it.
        caps = dict(max_modulus=4, max_pair_modulus=3, max_perm_index=4)
        for w in (Word((1,), 2), Word((1, 1, 2), 2)):
            got = prescribe_degrees(2, [w], (6,), **caps)
            assert got == prescribe_degrees_oracle(2, [w], (6,), **caps)
            assert got.quotient == "Z/2 x Z/3 (order 6)"

    def test_targets_equal_up_to_inversion(self):
        a, b = Word((1,), 2), Word((2,), 2)
        comm = Word((1, 2, -1, -2), 2)
        caps = dict(max_modulus=12, max_pair_modulus=4, max_perm_index=4)
        same = [
            [a, a], [a, a.inverse()], [a * b, b * a], [a * b, (b * a).inverse()],
            [comm, comm.inverse()], [a, b, a.inverse()],
        ]
        for targets in same:
            for degrees in itertools.product((1, 2, 3), repeat=len(targets)):
                got = prescribe_degrees(2, targets, degrees, **caps)
                assert got == prescribe_degrees_oracle(2, targets, degrees, **caps)
                if len(set(degrees)) == 1:
                    assert got is not None, (targets, degrees)

    def test_contradictory_degrees_fail_fast(self):
        a = Word((1,), 2)
        for targets in ([a, a], [a, a.inverse()]):
            start = time.perf_counter()
            assert prescribe_degrees(2, targets, (2, 3)) is None
            assert time.perf_counter() - start < 0.01
        # The check comes after the input checks.
        with pytest.raises(ValueError):
            prescribe_degrees(2, [a, a], (2, 0))

    def test_rank3_commutator_default_caps(self):
        w = Word((1, 2, -1, -2), 3)
        res = prescribe_degrees(3, [w], (2,))
        assert res is not None and is_regular(res.table)
        assert all(e.degree == 2 * res.scale for e in elevations(res.table, w))


class TestRegularity:
    def test_swap_is_regular(self):
        assert is_regular(SWAP)

    def test_point_stabilizer_in_s3_is_not(self):
        t = CosetTable(2, ((1, 2, 0), (1, 0, 2)))
        assert not is_regular(t)

    def test_subgroup_contains(self):
        whole = whole_group_table(2)
        assert subgroup_contains(whole, SWAP)
        assert not subgroup_contains(SWAP, whole)
