import itertools
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from _helpers import contains, schreier_basis, subgroup_contains
from _oracles import (
    enumerate_subgroups_oracle, evaluate, is_class_minimal_oracle, prescribe_degrees_oracle,
)

import gfgcover.cosets as cosets_module
from gfgcover.cosets import (
    CosetTable,
    cyclic_table,
    elevations,
    enumerate_subgroups,
    is_regular,
    prescribe_degrees,
    rewrite,
    schreier,
    subgroup_rank,
    whole_group_table,
)
from gfgcover.cli import gog_from_payload, load_document
from gfgcover.words import Word, conj_canonical, free_reduce

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SWAP = CosetTable(2, ((1, 0), (0, 1)))  # generator 1 swaps, generator 2 fixes


def small_tables():
    out = [whole_group_table(2)]
    for n in (2, 3):
        out.extend(enumerate_subgroups(2, n))
    return out


SMALL_TABLES = small_tables()

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
        assert [b.letters for b in schreier_basis(SWAP)] == [(2,), (1, 1), (1, 2, -1)]

    def test_rewrite_frozen(self):
        assert rewrite(SWAP, Word((1, 1), 2)).letters == (2,)
        assert rewrite(SWAP, Word((2,), 2)).letters == (1,)
        assert rewrite(SWAP, Word((1, 2, -1), 2)).letters == (3,)

    def test_rewrite_rejects_non_members(self):
        with pytest.raises(ValueError):
            rewrite(SWAP, Word((1,), 2))

    def test_basis_count(self):
        for t in SMALL_TABLES:
            assert len(schreier_basis(t)) == subgroup_rank(t)

    def test_basis_words_in_subgroup(self):
        for t in SMALL_TABLES:
            for b in schreier_basis(t):
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

    def test_local_matches_conj_canonical_of_the_walk(self):
        # ``local`` takes the least rotation of the closed walk without
        # cyclically reducing it; the oracle canonicalises the walk in full.
        graphs = [gog_from_payload(load_document(str(FIXTURES / name)))
                  for name in ("seeded_torsion.yaml", "genus2.yaml", "hnn_f1.yaml")]
        words = {w for g in graphs for w in g.edge_words.values() if w.rank == 2}
        rng = random.Random(0)
        while len(words) < 40:
            w = free_reduce([rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 9))], 2)
            if not conj_canonical(w).is_trivial():
                words.add(w)
        checked = 0
        for n in range(1, 6):
            for t in enumerate_subgroups(2, n):
                sd = schreier(t)
                for w in sorted(words, key=lambda w: w.letters):
                    for e in elevations(t, w):
                        out, _ = sd.walk(e.base.canonical.letters * e.degree, e.cycle[0])
                        assert e.local == conj_canonical(Word(tuple(out), len(sd.edge_basis)))
                        checked += 1
        assert checked > 10_000

    @given(st.sampled_from(SMALL_TABLES), words2)
    @settings(max_examples=100, deadline=None)
    def test_reps_live_in_subgroup(self, t, w):
        assume(not conj_canonical(w).is_trivial())
        for e in elevations(t, w):
            assert contains(t, e.rep)
            assert conj_canonical(rewrite(t, e.rep)) == e.local


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
        assert all(is_class_minimal_oracle(t) for t in tables)
        assert len(set(tables)) == len(tables)

    def test_deterministic(self):
        assert list(enumerate_subgroups(2, 3)) == list(enumerate_subgroups(2, 3))

    @pytest.mark.parametrize("rank,top", [(1, 7), (2, 6), (3, 4)])
    def test_catalog_matches_the_full_enumerator(self, monkeypatch, rank, top):
        """The raw-row canonicity test keeps exactly the tables that the
        full-encoding test keeps among all standard tables, in the same
        order, and builds a table only for those."""
        built = []
        real = cosets_module.CosetTable

        def counted(*args):
            built.append(args)
            return real(*args)

        for n in range(1, top + 1):
            want = list(enumerate_subgroups_oracle(rank, n))
            with monkeypatch.context() as patch:
                patch.setattr(cosets_module, "CosetTable", counted)
                built.clear()
                got = list(enumerate_subgroups(rank, n))
            assert got == want
            assert len(built) == len(want)
        assert len(want) > 1 or rank == 1

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

    def test_a_map_that_is_not_onto_is_named_by_its_image(self):
        # Z/2's first candidate sends both generators to 0: its image is the
        # trivial group, a one-coset table.
        res = prescribe_degrees(2, [Word((1,), 2)], [1])
        assert (res.table.size, res.scale) == (1, 1)
        assert res.quotient == "image in Z/2 (order 1)"
        assert res == prescribe_degrees_oracle(2, [Word((1,), 2)], [1])
        onto = prescribe_degrees(2, [Word((1,), 2)], [2])
        assert onto.quotient == "Z/2 (order 2)"

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
        calls = [(2, [w], (d,)) for w in words for d in range(1, 5)]
        comm = Word((1, 2, -1, -2), 2)
        for pair in ([comm, Word((1,), 2)], [Word((1, 2), 2), comm],
                     [Word((1, 1), 2), Word((2, 2, 2), 2)]):
            calls += [(2, pair, ds) for ds in ((1, 1), (2, 1), (1, 2), (2, 3))]
        calls += [(1, [Word((1,) * k, 1)], (d,)) for k in (1, 2) for d in range(1, 5)]
        found = 0
        for rank, targets, degrees in calls:
            got = prescribe_degrees(rank, targets, degrees, **caps)
            want = prescribe_degrees_oracle(rank, targets, degrees, **caps)
            assert got == want, (targets, degrees)
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

    def test_power_pairs_fail_fast(self, monkeypatch):
        # Targets w and v = w^k (or (w^-1)^k), in either order, at degrees
        # d and e.  The ones prescribe_degrees refuses before any scan must
        # be impossible: no image of an index-<=5 action gives w and v the
        # orders s*d and s*e.
        # Some scale s meets d = e * gcd(s * d, k) exactly when s = 1 does.
        for d, e, k in itertools.product(range(1, 13), repeat=3):
            some_s = any(d == e * math.gcd(s * d, k) for s in range(1, k + 1))
            assert some_s == (d == e * math.gcd(d, k))
        a, b = Word((1,), 2), Word((2,), 2)
        pairs = []
        for w in (a, a * b, a * b.inverse()):
            for k in (2, 3):
                for root in (w, w.inverse()):
                    power = Word(root.letters * k, 2)
                    pairs += [((w, power), k), ((power, w), k)]
        images = [t for n in range(2, 6) for t in enumerate_subgroups(2, n)]

        def order(table, w):
            return math.lcm(*(e.degree for e in elevations(table, w)))

        orders = {}
        for targets, k in pairs:
            o = orders[targets] = [(order(t, targets[0]), order(t, targets[1])) for t in images]
            root_order = [p if len(targets[0]) < len(targets[1]) else q for p, q in o]
            power_order = [q if len(targets[0]) < len(targets[1]) else p for p, q in o]
            # ord(w^k) = ord(w) / gcd(ord(w), k) on every image.
            assert power_order == [r // math.gcd(r, k) for r in root_order]

        def refuse(*args):
            raise AssertionError("scan started")

        monkeypatch.setattr(cosets_module, "enumerate_subgroups", refuse)
        monkeypatch.setattr(cosets_module, "_abelian_degrees_possible", refuse)
        flagged = 0
        cases = [(t, ds) for t, _ in pairs for ds in itertools.product(range(1, 5), repeat=2)]
        for targets, (d, e) in cases:
            try:
                assert prescribe_degrees(2, list(targets), (d, e)) is None
            except AssertionError as exc:
                assert str(exc) == "scan started"
                continue
            flagged += 1
            assert not any(p % d == 0 and q * d == p * e for p, q in orders[targets]), (targets, d, e)
        assert 0 < flagged < len(cases)
        assert prescribe_degrees(2, [a, a * a], (2, 2)) is None

    def test_common_root_powers_fail_fast(self, monkeypatch):
        # Targets r^i and r^j (or (r^-1)^j), at degrees d1 and d2.  The
        # lemma's test is exact over the integers: some o and s give
        # o / gcd(o, i) = s * d1 and o / gcd(o, j) = s * d2.  A witness
        # needs o <= lcm(i, j)^2 * max(d1, d2).
        for i, j, d1, d2 in itertools.product(range(1, 5), repeat=4):
            bound = math.lcm(i, j) ** 2 * max(d1, d2)
            some_o = any(
                o // math.gcd(o, i) * d2 == o // math.gcd(o, j) * d1
                and (o // math.gcd(o, i)) % d1 == 0
                for o in range(1, bound + 1)
            )
            assert cosets_module._power_degrees_possible(i, j, d1, d2) == some_o, (i, j, d1, d2)
        a, b = Word((1,), 2), Word((2,), 2)
        pairs = []
        for r in (a, a * b, a * b.inverse()):
            for i, j in itertools.product(range(1, 5), repeat=2):
                for root in (r, r.inverse()):
                    pairs.append((r.power(i), root.power(j)))
        images = [t for n in range(2, 6) for t in enumerate_subgroups(2, n)]

        def order(table, w):
            return math.lcm(*(e.degree for e in elevations(table, w)))

        orders = {}
        for r in (a, a * b, a * b.inverse()):
            root_order = [order(t, r) for t in images]
            for i in range(1, 5):
                # ord(r^i) = ord(r) / gcd(ord(r), i) on every image.
                assert [order(t, r.power(i)) for t in images] == [
                    o // math.gcd(o, i) for o in root_order
                ]
        for targets in pairs:
            orders[targets] = [(order(t, targets[0]), order(t, targets[1])) for t in images]

        def refuse(*args):
            raise AssertionError("scan started")

        monkeypatch.setattr(cosets_module, "enumerate_subgroups", refuse)
        monkeypatch.setattr(cosets_module, "_abelian_degrees_possible", refuse)
        flagged = set()
        cases = [(t, ds) for t in pairs for ds in itertools.product(range(1, 5), repeat=2)]
        for targets, (d1, d2) in cases:
            try:
                assert prescribe_degrees(2, list(targets), (d1, d2)) is None
            except AssertionError as exc:
                assert str(exc) == "scan started"
                continue
            flagged.add((targets, (d1, d2)))
            assert not any(
                p % d1 == 0 and q * d1 == p * d2 for p, q in orders[targets]
            ), (targets, d1, d2)
        assert 0 < len(flagged) < len(cases)
        # Neither word is a power of the other here.
        assert ((a.power(2), a.power(3)), (2, 1)) in flagged
        assert prescribe_degrees(2, [a.power(2), a.power(3)], (2, 1)) is None

    def test_zero_sum_target_skips_the_abelian_phases(self, monkeypatch):
        # A word with zero exponent sums maps to 0, of order 1, in every
        # abelian quotient, so at a degree above 1 no modulus or pair of the
        # schedule can pass.
        schedule = [(m,) for m in range(2, 61)]
        schedule += [(m1, m2) for m1 in range(2, 13) for m2 in range(m1, 13)]
        assert len(schedule) == 125
        for d in (2, 3, 4, 6):
            for gcds, degrees in (([0], [d]), ([0, 1], [d, 1]), ([2, 0], [2, d])):
                assert not any(
                    cosets_module._abelian_degrees_possible(gcds, degrees, ms) for ms in schedule
                )
        comm = Word((1, 2, -1, -2), 2)
        caps = dict(max_modulus=12, max_pair_modulus=4, max_perm_index=4)
        calls = [
            ([comm], (2,)), ([comm], (3,)), ([comm], (4,)), ([comm, Word((1,), 2)], (2, 1)),
            ([comm, Word((1,), 2)], (2, 2)), ([Word((1, 2), 2), comm], (3, 2)),
        ]
        want = [prescribe_degrees_oracle(2, targets, ds, **caps) for targets, ds in calls]
        assert 0 < sum(res is None for res in want) < len(want)

        def refuse(*args):
            raise AssertionError("abelian phase entered")

        monkeypatch.setattr(cosets_module, "_abelian_degrees_possible", refuse)
        assert [prescribe_degrees(2, targets, ds, **caps) for targets, ds in calls] == want

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
