import collections
import contextlib
import gc
import hashlib
import io
import itertools
import random
import sys
from pathlib import Path

import pytest
from _helpers import gog_word_power, identity_cover, lifts_over, outcome, reduce_element
from _oracles import (
    abelianized_presentation_oracle,
    admits_oracle,
    candidate_covers,
    census_extensions,
    chain_oracle,
    class_image_oracle,
    close_open_ends_oracle,
    degree_covers_oracle,
    detach_edge,
    elevations_oracle,
    enumerate_covers_oracle,
    is_cut_vertex,
    is_nontrivial,
    isomorphic_oracle,
    merge_cyclic,
    morphism_fields_oracle,
    quotient_by,
    rename_total,
    smith_group,
    splice,
    step_assembly_oracle,
    torsion_lifts_oracle,
    torsion_piece_oracle,
)
from test_console import CONSOLE, SEEDED, shown

import gfgcover.covers as covers_module
from gfgcover.cli import (
    document_for_morphism, document_for_piece, gog_from_payload, load_document, main,
    save_document,
)
from gfgcover.cosets import (
    CosetTable, cyclic_table, elevations, enumerate_subgroups, whole_group_table,
)
from gfgcover.covers import (
    CoverCensus,
    ElevationRef,
    ExitsAt,
    InSubgroup,
    PrecoverMorphism,
    TorsionPiece,
    TowerBounds,
    build_tower,
    canonical_code,
    chain,
    complete,
    degree,
    enumerate_covers,
    find_torsion_piece,
    isomorphic,
    lift_word,
    predegree,
    split_cyclic,
    validate_cover,
    validate_precover,
    with_basepoint,
)
from gfgcover.errors import Budget, BudgetExceededError
from gfgcover.gog import (
    GogWord,
    GraphOfGroups,
    SerreGraph,
    abelianized_presentation,
    enumerate_closed_words,
    euler_characteristic,
)
from gfgcover.homology import (
    IntMatrix,
    class_image,
    h1,
    h1_mod_cyclic,
    p_rank,
    torsion_exponent,
)
from gfgcover.words import Word, conj_canonical, free_reduce


def amalgam(words=((1, 1, 2),)):
    """Rank-2 free vertex joined to one cyclic vertex by len(words) pairs."""
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
    """The shipped torsion fixture: peripheral words b and a^3 b^-1.

    Its degree-3 cover enumeration already contains 2-torsion in first
    homology, which is what makes the torsion-piece search succeed.
    """
    return amalgam(((2,), (1, 1, 1, -2)))


# Free-side words (w0, w1) of seven amalgams with distinct torsion-piece
# behaviour over p in {2, 3, 5, 7} at index <= 4: early and late hits, and
# misses that scan every cover.
AMALGAMS = {
    "A": ((1,), (-1, -2, 1, -2)),
    "B": ((-2, -2), (2, -1, 2)),
    "C": ((2,), (1, 1, -2)),
    "D": ((2,), (1, 2, 1, -2)),
    "E": ((1, 2), (1, -2)),
    "F": ((1, 1), (2, 2, 2)),
    "G": ((2,), (1, 1, 1, 1, -2)),
}


def loop_hnn(fwd, bwd, rank=1):
    graph = SerreGraph(["v"], {"p": ("v", "v")})
    return GraphOfGroups(
        graph,
        {"v": rank},
        {"v": "free"},
        {"p": Word(tuple(fwd), rank), "~p": Word(tuple(bwd), rank)},
        "v",
    )


def bs11():
    return loop_hnn((1,), (1,))


def bs13():
    return loop_hnn((1,), (1, 1, 1))


def f2loop():
    return loop_hnn((1,), (2,), rank=2)


def genus2():
    graph = SerreGraph(["u", "w"], {"p": ("u", "w")})
    comm = Word((1, 2, -1, -2), 2)
    return GraphOfGroups(
        graph, {"u": 2, "w": 2}, {"u": "free", "w": "free"},
        {"p": comm, "~p": comm}, "u",
    )


# ---------------------------------------------------------------------------
# Oracle: brute-force cover census for one-loop bases.  Builds every
# degree-preserving bijection between the two elevation pools by hand and
# keeps the connected results, so it exercises none of the matching engine,
# and dedups them with the unpruned isomorphism oracle.


def loop_cover_candidates(g, max_index):
    from gfgcover.cosets import enumerate_subgroups

    tables = {1: [whole_group_table(g.rank("v"))]}
    for n in range(2, max_index + 1):
        tables[n] = list(enumerate_subgroups(g.rank("v"), n))
    multisets = []
    for total in range(1, max_index + 1):
        for part in _partitions(total):
            pools = [tables[n] for n in part]
            for combo in itertools.product(*pools):
                if list(part) == sorted(part):
                    multisets.append(combo)
    for combo in multisets:
        lifts = {"v+%d" % i: t for i, t in enumerate(combo)}
        fwd_pool = []
        bwd_pool = []
        for name, t in sorted(lifts.items()):
            for el in elevations(t, g.edge_word("p")):
                fwd_pool.append((ElevationRef(name, "p", el.cycle[0]), el.degree))
            for el in elevations(t, g.edge_word("~p")):
                bwd_pool.append((ElevationRef(name, "~p", el.cycle[0]), el.degree))
        if len(fwd_pool) != len(bwd_pool):
            continue
        for perm in itertools.permutations(range(len(bwd_pool))):
            if any(fwd_pool[i][1] != bwd_pool[j][1] for i, j in enumerate(perm)):
                continue
            pairs = {
                "p@%d" % i: ("p", fwd_pool[i][0], bwd_pool[j][0])
                for i, j in enumerate(perm)
            }
            m = PrecoverMorphism(g, {k: "v" for k in lifts}, lifts, {}, pairs)
            if validate_cover(m) or not m.total.graph.is_connected():
                continue
            yield m


def loop_cover_census(g, max_index):
    found = []
    for m in loop_cover_candidates(g, max_index):
        if not any(isomorphic_oracle(m, other) for other in found):
            found.append(m)
    return found


def _partitions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _partitions(total - first):
            if not rest or first <= rest[0]:
                yield (first,) + rest


@pytest.fixture(scope="module")
def seeded_piece():
    piece = find_torsion_piece(seeded(), 2, 4)
    assert piece is not None
    return piece


class TestIdentityCover:
    def test_identity_is_a_cover(self):
        for g in (seeded(), bs13(), genus2()):
            m = identity_cover(g)
            assert validate_cover(m) == []
            assert m.hanging == ()
            assert degree(m) == 1
            assert predegree(m) == 1

    def test_basepoint_lift(self):
        m = identity_cover(seeded())
        assert m.total.base_vertex == "v@0"
        assert with_basepoint(m, "v@0") is m
        with pytest.raises(ValueError):
            with_basepoint(m, "c@0")
        # With no lift over the base vertex, the default basepoint is no
        # lift of it either, and cannot be chosen.
        bare = PrecoverMorphism(m.base, {"c@0": "c"}, {}, {"c@0": 1}, {})
        assert bare.total.base_vertex == "c@0"
        with pytest.raises(ValueError, match="not a lift"):
            with_basepoint(bare, "c@0")

    def test_total_ranks_follow_tables(self):
        m = identity_cover(seeded())
        assert m.total.vertex_rank["v@0"] == 2
        assert m.total.vertex_kind["c@0"] == "cyclic"


class TestConstruction:
    def test_nonexistent_elevation_rejected(self):
        g = seeded()
        m = identity_cover(g)
        pairs = dict(m.pair_spec)
        bp, fwd, bwd = pairs["p0@0"]
        pairs["p0@0"] = (bp, fwd, ElevationRef("v@0", "~p0", 7))
        with pytest.raises(ValueError, match="elevation"):
            PrecoverMorphism(g, m.vertex_map, m.vertex_data, m.cyclic_index, pairs)

    def test_duplicate_realization_reported(self):
        g = seeded()
        m = identity_cover(g)
        pairs = dict(m.pair_spec)
        bp, fwd, bwd = pairs["p0@0"]
        pairs["extra"] = (bp, fwd, bwd)
        dup = PrecoverMorphism(g, m.vertex_map, m.vertex_data, m.cyclic_index, pairs)
        assert validate_precover(dup) == [
            "elevation %r realized by 2 edges" % (ref,) for ref in (fwd, bwd)
        ]
        assert (dup.realized[fwd], dup.realized[bwd]) == ("extra", "~extra")

    def test_wrong_orientation_rejected(self):
        g = seeded()
        m = identity_cover(g)
        pairs = {"p0@0": ("p0", m.pair_spec["p0@0"][2], m.pair_spec["p0@0"][1])}
        with pytest.raises(ValueError):
            PrecoverMorphism(g, m.vertex_map, m.vertex_data, m.cyclic_index, pairs)


class TestF2LoopCover:
    """Index-2 cover of the rank-2 loop base with edge words a and b."""

    def build(self):
        g = f2loop()
        swap = CosetTable(2, ((1, 0), (1, 0)))
        a_elev = elevations(swap, g.edge_word("p"))
        b_elev = elevations(swap, g.edge_word("~p"))
        assert [el.degree for el in a_elev] == [2]
        assert [el.degree for el in b_elev] == [2]
        pairs = {
            "p@0": (
                "p",
                ElevationRef("v@0", "p", a_elev[0].cycle[0]),
                ElevationRef("v@0", "~p", b_elev[0].cycle[0]),
            )
        }
        return g, PrecoverMorphism(g, {"v@0": "v"}, {"v@0": swap}, {}, pairs)

    def test_valid_of_degree_two(self):
        _, m = self.build()
        assert validate_cover(m) == []
        assert degree(m) == 2

    def test_edge_removed_leaves_hangings(self):
        g, m = self.build()
        bare = PrecoverMorphism(g, m.vertex_map, m.vertex_data, {}, {})
        problems = validate_cover(bare)
        assert len([p for p in problems if "hanging" in p]) == 2


class TestDegree:
    def test_disjoint_union_has_no_degree(self):
        m = identity_cover(seeded())
        two = splice([m, rename_total(m, "'")], [])
        assert validate_cover(two) == []
        assert predegree(two) == 2
        with pytest.raises(ValueError, match="disconnected"):
            degree(two)

    def test_detached_identity_predegree(self):
        m = detach_edge(identity_cover(seeded()), "p0@0")
        assert len(m.hanging) == 2
        assert predegree(m) == 1
        sides = sorted(s.side for s in m.hanging)
        assert sides == ["cyclic", "free"]


class TestSpliceDetach:
    def test_detach_is_orientation_blind(self):
        m = identity_cover(seeded())
        a = detach_edge(m, "p0@0")
        b = detach_edge(m, "~p0@0")
        assert a.pair_spec == b.pair_spec

    def test_detach_then_splice_back(self):
        m = identity_cover(seeded())
        d = detach_edge(m, "p0@0")
        back = splice([d], [((0, 0), (0, 1))])
        assert validate_cover(back) == []
        assert isomorphic(back, m)

    def test_cross_matched_copies_cover_degree_two(self):
        d = detach_edge(identity_cover(seeded()), "p0@0")
        a, b = rename_total(d, "'"), rename_total(d, "''")
        free_a = next(i for i, s in enumerate(a.hanging) if s.side == "free")
        cyc_a = next(i for i, s in enumerate(a.hanging) if s.side == "cyclic")
        joined = splice(
            [a, b], [((0, free_a), (1, cyc_a)), ((0, cyc_a), (1, free_a))]
        )
        assert validate_cover(joined) == []
        assert joined.total.graph.is_connected()
        assert degree(joined) == 2

    def test_orbit_mismatch(self):
        d = detach_edge(identity_cover(seeded()), "p0@0")
        e = detach_edge(identity_cover(seeded()), "p1@0")
        e = rename_total(e, "'")
        free_d = next(i for i, s in enumerate(d.hanging) if s.side == "free")
        cyc_e = next(i for i, s in enumerate(e.hanging) if s.side == "cyclic")
        with pytest.raises(ValueError, match="orbit"):
            splice([d, e], [((0, free_d), (1, cyc_e))])

    def test_degree_mismatch(self):
        g = seeded()
        d1 = detach_edge(identity_cover(g), "p0@0")
        big = next(m for m in enumerate_covers(g, 2) if 2 in m.cyclic_index.values())
        q = next(
            q for q, ref in big.edge_assignment.items()
            if not q.startswith("~") and big.cyclic_index.get(ref.vertex) == 2
        )
        d2 = rename_total(detach_edge(big, q), "'")
        k = next(i for i, s in enumerate(d1.hanging) if s.side == "free")
        ls = [i for i, s in enumerate(d2.hanging) if s.side == "cyclic" and s.degree == 2]
        assert ls, "expected an index-2 cyclic slot"
        with pytest.raises(ValueError, match="degree mismatch"):
            splice([d1, d2], [((0, k), (1, ls[0]))])

    def test_slot_reuse_rejected(self):
        d = detach_edge(identity_cover(seeded()), "p0@0")
        with pytest.raises(ValueError, match="twice"):
            splice([d], [((0, 0), (0, 0))])

    def test_subadditivity(self):
        d = detach_edge(identity_cover(seeded()), "p0@0")
        parts = [rename_total(d, "'%d" % i) for i in range(3)]
        out = splice(
            parts,
            [
                ((0, 0), (1, 1)),
                ((1, 0), (2, 1)),
            ],
        )
        assert predegree(out) <= sum(predegree(p) for p in parts)


class TestSplitMerge:
    def test_valence_two_split(self):
        m = identity_cover(seeded())
        piece = split_cyclic(m, "c@0", ["p0@0"])
        for v in ("c@0.1", "c@0.2"):
            incident = [d for d, r in piece.edge_assignment.items() if r.vertex == v]
            assert len(incident) == 1
        assert len(piece.hanging) == 2
        assert {s.vertex for s in piece.hanging} == {"c@0.1", "c@0.2"}

    def test_valence_three_split(self):
        g = amalgam(((2,), (1, 1, 2), (1, 1, 1, -2)))
        m = identity_cover(g)
        piece = split_cyclic(m, "c@0", ["p0@0", "p1@0"])
        val = {
            v: len([d for d, r in piece.edge_assignment.items() if r.vertex == v])
            for v in ("c@0.1", "c@0.2")
        }
        assert val == {"c@0.1": 2, "c@0.2": 1}

    def test_split_errors(self):
        m = identity_cover(seeded())
        with pytest.raises(ValueError, match="non-cyclic"):
            split_cyclic(m, "v@0", ["p0@0"])
        with pytest.raises(ValueError, match="non-empty"):
            split_cyclic(m, "c@0", ["p0@0", "p1@0"])
        with pytest.raises(ValueError, match="not incident"):
            split_cyclic(m, "c@0", ["p7@0"])

    def test_merge_undoes_split(self):
        m = identity_cover(seeded())
        piece = split_cyclic(m, "c@0", ["p0@0"])
        back = merge_cyclic(piece, "c@0.1", "c@0.2")
        assert validate_cover(back) == []
        assert isomorphic(back, m)

    def test_merge_errors(self):
        g = seeded()
        m = PrecoverMorphism(
            g, {"c@0": "c", "c@1": "c"}, {}, {"c@0": 1, "c@1": 2}, {}
        )
        with pytest.raises(ValueError, match="index mismatch"):
            merge_cyclic(m, "c@0", "c@1")
        with pytest.raises(ValueError, match="distinct"):
            merge_cyclic(m, "c@0", "c@0")


class TestEnumerate:
    def test_max_index_one_is_identity(self):
        for g in (seeded(), bs13()):
            ms = list(enumerate_covers(g, 1))
            assert len(ms) == 1
            assert isomorphic(ms[0], identity_cover(g))

    def test_census_oracle_bs11(self):
        g = bs11()
        got = list(enumerate_covers(g, 2))
        expected = loop_cover_census(g, 2)
        assert len(got) == len(expected) == 3
        for m in got:
            assert any(isomorphic(m, o) for o in expected)

    def test_census_oracle_bs13_degree_three(self):
        g = bs13()
        got = list(enumerate_covers(g, 3))
        expected = loop_cover_census(g, 3)
        assert len(got) == len(expected)
        for m in got:
            assert any(isomorphic(m, o) for o in expected)

    def test_distinct_up_to_iso(self):
        ms = list(enumerate_covers(seeded(), 3))
        for a, b in itertools.combinations(ms, 2):
            assert not isomorphic(a, b)

    def test_degrees_ascend_and_validate(self):
        degs = []
        for m in enumerate_covers(seeded(), 3):
            assert validate_cover(m) == []
            degs.append(degree(m))
        assert degs == sorted(degs)

    def test_chi_multiplicative_genus2(self):
        g = genus2()
        assert euler_characteristic(g) == -2
        seen = set()
        for m in enumerate_covers(g, 2):
            assert euler_characteristic(m.total) == -2 * degree(m)
            seen.add(degree(m))
        assert seen == {1, 2}

    def test_cyclic_edge_degree_matching(self):
        for m in enumerate_covers(seeded(), 3):
            for q, (bp, fwd, bwd) in m.pair_spec.items():
                for ref in (fwd, bwd):
                    if m.total.vertex_kind[ref.vertex] == "cyclic":
                        other = bwd if ref is fwd else fwd
                        el = next(
                            e for e in m.elevs(other.vertex, other.edge)
                            if e.cycle[0] == other.least
                        )
                        assert el.degree == m.cyclic_index[ref.vertex]

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_covers(seeded(), 4, Budget(10)))

    def test_determinism(self):
        a = [repr(sorted(m.vertex_map.items())) for m in enumerate_covers(seeded(), 3)]
        b = [repr(sorted(m.vertex_map.items())) for m in enumerate_covers(seeded(), 3)]
        assert a == b


class TestComplete:
    def test_cover_returned_as_is(self):
        m = identity_cover(seeded())
        assert complete(m, 0) is m

    def test_detached_edge_resplices_at_bound_zero(self):
        m = identity_cover(seeded())
        out = complete(detach_edge(m, "p0@0"), 0)
        assert out is not None
        assert validate_cover(out) == []
        assert isomorphic(out, m)

    def test_lone_free_lift_needs_budget(self):
        g = seeded()
        t = whole_group_table(2)
        m = PrecoverMorphism(g, {"v@0": "v"}, {"v@0": t}, {}, {})
        assert complete(m, 0) is None
        out = complete(m, 1)
        assert out is not None and degree(out) == 1

    @pytest.mark.parametrize("free_name", ["v@0", "v+0"])
    def test_new_free_lifts_get_distinct_names(self, free_name):
        # New lifts are named v+k; one already named so must not make two
        # new lifts share a name, which would drop one of them.
        cyclic = {"c@7": 1, "c@8": 1, "c@9": 1}
        m = PrecoverMorphism(
            seeded(), {free_name: "v", **dict.fromkeys(cyclic, "c")},
            {free_name: whole_group_table(2)}, cyclic, {},
        )
        out = complete(m, 12)
        assert out.sums == {"v": 3, "c": 3}
        assert set(m.vertex_map) < set(out.vertex_map)

    def test_result_contains_input(self, seeded_piece):
        m = chain(seeded_piece, 2)
        out = complete(m, 12)
        assert out is not None
        assert validate_cover(out) == []
        assert set(m.vertex_map) <= set(out.vertex_map)
        assert set(m.pair_spec) <= set(out.pair_spec)
        assert degree(out) >= predegree(m)


class TestTorsionPiece:
    def test_seeded_fixture_found(self, seeded_piece):
        piece = seeded_piece
        assert piece.prime == 2
        assert piece.boundary_index == 1
        assert predegree(piece.morphism) == 4
        assert p_rank(piece.certificate, 2) >= 1
        assert (piece.certificate.betti, piece.certificate.divisors) == (2, (2, 2))

    def test_certificate_recomputed(self, seeded_piece):
        piece = seeded_piece
        a = h1(piece.morphism)
        q = quotient_by(
            a,
            [
                class_image(piece.morphism, piece.c1),
                class_image(piece.morphism, piece.c2),
            ],
        )
        assert (q.betti, q.divisors) == (
            piece.certificate.betti,
            piece.certificate.divisors,
        )

    def test_boundary_invariants(self, seeded_piece):
        piece = seeded_piece
        m = piece.morphism
        assert m.vertex_map[piece.c1] == m.vertex_map[piece.c2]
        assert m.cyclic_index[piece.c1] == m.cyclic_index[piece.c2]
        at = {s.vertex for s in m.hanging}
        assert at == {piece.c1, piece.c2}

    def test_genus2_has_none(self):
        assert find_torsion_piece(genus2(), 2, 2) is None
        assert find_torsion_piece(genus2(), 3, 2) is None

    def test_prime_checked(self):
        with pytest.raises(ValueError, match="prime"):
            find_torsion_piece(seeded(), 4, 2)


def same_piece(a, b):
    if a is None or b is None:
        return a is b
    return (
        a.morphism.vertex_map == b.morphism.vertex_map
        and a.morphism.pair_spec == b.morphism.pair_spec
        and (a.c1, a.c2, a.prime) == (b.c1, b.c2, b.prime)
        and (a.certificate.betti, a.certificate.divisors)
        == (b.certificate.betti, b.certificate.divisors)
    )


def piece_candidates(m):
    """(lift, incident edges) for each cyclic lift the piece search tests."""
    for v in sorted(m.cyclic_index):
        incident = sorted(d for d, r in m.edge_assignment.items() if r.vertex == v)
        if len(incident) >= 2 and not is_cut_vertex(m.total.graph, v):
            yield v, incident


class TestTorsionPieceSearch:
    @pytest.mark.parametrize(
        "name", ["seeded_torsion", "hnn_f1", "genus2"] + sorted(AMALGAMS)
    )
    def test_agrees_with_per_edge_oracle(self, name):
        # genus2 has no cyclic vertex; index 3 keeps its empty scan short.
        if name in AMALGAMS:
            g, top = amalgam(AMALGAMS[name]), 4
        else:
            g, top = fixture(name), 3 if name == "genus2" else 4
        for p in (2, 3, 5, 7):
            assert same_piece(find_torsion_piece(g, p, top), torsion_piece_oracle(g, p, top))

    def test_budget_runs_out_where_the_oracle_does(self):
        def outcome(search, g, p, cap):
            try:
                return search(g, p, 4, Budget(cap))
            except BudgetExceededError:
                return "budget"

        raised = found = 0
        for g, p in ((seeded(), 2), (seeded(), 5), (amalgam(AMALGAMS["G"]), 3)):
            for cap in range(1, 460, 23):
                got = outcome(find_torsion_piece, g, p, cap)
                want = outcome(torsion_piece_oracle, g, p, cap)
                if want == "budget":
                    assert got == "budget"
                    raised += 1
                else:
                    assert same_piece(got, want)
                    found += want is not None
        assert raised and found

    def test_split_lemma(self):
        # Splitting a lift keeps the divisors of its cover with the lift's
        # generator killed and lowers betti by exactly one, whichever edge
        # the first copy keeps.
        checked = 0
        for g, top in ((seeded(), 3), (amalgam(AMALGAMS["A"]), 4)):
            for m in enumerate_covers(g, top):
                for v, incident in piece_candidates(m):
                    killed = h1_mod_cyclic(m, [v])
                    for d in incident:
                        split = h1_mod_cyclic(split_cyclic(m, v, [d]), [v + ".1", v + ".2"])
                        assert split.divisors == killed.divisors
                        assert split.betti == killed.betti - 1
                        checked += 1
        assert checked >= 100

    def test_homology_matches_cokernel(self):
        # Against the diagonal of the full Smith form, not against the
        # transform-free elimination that h1 runs.
        for name in ("seeded_torsion", "hnn_f1", "genus2"):
            for m in enumerate_covers(fixture(name), 3):
                roster, matrix = abelianized_presentation(m.total)
                assert h1(m) == smith_group(matrix)
                for v in sorted(m.cyclic_index):
                    col = roster.index(("vertex", v, 0))
                    unit = [1 if j == col else 0 for j in range(matrix.cols)]
                    want = smith_group(IntMatrix.from_rows(list(matrix.entries) + [unit], matrix.cols))
                    assert h1_mod_cyclic(m, [v]) == want

    def test_class_image_matches_coordinate_oracle(self):
        checked = 0
        for name in ("seeded_torsion", "hnn_f1", "genus2"):
            for m in enumerate_covers(fixture(name), 3):
                g = m.total
                targets = sorted(m.cyclic_index)
                for v in sorted(g.graph.vertices):
                    r = g.vertex_rank[v]
                    for letters in [(i,) for i in range(1, r + 1)] + [(1, 1, r), (-r, -r, -1)]:
                        targets.append((v, Word(letters, r)))
                    targets.append((v, conj_canonical(Word((r, 1, 1), r))))
                for t in targets:
                    assert class_image(m, t) == class_image_oracle(m, t)
                    checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("p, splits", [(5, 0), (2, 1)])
    def test_splits_only_the_hit(self, monkeypatch, p, splits):
        calls = []
        real = covers_module.split_cyclic

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(covers_module, "split_cyclic", counting)
        piece = find_torsion_piece(seeded(), p, 4)
        assert (piece is not None) == bool(splits)
        assert len(calls) == splits


class TestChain:
    def test_one_copy_is_the_piece(self, seeded_piece):
        assert chain(seeded_piece, 1) is seeded_piece.morphism

    def test_growth(self, seeded_piece):
        for alpha in range(1, 5):
            c = chain(seeded_piece, alpha)
            assert validate_precover(c) == []
            assert torsion_exponent(h1(c), 2) >= alpha
            assert predegree(c) <= alpha * predegree(seeded_piece.morphism)

    def test_two_open_boundaries(self, seeded_piece):
        c = chain(seeded_piece, 3)
        assert len(c.hanging) == 2
        assert {s.side for s in c.hanging} == {"cyclic"}

    def test_copy_count_checked(self, seeded_piece):
        with pytest.raises(ValueError):
            chain(seeded_piece, 0)


def _fields(m):
    """A morphism's lift and pair dicts as ordered item lists, its basepoint
    and its document bytes."""
    return (
        list(m.vertex_map.items()), list(m.vertex_data.items()),
        list(m.cyclic_index.items()), list(m.pair_spec.items()),
        m.total.base_vertex, save_document(document_for_morphism(m)),
    )


def _chain_error(build, piece, copies):
    with pytest.raises(ValueError) as info:
        build(piece, copies)
    return str(info.value)


class TestChainOneBuild:
    def test_matches_the_composed_chain(self):
        """Every piece found at p in {2, 3, 5} and index <= 4 on seeded and
        amalgams A-G, chained 1 to 5 times."""
        pieces = [
            piece
            for g in [seeded()] + [amalgam(ws) for ws in AMALGAMS.values()]
            for piece in (find_torsion_piece(g, p, 4) for p in (2, 3, 5))
            if piece is not None
        ]
        assert len(pieces) >= 10
        for piece in pieces:
            for alpha in range(1, 6):
                want = chain_oracle(piece, alpha)
                assert _fields(chain(piece, alpha)) == _fields(want)

    def test_bad_boundaries_raise_the_composed_chain_errors(self, seeded_piece):
        uneven = next(
            m for m in enumerate_covers(seeded(), 3) if len(set(m.cyclic_index.values())) > 1
        )
        two_cyclic = GraphOfGroups(
            SerreGraph(["v", "c", "d"], {"p": ("v", "c"), "q": ("v", "d")}),
            {"v": 2, "c": 1, "d": 1},
            {"v": "free", "c": "cyclic", "d": "cyclic"},
            {"p": Word((1,), 1), "~p": Word((2,), 2), "q": Word((1,), 1), "~q": Word((1, 2), 2)},
            "v",
        )
        base = identity_cover(seeded())
        q, spec = min(base.pair_spec.items())
        doubled = PrecoverMorphism(
            base.base, base.vertex_map, base.vertex_data, base.cyclic_index,
            {**base.pair_spec, q + "x": spec},
        )
        cert = seeded_piece.certificate
        m = seeded_piece.morphism
        both = (2, 3)
        cases = [
            (TorsionPiece(doubled, "c@0", "c@0", 2, cert), "realized by 2 edges", (1, 2, 3)),
            (TorsionPiece(uneven, "c@0", "c@1", 2, cert), "index mismatch", both),
            (TorsionPiece(identity_cover(two_cyclic), "c@0", "d@0", 2, cert), "different base", both),
            (TorsionPiece(m, "v@0", "c@0.2", 2, cert), "non-cyclic vertex 'v@0#1'", both),
            (TorsionPiece(m, "c@0.1", "v@0", 2, cert), "non-cyclic vertex 'v@0#2'", both),
            # Two copies of a piece whose c1 is its c2 merge; a third finds
            # its c1 merged away.
            (TorsionPiece(m, "c@0.1", "c@0.1", 2, cert), "non-cyclic vertex 'c@0.1#2'", (3,)),
        ]
        for piece, why, counts in cases:
            for copies in counts:
                got = _chain_error(chain, piece, copies)
                assert why in got
                assert got == _chain_error(chain_oracle, piece, copies)
        same = cases[-1][0]
        assert _fields(chain(same, 2)) == _fields(chain_oracle(same, 2))
        for build in (chain, chain_oracle):
            assert _chain_error(build, seeded_piece, 0) == "need at least one copy"


class TestHNNIdentity:
    def assert_identity(self, m, v, edge):
        piece = split_cyclic(m, v, [edge])
        a = h1(piece)
        x = class_image(piece, v + ".1")
        y = class_image(piece, v + ".2")
        diff = reduce_element(a, tuple(xi - yi for xi, yi in zip(x, y)))
        rhs = quotient_by(a, [diff])
        lhs = h1(merge_cyclic(piece, v + ".1", v + ".2"))
        assert lhs.betti == rhs.betti + 1
        assert lhs.divisors == rhs.divisors

    def test_on_enumerated_covers(self):
        checked = 0
        for g in (seeded(), amalgam(((1, 1, 2), (2, 2, 1)))):
            for m in enumerate_covers(g, 3):
                for v, incident in piece_candidates(m):
                    for edge in incident:
                        self.assert_identity(m, v, edge)
                        checked += 1
        assert checked >= 20


class TestLiftWord:
    def loop_word(self, g, k=1):
        one = Word((), g.rank("v"))
        w = GogWord("v", (one, one), ("p",))
        return gog_word_power(g, w, k) if k > 1 else w

    def test_identity_cover_contains_all_loops(self):
        g = seeded()
        m = identity_cover(g)
        for gw in itertools.islice(enumerate_closed_words(g, 3), 12):
            assert isinstance(lift_word(m, gw), InSubgroup)

    def test_index_two_crossing(self):
        g = bs13()
        m = next(m for m in enumerate_covers(g, 2) if len(m.vertex_map) == 2)
        once = self.loop_word(g)
        res = lift_word(m, once)
        assert isinstance(res, ExitsAt)
        assert res.vertex != m.total.base_vertex
        assert isinstance(lift_word(m, self.loop_word(g, 2)), InSubgroup)

    def test_exits_mid_walk_at_hanging_slot(self):
        g = seeded()
        m = detach_edge(identity_cover(g), "p0@0")
        one2, one1 = Word((), 2), Word((), 1)
        gw = GogWord("v", (one2, one1, one2), ("p0", "~p0"))
        res = lift_word(m, gw)
        assert isinstance(res, ExitsAt)
        assert res.position == 1

    def test_rejects_open_or_misbased_words(self):
        g = seeded()
        m = identity_cover(g)
        one2, one1 = Word((), 2), Word((), 1)
        open_word = GogWord("v", (one2, one1), ("p0",))
        with pytest.raises(ValueError, match="closed"):
            lift_word(m, open_word)
        at_c = GogWord("c", (Word((1,), 1),), ())
        with pytest.raises(ValueError, match="basepoint|starts"):
            lift_word(m, at_c)

    def test_closure_divisibility(self):
        # A loop's lift walks a cycle in the fiber: some minimal power
        # closes up, bounded by the degree, and exactly its multiples close.
        for g in (seeded(), bs13()):
            words = [
                gw
                for gw in itertools.islice(enumerate_closed_words(g, 4), 24)
                if is_nontrivial(g, gw)
            ]
            for m in enumerate_covers(g, 3):
                d = degree(m)
                for gw in words[:12]:
                    close = [
                        k
                        for k in range(1, d + 1)
                        if isinstance(lift_word(m, gog_word_power(g, gw, k)), InSubgroup)
                    ]
                    assert close, "no closing power within the degree"
                    k0 = close[0]
                    for j in range(1, 2 * k0 + 1):
                        closes = isinstance(
                            lift_word(m, gog_word_power(g, gw, j)), InSubgroup
                        )
                        assert closes == (j % k0 == 0)


@pytest.mark.parametrize("name", ["seeded_torsion", "hnn_f1", "genus2"] + sorted(AMALGAMS))
def test_closed_words_are_nontrivial(name):
    # The search makes no pinch, so it needs no test of the finished word.
    g = amalgam(AMALGAMS[name]) if name in AMALGAMS else fixture(name)
    words = list(enumerate_closed_words(g, 6))
    assert words and all(is_nontrivial(g, gw) for gw in words)


class TestTower:
    def test_zero_steps(self):
        rep = build_tower(seeded(), [2], 0)
        assert rep.status == "ok"
        assert rep.steps == ()
        assert rep.to_csv() == "step,prime,degree,e_2,ratio_2,status\n0,,1,0,0/1,base\n"

    def test_seeded_one_step(self):
        rep = build_tower(seeded(), [2], 1)
        assert rep.status == "ok"
        st = rep.steps[0]
        assert st.alpha == 1 and st.beta == 1
        assert st.total_degree == 8
        assert st.exponents == {2: 1}
        assert st.excluded and st.excluded_word == "(-2)@v"
        assert rep.to_csv() == (
            "step,prime,degree,e_2,ratio_2,status\n"
            "0,,1,0,0/1,base\n"
            "1,2,8,1,1/8,ok\n"
        )

    def test_ratio_meets_displayed_bound(self):
        from fractions import Fraction

        rep = build_tower(seeded(), [2], 1)
        st = rep.steps[0]
        assert Fraction(st.exponents[2], st.total_degree) >= Fraction(
            1, 4 * st.piece_predegree
        )

    def test_failure_is_tagged(self):
        bounds = TowerBounds(max_cover_index=2, max_piece_index=2)
        rep = build_tower(genus2(), [2], 1, bounds=bounds)
        assert rep.status.startswith("failed:piece:")
        assert rep.steps == ()
        assert rep.to_csv().splitlines()[-1].startswith("1,,,")

    def test_budget_failure(self):
        rep = build_tower(seeded(), [2], 1, budget=Budget(10))
        assert rep.status.startswith("failed:budget:")

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            build_tower(seeded(), [2], 2)
        with pytest.raises(ValueError, match="prime"):
            build_tower(seeded(), [6], 1)
        with pytest.raises(ValueError):
            build_tower(seeded(), [2], -1)

    def test_tight_bounds_fail_with_stage(self):
        bounds = TowerBounds(max_piece_index=1)
        rep = build_tower(seeded(), [2], 1, bounds=bounds)
        assert rep.status.startswith("failed:piece:")

    def test_site_is_farthest_then_least_by_name(self):
        # Both p0@1 and p0@2 of the chosen cover are sites at distance 0.
        census = covers_module.CoverCensus(seeded(), Budget())
        piece = covers_module._torsion_piece_in(census.covers(4), 2)
        e1 = next(r.edge for r in piece.morphism.edge_assignment.values() if r.vertex == piece.c1)
        cover, site, dist, word, note = covers_module._site_stage(
            census, 1, piece, e1, TowerBounds()
        )
        assert (site, dist, str(word)) == ("p0@1", 0, "(-2)@v")
        assert note == "word re-enters after assembly"
        assert "p0@2" in cover.pair_spec

    def test_last_chain_length_failure_stands(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            covers_module, "complete", lambda m, bound, budget=None: calls.append(m)
        )
        rep = build_tower(seeded(), [2], 1)
        assert len(calls) == 1
        assert rep.status == "failed:completion:no completion within added index 24"

    def test_piece_failure_enumerates_no_word(self, monkeypatch):
        def no_words(*args):
            raise AssertionError("closed words enumerated")

        monkeypatch.setattr(covers_module, "enumerate_closed_words", no_words)
        rep = build_tower(seeded(), [2], 1, bounds=TowerBounds(max_piece_index=1))
        assert rep.status.startswith("failed:piece:")

    @pytest.mark.parametrize("field, least", [
        ("max_cover_index", 1),
        ("max_piece_index", 1),
        ("complete_bound", 0),
        ("max_word_length", 0),
    ])
    def test_bounds_out_of_range_rejected(self, field, least):
        TowerBounds(**{field: least})
        with pytest.raises(ValueError, match="%s must be at least %d, got %d"
                           % (field, least, least - 1)):
            TowerBounds(**{field: least - 1})

    @pytest.mark.parametrize("search, error", [
        (lambda b: next(enumerate_covers(seeded(), 0, b)), "max_index must be at least 1, got 0"),
        (lambda b: next(enumerate_covers(seeded(), -2, b)), "max_index must be at least 1, got -2"),
        (lambda b: find_torsion_piece(seeded(), 2, 0, b), "max_index must be at least 1, got 0"),
        (lambda b: complete(detach_edge(identity_cover(seeded()), "p0@0"), -1, b),
         "bound must be at least 0, got -1"),
    ])
    def test_search_bounds_out_of_range_rejected_before_search(self, search, error):
        budget = Budget()
        with pytest.raises(ValueError, match=error):
            search(budget)
        assert budget.nodes == 0


# The full report of every one-step tower of seeded and amalgams A-G at
# p in {2, 3, 5, 7}, and of two two-step towers on seeded: 5 end ok,
# 10 failed:completion, 17 failed:piece, 2 failed:assembly.
TOWER_OUTCOMES = {
    ("seeded", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,0,0/1,base\n"
        "1,2,8,1,1/8,ok\n"
    ),
    ("seeded", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 3: ratio 0 below bound 1/8\n"
    ),
    ("seeded", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=5 torsion piece within index 4\n"
    ),
    ("seeded", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("A", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 2: ratio 0 below bound 1/8\n"
    ),
    ("A", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 3: ratio 0 below bound 1/12\n"
    ),
    ("A", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 5: ratio 0 below bound 1/20\n"
    ),
    ("A", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("B", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 2: ratio 0 below bound 1/8\n"
    ),
    ("B", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=3 torsion piece within index 4\n"
    ),
    ("B", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=5 torsion piece within index 4\n"
    ),
    ("B", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("C", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,1,1/1,base\n"
        "1,2,5,1,1/5,ok\n"
    ),
    ("C", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=3 torsion piece within index 4\n"
    ),
    ("C", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=5 torsion piece within index 4\n"
    ),
    ("C", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("D", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 2: ratio 0 below bound 1/8\n"
    ),
    ("D", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 3: ratio 0 below bound 1/12\n"
    ),
    ("D", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 5: ratio 0 below bound 1/20\n"
    ),
    ("D", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("E", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,1,1/1,base\n"
        "1,2,4,1,1/4,ok\n"
    ),
    ("E", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=3 torsion piece within index 4\n"
    ),
    ("E", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=5 torsion piece within index 4\n"
    ),
    ("E", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("F", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,0,0/1,base\n"
        "1,2,5,2,2/5,ok\n"
    ),
    ("F", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 3: ratio 0 below bound 1/8\n"
    ),
    ("F", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=5 torsion piece within index 4\n"
    ),
    ("F", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("G", (2,)): (
        "step,prime,degree,e_2,ratio_2,status\n"
        "0,,1,1,1/1,base\n"
        "1,2,5,2,2/5,ok\n"
    ),
    ("G", (3,)): (
        "step,prime,degree,e_3,ratio_3,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:completion:step 1 prime 3: ratio 0 below bound 1/28\n"
    ),
    ("G", (5,)): (
        "step,prime,degree,e_5,ratio_5,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=5 torsion piece within index 4\n"
    ),
    ("G", (7,)): (
        "step,prime,degree,e_7,ratio_7,status\n"
        "0,,1,0,0/1,base\n"
        "1,,,,,failed:piece:no p=7 torsion piece within index 4\n"
    ),
    ("seeded", (2, 3)): (
        "step,prime,degree,e_2,e_3,ratio_2,ratio_3,status\n"
        "0,,1,0,0,0/1,0/1,base\n"
        "1,2,8,1,,1/8,,ok\n"
        "2,,,,,,,failed:assembly:no copy count keeps enough of the previous cover\n"
    ),
    ("seeded", (2, 2)): (
        "step,prime,degree,e_2,e_2,ratio_2,ratio_2,status\n"
        "0,,1,0,0,0/1,0/1,base\n"
        "1,2,8,1,1,1/8,1/8,ok\n"
        "2,,,,,,,failed:assembly:no copy count keeps enough of the previous cover\n"
    ),
}


@pytest.mark.parametrize(
    "name, primes", sorted(TOWER_OUTCOMES),
    ids=["%s-%s" % (name, ",".join(map(str, primes))) for name, primes in sorted(TOWER_OUTCOMES)],
)
def test_tower_outcome(name, primes):
    g = seeded() if name == "seeded" else amalgam(AMALGAMS[name])
    assert build_tower(g, primes, len(primes)).to_csv() == TOWER_OUTCOMES[name, primes]


@pytest.fixture(scope="module")
def survey_steps():
    """The survey's towers, run once with every step stage call recorded as
    [its arguments, the precover it completes, what ``complete`` returns],
    and every morphism construction counted by the function that made it."""
    steps, built = [], collections.Counter()
    real_init = PrecoverMorphism.__init__
    real_stage = covers_module._completion_stage
    real_complete = covers_module.complete

    def init(self, *args, **kwargs):
        built[sys._getframe(1).f_code.co_name] += 1
        real_init(self, *args, **kwargs)

    def stage(*args):
        steps.append([args])
        return real_stage(*args)

    def completing(m, bound, budget=None):
        out = real_complete(m, bound, budget)
        steps[-1] += [m, out]
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PrecoverMorphism, "__init__", init)
        mp.setattr(covers_module, "_completion_stage", stage)
        mp.setattr(covers_module, "complete", completing)
        for name, primes in sorted(TOWER_OUTCOMES):
            g = seeded() if name == "seeded" else amalgam(AMALGAMS[name])
            assert build_tower(g, primes, len(primes)).to_csv() == TOWER_OUTCOMES[name, primes]
    return steps, built


class TestStepAssembly:
    def test_matches_the_composed_assembly(self, survey_steps):
        """Every step the survey assembles joins its chain into the site
        cover as detach, rename, splice and re-basing do, and completes the
        same way."""
        steps, _ = survey_steps
        assert len(steps) == 17
        for args, asm, got in steps:
            piece, alpha, e1, cover, site, connector, bounds, _ = args
            want = step_assembly_oracle(piece, alpha, e1, cover, site, connector)
            assert _fields(asm) == _fields(want)
            assert _fields(got) == _fields(complete(want, bounds.complete_bound))

    def test_one_construction_per_chain_length(self, survey_steps):
        """Past the census, pieces and connectors, the survey constructs one
        morphism per assembled step, in the step stage, and re-bases none."""
        steps, built = survey_steps
        assert built["_completion_stage"] == len(steps)
        assert built["with_basepoint"] == 0


class TestIsomorphic:
    def test_rename_invariance(self):
        m = identity_cover(seeded())
        assert isomorphic(m, rename_total(m, "!x"))

    def test_distinguishes_degrees(self):
        ms = list(enumerate_covers(seeded(), 2))
        assert not isomorphic(ms[0], ms[-1])

    def test_random_round_trips(self):
        rng = random.Random(17)
        pool = list(enumerate_covers(seeded(), 3))
        for _ in range(25):
            m = rng.choice(pool)
            splittable = [
                v
                for v in sorted(m.cyclic_index)
                if len([d for d, r in m.edge_assignment.items() if r.vertex == v]) >= 2
            ]
            if splittable:
                v = rng.choice(splittable)
                incident = sorted(
                    d for d, r in m.edge_assignment.items() if r.vertex == v
                )
                edge = rng.choice(incident)
                back = merge_cyclic(
                    split_cyclic(m, v, [edge]), v + ".1", v + ".2"
                )
                assert isomorphic(back, m)
            q = rng.choice(
                [
                    q
                    for q in sorted(m.pair_spec)
                    if m.total.vertex_kind[m.total.graph.tau(q)] == "cyclic"
                    or m.total.vertex_kind[m.total.graph.iota(q)] == "cyclic"
                ]
            )
            d = detach_edge(m, q)
            i = next(i for i, s in enumerate(d.hanging) if s.side == "free")
            j = next(i for i, s in enumerate(d.hanging) if s.side == "cyclic")
            assert isomorphic(splice([d], [((0, i), (0, j))]), m)


# ---------------------------------------------------------------------------
# The code-based isomorphism test against the unpruned oracle, and the order
# in which enumeration yields its representatives.

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture(name):
    return gog_from_payload(load_document(str(FIXTURES / (name + ".yaml"))))


def candidate_sets():
    """Connected same-degree covers as they reach enumeration's dedup step,
    alone and with copies whose tables are off the catalog, plus the
    hand-built one-loop censuses before their dedup."""
    for name in ("seeded_torsion", "hnn_f1", "genus2"):
        g = fixture(name)
        for n in range(1, 4):
            yield "%s/%d" % (name, n), list(candidate_covers(g, n))
    yield "seeded_torsion/4", list(candidate_covers(fixture("seeded_torsion"), 4))
    for name, n in (("seeded_torsion", 4), ("genus2", 2)):
        ms = list(candidate_covers(fixture(name), n))
        yield "%s/relabelled%d" % (name, n), ms + [relabelled(m, i) for i, m in enumerate(ms)]
    for name, g, top in (("bs11", bs11(), 2), ("bs13", bs13(), 3), ("f2loop", f2loop(), 3)):
        by_degree = {}
        for m in loop_cover_candidates(g, top):
            by_degree.setdefault(next(iter(m.sums.values())), []).append(m)
        for n, ms in sorted(by_degree.items()):
            yield "%s/loop%d" % (name, n), ms
            yield "%s/mixed%d" % (name, n), ms + list(candidate_covers(g, n))


# sha1 of each representative enumerate_covers(seeded_torsion, 4) yields,
# in order; recorded before the isomorphism test was pruned.
SEEDED_INDEX4_REPRESENTATIVES = [
    "df476000d03c8b232292a8de88c4f746b43eb671",
    "46acee3b38117fc7bc1814a21b060d5437fbbbb7",
    "671e5ae39a0f8c26f9c6dbcd9179a303dfe53d9a",
    "2412436a68722ded20c4ed60b1b75e1408d0834c",
    "1efab0df7347bddff8f4092c094cd54755b80e03",
    "87892f89818841d25ebe4b874d871a4a501cc42e",
    "6e2e4eb7cbd815477c6b29fc1513d5445d081e13",
    "efc02f40720fdff456a61885bda690a750aa70cd",
    "fd46872230b10773a589f2f0dd2373fab723346a",
    "d936d24d882eb662690b2143e0f49e442dbdb011",
    "e2996e9b32d5af9cdb55d85873796c618fcb7e5b",
    "f520de9b73ef40d7d68921decb13fe00d17d93be",
    "fb54742240715b3dc21a40f68f2bc7dc66eda846",
    "1efc50a1e956bdf1b1154e3a92e6208fe5d448a7",
    "924303531a43bee8c049a4783d9800aedb9b3653",
    "96e9a85b9614fee5e7348a1d914a7328be0d3fdc",
    "57e4c96ee752586f3c7b9cfff6289302ce6f0923",
    "394e0fc8f3073f60565c11497a79f8e352f0d978",
    "385c34ffc9623520507df1b96ccf691dedabb492",
    "55c1143629a31808a74b4e2491e81ad5dc76bf0c",
    "8b32db5931480643fa6c997482da0272d4b1856c",
    "e4aa08caa668bfb8ecadadf331f4ece382e66402",
    "ce54bb3cc3f3b6d1281f36c33e117e659abce2da",
    "6d802dd5913bf8a3fb8248d76940721e99362037",
    "12ab8150c2826eb29716ef24f108b27e75aa17ec",
    "da8fedbf9d3eb50e3f40b14e2dbb194ffb446b20",
    "90160d3085d73fa9afd64e463ab854819a8df4ff",
    "727dc64e0830427c47977456030e3487c3304da5",
    "c92dcc53b9bf749e7ff727653f12c97ecb0afc35",
    "83489b6ec4edc0d8ba18e9ff84debc8a1fc75c90",
    "77ae867ddc426c2273e7966e9d3ac9cc2fd862ba",
    "18ec61ceb109d73075436be6cef5e50f578b5ec6",
    "ab68dc73e7e6612774114658c9d8846b0ae37874",
    "61952bea363dec201a286b6ec87d8677274438ce",
]


def representative_digest(m):
    spec = (
        sorted(m.vertex_map.items()),
        sorted((v, t.action) for v, t in m.vertex_data.items()),
        sorted(m.cyclic_index.items()),
        sorted(m.pair_spec.items()),
    )
    return hashlib.sha1(repr(spec).encode()).hexdigest()


class TestIsomorphicOracle:
    def test_agrees_with_oracle_on_candidates(self):
        pairs = trues = 0
        for label, ms in candidate_sets():
            for a, b in itertools.combinations(ms, 2):
                got = isomorphic(a, b)
                assert got == isomorphic_oracle(a, b), (label, a, b)
                pairs += 1
                trues += got
        assert trues > 0 and pairs > trues

    def test_agrees_with_oracle_on_disconnected_unions(self):
        ms = list(enumerate_covers(seeded(), 3))
        for a, b, c in itertools.product(ms[:5], repeat=3):
            left = splice([a, rename_total(b, "!1")], [])
            right = splice([rename_total(c, "!2"), rename_total(a, "!3")], [])
            got = isomorphic(left, right)
            assert got == isomorphic_oracle(left, right) == (b is c)

    def test_seeded_representatives_in_order(self):
        got = [representative_digest(m) for m in enumerate_covers(fixture("seeded_torsion"), 4)]
        assert got == SEEDED_INDEX4_REPRESENTATIVES


def relabelled(m, seed):
    """m with every free lift's cosets renumbered by a random permutation,
    so its tables leave the catalog; refs follow their cycles."""
    rng = random.Random(seed)
    perms = {}
    for v, t in m.vertex_data.items():
        pi = list(range(t.size))
        rng.shuffle(pi)
        perms[v] = pi
    tables = {}
    for v, t in m.vertex_data.items():
        pi = perms[v]
        rows = []
        for row in t.action:
            moved = [0] * t.size
            for i, j in enumerate(row):
                moved[pi[i]] = pi[j]
            rows.append(tuple(moved))
        tables[v] = CosetTable(t.rank, tuple(rows))

    def move(ref):
        if ref.vertex not in perms:
            return ref
        return ref._replace(least=min(perms[ref.vertex][c] for c in m.elevation_of[ref].cycle))

    pairs = {q: (bp, move(f), move(b)) for q, (bp, f, b) in m.pair_spec.items()}
    return PrecoverMorphism(m.base, m.vertex_map, tables, m.cyclic_index, pairs)


class TestCanonicalCode:
    def test_enumeration_matches_oracle(self):
        for name, top in (("seeded_torsion", 3), ("hnn_f1", 3), ("genus2", 3),
                          ("seeded_torsion", 4)):
            g = fixture(name)
            got = [representative_digest(m) for m in enumerate_covers(g, top)]
            assert got == [representative_digest(m) for m in enumerate_covers_oracle(g, top)]

    def test_one_morphism_built_per_cover(self, monkeypatch):
        built = []
        init = PrecoverMorphism.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PrecoverMorphism, "__init__", counting)
        for name, top in (("seeded_torsion", 4), ("genus2", 3)):
            built.clear()
            covers = list(enumerate_covers(fixture(name), top))
            assert len(built) == len(covers) and all(a is b for a, b in zip(built, covers))

    def test_names_basepoints_and_labels_do_not_count(self):
        off_catalog = 0
        for i, m in enumerate(enumerate_covers(seeded(), 3)):
            code = canonical_code(m)
            assert canonical_code(rename_total(m, "!r")) == code
            for v in lifts_over(m, m.base.base_vertex):
                assert canonical_code(with_basepoint(m, v)) == code
            other = relabelled(m, i)
            off_catalog += other.vertex_data != m.vertex_data
            assert canonical_code(other) == code and isomorphic_oracle(other, m)
        assert off_catalog > 5

    def test_disconnected_code_sorts_components(self):
        ms = list(enumerate_covers(seeded(), 2))
        a, b = ms[0], ms[-1]
        ab = splice([a, rename_total(b, "!b")], [])
        ba = splice([b, rename_total(a, "!a")], [])
        assert canonical_code(ab) == canonical_code(ba)
        assert canonical_code(ab) == tuple(sorted(canonical_code(a) + canonical_code(b)))

    def test_walk_that_loses_at_a_fork_is_dropped_with_its_forks(self):
        # Lifts r1, r2 of one vertex (ports a, b) and x, y of another, whose
        # three elevations "~a" 0, 1, 2 have two automorphisms, the identity
        # and the swap of 0 and 1.  Arriving at elevation 2 forks the walk.
        # From r1: x arrives at 0, y at 0, then r2.  From r2: y arrives at 2
        # (a fork) and loses to r1's walk there, so r2's forks must lose
        # too, although r2's hanging port b reads less than r1's port b.
        def lift(desc, perms):
            ends = sorted({end for perm in perms for end in perm})
            choices = tuple(
                (tuple(sorted((e, perm[e, c], c) for e, c in ends)), perm) for perm in perms
            )
            arrivals = {}
            for end in ends:
                low = min(perm[end] for perm in perms)
                arrivals[end] = (low, tuple(k for k, perm in enumerate(perms) if perm[end] == low))
            return desc, choices, tuple(range(len(perms))), arrivals

        r = lift(("r", 0), [{("a", 0): 0, ("b", 0): 0}])
        x = lift(("x", 0), [{("~a", c): c for c in range(3)},
                            {("~a", 0): 1, ("~a", 1): 0, ("~a", 2): 2}])
        info = {"r1": r, "r2": r, "x": x, "y": x}
        partner = {}
        for one, two in ((("r1", "a", 0), ("x", "~a", 0)), (("r1", "b", 0), ("y", "~a", 0)),
                         (("r2", "a", 0), ("y", "~a", 2))):
            partner[ElevationRef(*one)] = ElevationRef(*two)
            partner[ElevationRef(*two)] = ElevationRef(*one)
        from_r1 = (
            ("r", 0), ("a", 0, 1, 0), ("b", 0, 2, 0),
            ("x", 0), ("~a", 0, 0, 0), ("~a", 1, -1, -1), ("~a", 2, -1, -1),
            ("x", 0), ("~a", 0, 0, 0), ("~a", 1, -1, -1), ("~a", 2, 3, 0),
            ("r", 0), ("a", 0, 2, 2), ("b", 0, -1, -1),
        )
        for order in itertools.permutations(info):
            assert covers_module._component_code(order, info, partner) == from_r1

    def test_repeated_realization_refused(self):
        g = seeded()
        m = identity_cover(g)
        pairs = dict(m.pair_spec)
        pairs["extra"] = pairs["p0@0"]
        dup = PrecoverMorphism(g, m.vertex_map, m.vertex_data, m.cyclic_index, pairs)
        with pytest.raises(ValueError, match="at most once"):
            isomorphic(dup, m)


def count_until_budget(covers):
    """Covers read before the budget ran out, and whether it did."""
    got = []
    try:
        for m in covers:
            got.append(m)
    except BudgetExceededError:
        return got, True
    return got, False


class TestCoverCensus:
    def test_replays_what_enumeration_yields(self):
        g = seeded()
        census = CoverCensus(g)
        head = list(itertools.islice(census.covers(4), 5))
        full = list(census.covers(4))
        assert all(a is b for a, b in zip(head, full))
        assert [representative_digest(m) for m in full] == [
            representative_digest(m) for m in enumerate_covers(g, 4)
        ]
        low = list(census.covers(2))
        assert low == [m for m in full if degree(m) <= 2]

    def test_budget_runs_out_at_the_same_cover(self):
        g = seeded()
        raised = 0
        for cap in range(1, 330, 9):
            want, want_raised = count_until_budget(
                enumerate_covers_oracle(g, 4, Budget(cap), pruned=True)
            )
            census = CoverCensus(g, Budget(cap))
            count_until_budget(itertools.islice(census.covers(3), 4))
            for covers in (enumerate_covers(g, 4, Budget(cap)), census.covers(4)):
                got, got_raised = count_until_budget(covers)
                assert got_raised == want_raised
                assert list(map(representative_digest, got)) == list(
                    map(representative_digest, want)
                )
            if got_raised:
                raised += 1
                with pytest.raises(BudgetExceededError):
                    list(census.covers(4))
        assert 0 < raised < len(range(1, 330, 9))

    def test_tower_step_enumerates_each_degree_once(self, monkeypatch):
        searched = []
        real = covers_module._degree_covers

        def counting(g, n, budget):
            searched.append((id(g), n))
            return real(g, n, budget)

        monkeypatch.setattr(covers_module, "_degree_covers", counting)
        rep = build_tower(seeded(), [2], 1)
        assert rep.status == "ok"
        assert len(searched) == len(set(searched))
        assert sorted(n for _, n in searched) == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# The census engine cuts every branch that can only give a disconnected
# total; the unpruned engine, filtered to connected totals, is its oracle.


def two_vertex(wu, ww):
    """Rank-2 free vertices u and w joined by one pair, words wu at u and
    ww at w."""
    graph = SerreGraph(["u", "w"], {"p": ("u", "w")})
    return GraphOfGroups(
        graph, {"u": 2, "w": 2}, {"u": "free", "w": "free"},
        {"p": Word(tuple(ww), 2), "~p": Word(tuple(wu), 2)}, "u",
    )


def cyclic_between(*words):
    """One cyclic vertex c joined to free vertices u, w, x, ... by one pair
    each; ``words`` gives each free vertex's (rank, word)."""
    names = ["u", "w", "x", "y"][: len(words)]
    pairs = {"p" + v: (v, "c") for v in names}
    edge_words = {}
    for v, (rank, letters) in zip(names, words):
        edge_words["p" + v] = Word((1,), 1)
        edge_words["~p" + v] = Word(tuple(letters), rank)
    return GraphOfGroups(
        SerreGraph(names + ["c"], pairs),
        {**{v: rank for v, (rank, _) in zip(names, words)}, "c": 1},
        {**dict.fromkeys(names, "free"), "c": "cyclic"},
        edge_words, "u",
    )


def two_cyclic(wu, ww):
    """Rank-1 free vertices u and w, each joined to both cyclic vertices c
    and d, by the words wu at u and ww at w."""
    pairs = {"a": ("u", "c"), "b": ("w", "c"), "e": ("u", "d"), "f": ("w", "d")}
    edge_words = {}
    for p, (v, _) in pairs.items():
        edge_words[p] = Word((1,), 1)
        edge_words["~" + p] = Word(tuple(wu if v == "u" else ww), 1)
    return GraphOfGroups(
        SerreGraph(["u", "w", "c", "d"], pairs),
        {"u": 1, "w": 1, "c": 1, "d": 1},
        {"u": "free", "w": "free", "c": "cyclic", "d": "cyclic"},
        edge_words, "u",
    )


def last_total(g, n):
    """The total of the last degree-n cover of g, as a census base."""
    return [m for m in enumerate_covers(g, n) if degree(m) == n][-1].total


# Census bases and largest index: the shapes of the benchmark, and shapes
# where a cyclic lift joins different free lifts, as in a tower step, whose
# census base is the previous cover's total.
CENSUS_BASES = {
    "seeded_torsion": (lambda: fixture("seeded_torsion"), 5),
    "hnn_f1": (lambda: fixture("hnn_f1"), 6),
    "genus2": (lambda: fixture("genus2"), 3),
    **{name: (lambda w=words: amalgam(w), 4) for name, words in AMALGAMS.items()},
    "H12": (lambda: loop_hnn((1,), (1, 1)), 6),
    "H23": (lambda: loop_hnn((1, 1), (1, 1, 1)), 6),
    "H14": (lambda: loop_hnn((1,), (1, 1, 1, 1)), 6),
    "T1": (lambda: two_vertex((1, 2), (1, 2)), 3),
    "T2": (lambda: two_vertex((1, 1, 2), (2, 2, 1)), 3),
    "T3": (lambda: two_vertex((1, 2, -1, -2), (1, 1, 2)), 3),
    "UCW": (lambda: cyclic_between((1, (1,)), (2, (1,))), 4),
    "UCW2": (lambda: cyclic_between((1, (1, 1)), (1, (1, 1, 1))), 4),
    "UCWX": (lambda: cyclic_between((1, (1,)), (2, (1, 1, 2)), (1, (1, 1))), 3),
    "UCDW": (lambda: two_cyclic((1,), (1, 1)), 4),
    "seeded_total": (lambda: last_total(seeded(), 3), 3),
    "hnn_f1_total": (lambda: last_total(fixture("hnn_f1"), 3), 3),
}


class TestConnectedPrune:
    @pytest.mark.parametrize("name", sorted(CENSUS_BASES))
    def test_pruned_stream_is_the_connected_part(self, name):
        """The census engine, which cuts disconnected and symmetric
        branches, yields part of the unpruned engine's connected stream, in
        its order, with the same first candidate of every class, for fewer
        nodes."""
        build, top = CENSUS_BASES[name]
        g = build()
        pruned_nodes, unpruned_nodes = Budget(), Budget()
        for n in range(1, top + 1):
            pruned = [
                covers_module._assemble(g, None, "@", raw)
                for raw in census_extensions(g, n, pruned_nodes)
            ]
            assert all(m.total.graph.is_connected() for m in pruned)
            oracle = list(candidate_covers(g, n, unpruned_nodes))
            digests = iter(map(representative_digest, oracle))  # each `in` reads on
            assert all(d in digests for d in map(representative_digest, pruned))
            assert list(map(representative_digest, first_of_each_class(pruned))) == list(
                map(representative_digest, first_of_each_class(oracle))
            )
        assert pruned_nodes.nodes < unpruned_nodes.nodes

    def test_cyclic_lift_between_two_free_lifts(self):
        """At degree 2 over u - c - w, with lifts U0, U1 of u and one lift
        W0 of w, the cyclic lift anchored at U1 joins it to the component
        of U0 and W0, which is then the larger: the cover U0 - C - W0 - C -
        U1 must still come out."""
        g = cyclic_between((1, (1,)), (2, (1,)))
        got = [
            covers_module._assemble(g, None, "@", raw)
            for raw in census_extensions(g, 2, Budget())
        ]
        assert any(
            len(lifts_over(m, "u")) == 2 and len(lifts_over(m, "w")) == 1 for m in got
        )


def first_of_each_class(ms):
    seen = set()
    for m in ms:
        if canonical_code(m) not in seen:
            seen.add(canonical_code(m))
            yield m


class TestDegreeScreen:
    def test_rejected_choices_close_to_nothing(self):
        """Every lift choice that ``_Components.admits`` rejects, on every
        census base up to its index, gives no candidate in the unscreened
        engine; and some choice is rejected."""
        rejected = 0
        for name in sorted(CENSUS_BASES):
            build, top = CENSUS_BASES[name]
            g = build()
            for n in range(1, top + 1):
                for lifts, pools, demands, room, taken in covers_module._lift_choices(
                    g, None, n, "@", Budget()
                ):
                    if covers_module._Components.admits(g, lifts):
                        continue
                    rejected += 1
                    closings = covers_module._close_open_ends(
                        g, pools, demands, room, taken, Budget(), covers_module._AnyComponents()
                    )
                    assert next(closings, None) is None, (name, n, lifts)
        assert rejected > 0


# ---------------------------------------------------------------------------
# The census engine skips a lift choice whose elevation degrees cannot pair
# up, and a partner choice that swapping twin lifts, or an automorphism of a
# lift's table, maps onto an earlier one.  Nothing in the output shows these
# cuts, so their work is pinned: per census base, the census may code no
# more candidates and spend no more nodes than below.

CENSUS_WORK = {
    "A": (36, 159), "B": (32, 151), "C": (59, 219), "D": (36, 159), "E": (59, 215),
    "F": (112, 367), "G": (88, 294), "H12": (9, 80), "H14": (9, 80), "H23": (7, 67),
    "T1": (48, 232), "T2": (48, 232), "T3": (60, 285), "UCDW": (159, 621),
    "UCW": (46, 390), "UCW2": (19, 105), "UCWX": (22, 222), "genus2": (147, 517),
    "hnn_f1": (11, 102), "hnn_f1_total": (5, 69), "seeded_torsion": (105, 523),
    "seeded_total": (212, 704),
}


def census_work(g, top):
    """Candidates the census codes, nodes it spends and classes it finds,
    up to index top."""
    budget = Budget()
    candidates = classes = 0
    for n in range(1, top + 1):
        codes = set()
        for new_free, new_cyclic, triples in census_extensions(g, n, budget):
            candidates += 1
            lifts = list(new_free.items()) + list(new_cyclic.items())
            codes.add(covers_module._code(g, lifts, triples))
        classes += len(codes)
    return candidates, budget.nodes, classes


class _NoTwins(covers_module._Components):
    """The census hook with the twin-lift rule off."""

    def __init__(self, *args):
        super().__init__(*args)
        self.twins = [()] * len(self.twins)


def _every_elevation_first(g, b, table):
    """``_orbit_firsts`` with the table-automorphism rule off."""
    return frozenset(covers_module._lift_code(g, b, table)[3])


def rule_work(monkeypatch, work, twins, orbits):
    """``work()`` with the chosen symmetry rules on."""
    with monkeypatch.context() as patch:
        if not twins:
            patch.setattr(covers_module, "_Components", _NoTwins)
        if not orbits:
            patch.setattr(covers_module, "_orbit_firsts", _every_elevation_first)
        return work()


class TestSymmetryCut:
    @pytest.mark.parametrize("name", sorted(CENSUS_BASES))
    def test_work_stays_within_bounds(self, name):
        build, top = CENSUS_BASES[name]
        candidates, nodes, classes = census_work(build(), top)
        most_candidates, most_nodes = CENSUS_WORK[name]
        assert candidates <= most_candidates and nodes <= most_nodes
        if name in ("H12", "H23", "H14", "hnn_f1"):
            assert candidates == classes

    def test_only_twins_fire_on_bs11(self, monkeypatch):
        """Over one loop with the word x on both sides every table is
        cyclic and has one elevation per edge, so no automorphism moves
        one; three lifts of index 1 give twins."""
        def work():
            return census_work(bs11(), 3)

        neither = rule_work(monkeypatch, work, False, False)
        assert rule_work(monkeypatch, work, False, True) == neither
        twins = rule_work(monkeypatch, work, True, False)
        assert twins[1] < neither[1] and twins[2] == neither[2]
        assert rule_work(monkeypatch, work, True, True) == twins

    def test_only_orbits_fire_on_one_lift_choice(self, monkeypatch):
        """Over the loop x = y^2, lifts v@0, v@1 of index 1 and v@2 of
        index 2: the partner of v@0's end is chosen first, so its twin v@1
        is never skipped, while y^2 has two elevations at v@2 that the
        table's automorphism swaps."""
        g = loop_hnn((1,), (1, 1))
        one, two = whole_group_table(1), cyclic_table(2)
        lifts = {"v@0": ("v", one), "v@1": ("v", one), "v@2": ("v", two)}

        def work():
            pools = covers_module._free_pool(g, lifts)
            budget = Budget()
            components = covers_module._Components(g, lifts, pools)
            codes = [
                covers_module._code(g, lifts.items(), triples)
                for _, triples in covers_module._close_open_ends(
                    g, pools, [], {}, set(lifts), budget, components
                )
            ]
            return len(codes), budget.nodes, len(set(codes))

        neither = rule_work(monkeypatch, work, False, False)
        assert rule_work(monkeypatch, work, True, False) == neither
        orbits = rule_work(monkeypatch, work, False, True)
        assert orbits[1] < neither[1] and orbits[2] == neither[2]
        assert rule_work(monkeypatch, work, True, True) == orbits


# Per lift choice, the census codes a candidate only once a second one
# arrives; the first of a choice takes its code from ``canonical_code``
# only then.  Calls of ``covers._code`` per census base, up to its index:
CODE_CALLS = {
    "A": 24, "B": 24, "C": 30, "D": 24, "E": 30, "F": 108, "G": 58, "H12": 0, "H14": 0,
    "H23": 0, "T1": 11, "T2": 11, "T3": 39, "UCDW": 156, "UCW": 14, "UCW2": 16, "UCWX": 14,
    "genus2": 118, "hnn_f1": 0, "hnn_f1_total": 2, "seeded_torsion": 58, "seeded_total": 108,
}


class TestCodesPerChoice:
    @pytest.mark.parametrize("name", sorted(CENSUS_BASES))
    def test_matches_one_set_of_codes_per_degree(self, name):
        """With one set of codes per lift choice, each degree yields the
        covers that one set for the whole degree yields, in its order, with
        its codes, for the same nodes."""
        build, top = CENSUS_BASES[name]
        g = build()
        for n in range(1, top + 1):
            got_nodes, want_nodes = Budget(), Budget()
            got = list(covers_module._degree_covers(g, n, got_nodes))
            want = list(degree_covers_oracle(g, n, want_nodes))
            assert list(map(representative_digest, got)) == list(
                map(representative_digest, want)
            )
            assert list(map(canonical_code, got)) == [m._code for m in want]
            assert got_nodes.nodes == want_nodes.nodes

    @pytest.mark.parametrize("name", sorted(CENSUS_BASES))
    def test_code_calls(self, monkeypatch, name):
        build, top = CENSUS_BASES[name]
        g = build()
        calls = []
        real = covers_module._code

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(covers_module, "_code", counted)
        list(enumerate_covers(g, top))
        assert len(calls) == CODE_CALLS[name]


def engine_runs(g, m, target, sep):
    """Per lift choice of ``_extensions(g, m, target, sep, ...)``, the
    closings of the engine and of the closure-based oracle, each copied out
    of its reused containers, with the nodes each spends."""
    census = m is None
    rules = covers_module._Components if census else covers_module._AnyComponents
    for new_free, pools, demands, room, taken in covers_module._lift_choices(
        g, m, target, sep, Budget(), rules
    ):
        runs = []
        for engine in (covers_module._close_open_ends, close_open_ends_oracle):
            components = (
                covers_module._Components(g, new_free, pools) if census
                else covers_module._AnyComponents()
            )
            budget = Budget()
            closings = [
                (dict(new_cyclic), list(triples))
                for new_cyclic, triples in engine(g, pools, demands, room, taken, budget, components)
            ]
            runs.append((closings, budget.nodes))
        yield runs


class TestEngineOracle:
    @pytest.mark.parametrize("name", sorted(CENSUS_BASES))
    def test_census_closings(self, name):
        """From the empty precover, with the census's components, every
        lift choice closes as in the oracle, in its order, for its nodes."""
        build, top = CENSUS_BASES[name]
        g = build()
        closings = 0
        for n in range(1, top + 1):
            for got, want in engine_runs(g, None, n, "@"):
                assert got == want
                closings += len(got[0])
        assert closings > 0

    @pytest.mark.parametrize("base, p", [("seeded_torsion", 2), ("seeded_torsion", 3), ("G", 3)])
    @pytest.mark.parametrize("copies", [2, 3])
    def test_completion_closings(self, base, p, copies):
        """From a chain, as ``complete`` searches it, every lift choice of
        the least three degrees closes as in the oracle."""
        g = fixture(base) if base == "seeded_torsion" else amalgam(AMALGAMS[base])
        m = chain(find_torsion_piece(g, p, 4), copies)
        low = max(m.sums.values())
        closings = 0
        for target in range(low, low + 3):
            for got, want in engine_runs(m.base, m, target, "+"):
                assert got == want
                closings += len(got[0])
        assert closings > 40


def clear_caches():
    """Empty every ``functools`` cache of the package."""
    for name, module in list(sys.modules.items()):
        if name == "gfgcover" or name.startswith("gfgcover."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def stopped_census(piece):
    with pytest.raises(BudgetExceededError):
        list(enumerate_covers(piece.morphism.base, 5, Budget(300)))


def console_main(*argv):
    """A call of ``cli.main(argv)`` in process, which must exit and print
    as the console run of argv does in ``CONSOLE``."""
    def call(piece):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert (code, shown(out.getvalue()), err.getvalue()) == CONSOLE[argv]
    return call


# Each call takes the p = 2 piece of seeded_torsion, built beforehand.
GARBAGE_CALLS = {
    "enumerate_covers(seeded, 5)": lambda piece: list(enumerate_covers(piece.morphism.base, 5)),
    "enumerate_covers(genus2, 3)": lambda piece: list(enumerate_covers(genus2(), 3)),
    "census stopped by Budget(300)": stopped_census,
    "find_torsion_piece(seeded, 5, 4)": lambda piece: find_torsion_piece(
        piece.morphism.base, 5, 4
    ),
    "build_tower(seeded, [2], 1)": lambda piece: build_tower(piece.morphism.base, [2], 1),
    "complete(chain(piece, 2), 24)": lambda piece: complete(chain(piece, 2), 24),
    "enumerate_subgroups(2, 5)": lambda piece: list(enumerate_subgroups(2, 5)),
    "enumerate_closed_words(seeded, 4)": lambda piece: list(
        enumerate_closed_words(piece.morphism.base, 4)
    ),
    "save_document of the p = 2 piece": lambda piece: save_document(document_for_piece(piece)),
    "cli enumerate-covers seeded --max-index 5": console_main(
        "enumerate-covers", SEEDED, "--max-index", "5"
    ),
    "cli torsion-piece seeded --prime 5 --max-index 4": console_main(
        "torsion-piece", SEEDED, "--prime", "5", "--max-index", "4"
    ),
    "cli tower seeded --steps 2 --primes 2,2": console_main(
        "tower", SEEDED, "--steps", "2", "--primes", "2,2"
    ),
}


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("name", list(GARBAGE_CALLS))
    def test_search_leaves_no_reference_cycles(self, name, seeded_piece):
        """Each search frees its state by reference counting alone: with
        the caches cleared and the collector off, it leaves nothing for
        ``gc.collect`` to free.  When the matching engine and the recursive
        helpers were nested functions naming each other, the collector
        freed, per call:

            enumerate_covers(seeded, 5)                        8,031
            enumerate_covers(genus2, 3)                        5,491
            the same census at Budget(300)                     4,808
            find_torsion_piece(seeded, 5, 4)                   2,758
            build_tower(seeded, [2], 1)                        2,140
            complete(chain(piece, 2), 24)                         62
            enumerate_subgroups(2, 5)                             25
            enumerate_closed_words(seeded, 4)                     11
            save_document of the p = 2 piece                       7
            cli enumerate-covers seeded --max-index 5          8,031
            cli torsion-piece seeded --prime 5 --max-index 4   2,758
            cli tower seeded --steps 2 --primes 2,2           18,940

        The cli calls also print what the console runs in ``CONSOLE`` do.
        """
        call = GARBAGE_CALLS[name]
        clear_caches()
        gc.collect()
        gc.disable()
        try:
            call(seeded_piece)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestTorsionLifts:
    def test_two_eliminations_decide_as_one_cokernel_per_lift(self):
        """On every cover of the census bases up to index 4, the lifts the
        two eliminations pass are those whose own unit row leaves p-torsion
        in the cokernel, for p = 2, 3, 5, 7."""
        covers = hits = 0
        for name in sorted(CENSUS_BASES):
            build, top = CENSUS_BASES[name]
            for m in enumerate_covers(build(), min(top, 4)):
                covers += 1
                for p in (2, 3, 5, 7):
                    got = [v for v, _ in covers_module._torsion_lifts(m, p)]
                    assert got == torsion_lifts_oracle(m, p)
                    hits += len(got)
        assert covers > 800 and hits > 1000


class TestCutVertices:
    def test_one_search_finds_what_the_walks_find(self):
        totals = cuts = 0
        for build, top in CENSUS_BASES.values():
            for m in enumerate_covers(build(), top):
                gr = m.total.graph
                if len(gr.vertices) < 2:
                    continue  # the walk calls a lone vertex a cut vertex
                want = {v for v in gr.vertices if is_cut_vertex(gr, v)}
                assert covers_module._cut_vertices(gr) == want
                totals += 1
                cuts += len(want)
        assert totals > 900 and cuts > 700


# ---------------------------------------------------------------------------
# One node budget per run: each search, fed the node count N it takes
# unbounded, gives the same result at Budget(N) and runs out at Budget(N - 1).


def piece_digest(piece):
    if piece is None:
        return None
    cert = piece.certificate
    return representative_digest(piece.morphism), piece.c1, piece.c2, cert.betti, cert.divisors


SEARCHES = {
    "enumerate_covers/seeded": lambda b: [
        representative_digest(m) for m in enumerate_covers(seeded(), 4, b)
    ],
    "enumerate_covers/G": lambda b: [
        representative_digest(m) for m in enumerate_covers(amalgam(AMALGAMS["G"]), 4, b)
    ],
    "find_torsion_piece/hit": lambda b: piece_digest(find_torsion_piece(seeded(), 2, 4, b)),
    "find_torsion_piece/miss": lambda b: piece_digest(find_torsion_piece(seeded(), 5, 4, b)),
    "complete/seeded": lambda b: representative_digest(
        complete(chain(find_torsion_piece(seeded(), 2, 4), 3), 24, b)
    ),
    "complete/G": lambda b: representative_digest(
        complete(chain(find_torsion_piece(amalgam(AMALGAMS["G"]), 3, 4), 2), 8, b)
    ),
}


class TestBudget:
    def test_counts_and_stays_spent(self):
        budget = Budget(2)
        budget.tick()
        budget.tick()
        for spend in (budget.tick, budget.check, budget.tick):
            with pytest.raises(BudgetExceededError, match=r"^search budget exceeded \(2 nodes\)$"):
                spend()
        unbounded = Budget()
        for _ in range(1000):
            unbounded.tick()
        unbounded.check()
        assert unbounded.nodes == 1000

    @pytest.mark.parametrize("cap", [0, -5])
    def test_refuses_a_cap_below_one(self, cap):
        with pytest.raises(ValueError, match="at least 1, got %d" % cap):
            Budget(cap)

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_exact_budget(self, name):
        search = SEARCHES[name]
        free = Budget()
        want = search(free)
        n = free.nodes
        assert n > 0
        assert search(Budget(n)) == want
        with pytest.raises(BudgetExceededError, match=r"\(%d nodes\)" % (n - 1)):
            search(Budget(n - 1))

    def test_exact_budget_tower(self):
        free = Budget()
        want = build_tower(seeded(), [2], 1, budget=free).to_csv()
        n = free.nodes
        assert want.endswith(",ok\n")
        assert build_tower(seeded(), [2], 1, budget=Budget(n)).to_csv() == want
        rep = build_tower(seeded(), [2], 1, budget=Budget(n - 1))
        assert rep.status == "failed:budget:search budget exceeded (%d nodes)" % (n - 1)

    def test_completion_leaves_the_census_spent(self):
        g = seeded()
        chained = chain(find_torsion_piece(g, 2, 4), 3)

        def head(census):
            return [representative_digest(m) for m in itertools.islice(census.covers(4), 20)]

        free = Budget()
        want = head(CoverCensus(g, free)), representative_digest(complete(chained, 24, free))
        budget = Budget(free.nodes)
        census = CoverCensus(g, budget)
        assert (head(census), representative_digest(complete(chained, 24, budget))) == want

        budget = Budget(free.nodes - 1)
        census = CoverCensus(g, budget)
        assert head(census) == want[0]
        with pytest.raises(BudgetExceededError):
            complete(chained, 24, budget)
        with pytest.raises(BudgetExceededError):
            list(census.covers(4))

    def test_completion_spends_the_census_budget(self, monkeypatch):
        # A one-step tower here assembles a cover that needs no completion
        # node, so its completion is replaced by one that searches until it
        # has spent 2,000 nodes or its budget.
        censuses = []

        class Recorded(CoverCensus):
            def __init__(self, g, budget=None):
                super().__init__(g, budget)
                censuses.append(self)

        def spending(m, bound, budget):
            for _ in range(2000):
                budget.tick()

        monkeypatch.setattr(covers_module, "CoverCensus", Recorded)
        monkeypatch.setattr(covers_module, "complete", spending)
        rep = build_tower(seeded(), [2], 1, budget=Budget(1000))
        assert rep.status == "failed:budget:search budget exceeded (1000 nodes)"
        (census,) = censuses
        assert census._degrees[4][1] is not None  # degree 4 was read part way
        with pytest.raises(BudgetExceededError, match=r"\(1000 nodes\)"):
            list(census.covers(4))


# ---------------------------------------------------------------------------
# The elevation index a morphism builds once, against uncached elevations.


def expected_elevations(m):
    """Every elevation over every lift and every end at its base vertex,
    from ``cosets.elevations`` directly."""
    gr = m.base.graph
    out = {}
    for v, b in m.vertex_map.items():
        for e in gr.oriented_edges():
            if gr.tau(e) != b:
                continue
            for el in elevations(m.vertex_table(v), m.base.edge_word(e)):
                out[ElevationRef(v, e, el.cycle[0])] = el
    return out


class TestElevationIndex:
    def check(self, m):
        expected = expected_elevations(m)
        assert m.elevation_of == expected
        first = {}
        for d in sorted(m.edge_assignment):
            first.setdefault(m.edge_assignment[d], d)
        assert m.realized == first
        open_refs = sorted(
            set(expected) - set(first), key=lambda r: (r.vertex, r.edge, r.least)
        )
        assert [s.ref for s in m.hanging] == open_refs
        for s in m.hanging:
            assert s.degree == expected[s.ref].degree
            assert s.side == m.total.vertex_kind[s.vertex]
        for v in m.vertex_map:
            for e in m.base.graph.ends(m.vertex_map[v]):
                assert m.elevs(v, e) == tuple(elevations(m.vertex_table(v), m.base.edge_word(e)))

    def test_fixture_covers_and_their_detachments(self):
        # Index <= 4 on seeded_torsion: the 34 representatives.
        seeded4 = list(enumerate_covers(fixture("seeded_torsion"), 4))
        assert len(seeded4) == 34
        covers = seeded4 + [
            m for name in ("hnn_f1", "genus2") for m in enumerate_covers(fixture(name), 3)
        ]
        hanging = 0
        for m in covers:
            self.check(m)
            kinds = m.total.vertex_kind
            for q in sorted(m.pair_spec):
                ends = m.total.graph.iota(q), m.total.graph.tau(q)
                if {kinds[v] for v in ends} != {"cyclic", "free"}:
                    continue
                d = detach_edge(m, q)
                self.check(d)
                hanging += len(d.hanging)
        assert hanging > 0

    def test_split_pieces(self, seeded_piece):
        self.check(seeded_piece.morphism)
        self.check(chain(seeded_piece, 3))


def _lazy_cases():
    """The edge words of the fixtures and amalgams A-G on every catalog
    table of rank 2 and index <= 4 and every cyclic table of index <= 6,
    and rank-3 words on every rank-3 catalog table of index <= 3."""
    words = {
        w
        for g in [fixture(n) for n in ("seeded_torsion", "hnn_f1", "genus2")]
        + [amalgam(ws) for ws in AMALGAMS.values()]
        for w in g.edge_words.values()
    } | {
        Word(letters, 3)
        for letters in ((3,), (1, 2, 3), (1, -2, 3, 3), (1, 2, -1, -2, 3), (2, -3, 1, 1))
    }
    tables = {
        1: [cyclic_table(n) for n in range(1, 7)],
        2: [t for n in range(1, 5) for t in enumerate_subgroups(2, n)],
        3: [t for n in range(1, 4) for t in enumerate_subgroups(3, n)],
    }
    return [(w, t) for w in sorted(words, key=lambda w: (w.rank, w.letters)) for t in tables[w.rank]]


class TestLazyElevations:
    def test_words_match_the_eager_oracle(self):
        checked = 0
        for w, t in _lazy_cases():
            got = elevations(t, w)
            assert all("rep" not in el.__dict__ and "local" not in el.__dict__ for el in got)
            assert [(el.base, el.cycle, el.degree, el.rep, el.local) for el in got] == [
                (el.base, el.cycle, len(el.cycle), el.rep, el.local)
                for el in elevations_oracle(t, w)
            ]
            checked += len(got)
        assert checked > 1000

    def test_local_is_read_without_building_rep(self):
        rank3 = 0
        for w, t in _lazy_cases():
            got = elevations(t, w)
            assert [el.local for el in got] == [el.local for el in elevations_oracle(t, w)]
            assert all("rep" not in el.__dict__ for el in got)
            rank3 += w.rank == 3
        assert rank3 > 100


class TestBaseCheckedOnce:
    def test_invalid_base_still_rejected(self):
        good = seeded()
        for _ in range(2):
            identity_cover(good)
        trivial = amalgam(((2,), ()))
        disconnected = GraphOfGroups(
            SerreGraph(["v", "c"], {}), {"v": 2, "c": 1}, {"v": "free", "c": "cyclic"}, {}, "v"
        )
        for bad, why in ((trivial, "trivial word"), (disconnected, "not connected")):
            for _ in range(2):
                with pytest.raises(ValueError, match=why):
                    PrecoverMorphism(
                        bad, {"v@0": "v", "c@0": "c"},
                        {"v@0": whole_group_table(2)}, {"c@0": 1}, {},
                    )


# ---------------------------------------------------------------------------
# Facts derived once per job (a record per lift, a degree signature per
# table, one search per graph and root), against the code in
# ``tests/_oracles.py`` that derived them again on each use.


def fixture_census(top=4):
    """The census covers of the three fixtures up to index top."""
    for name in ("seeded_torsion", "hnn_f1", "genus2"):
        yield from enumerate_covers(fixture(name), top)


def random_word(rng, rank, most=5):
    while True:
        letters = [rng.choice([-1, 1]) * rng.randint(1, rank) for _ in range(rng.randint(1, most))]
        w = free_reduce(letters, rank)
        if not w.is_identity():
            return w


def random_gog(rng):
    """Up to four free vertices and five pairs at random, so often
    disconnected; the base vertex is sometimes not a vertex."""
    vertices = ["v%d" % i for i in range(rng.randint(0, 4))]
    ranks = {v: rng.randint(1, 3) for v in vertices}
    pairs, words = {}, {}
    for k in range(rng.randint(0, 5) if vertices else 0):
        u, w = rng.choice(vertices), rng.choice(vertices)
        pairs["p%d" % k] = (u, w)
        words["p%d" % k] = random_word(rng, ranks[w])
        words["~p%d" % k] = random_word(rng, ranks[u])
    base = rng.choice(vertices + ["x"])
    return GraphOfGroups(
        SerreGraph(vertices, pairs), ranks, dict.fromkeys(vertices, "free"), words, base
    )


class TestOneSearchPresentation:
    def test_census_covers(self):
        covers = 0
        for m in fixture_census():
            want = abelianized_presentation_oracle(m.total)
            assert abelianized_presentation(m.total) == want
            assert abelianized_presentation(m.total) == want  # the search is kept
            covers += 1
        assert covers > 1200

    def test_random_gogs_and_the_disconnected_error(self):
        rng = random.Random(23)
        outcomes = collections.Counter()
        for _ in range(400):
            g = random_gog(rng)
            want = outcome(abelianized_presentation_oracle, g)
            assert outcome(abelianized_presentation, g) == want
            outcomes[isinstance(want, str), g.base_vertex in g.graph.vertices] += 1
        assert all(outcomes[key] for key in itertools.product((False, True), repeat=2))


class TestDegreeSignature:
    def test_agrees_with_the_pool_screen(self):
        """On every lift choice of the fixture censuses and of random
        two-word amalgams, the summed signatures admit exactly the choices
        whose pools hold equal multisets."""
        rng = random.Random(11)
        bases = [(fixture(name), top) for name, top in (
            ("seeded_torsion", 5), ("hnn_f1", 5), ("genus2", 3)
        )]
        bases += [(build(), top) for build, top in CENSUS_BASES.values()]
        bases += [
            (amalgam([random_word(rng, 2).letters for _ in range(k)]), 4)
            for k in (2, 3) for _ in range(12)
        ]
        answers = collections.Counter()
        for g, top in bases:
            for n in range(1, top + 1):
                for lifts, *_ in covers_module._lift_choices(g, None, n, "@", Budget()):
                    want = admits_oracle(g, lifts)
                    assert covers_module._Components.admits(g, lifts) == want, (n, lifts)
                    answers[want] += 1
        assert answers[True] > 100 and answers[False] > 100


class TestLiftTemplates:
    def test_census_covers_cut_and_doubled(self):
        """Each census cover of the fixtures and the census bases, and each
        with its least pair cut or given twice, derives the elevation index,
        hanging slots, problems and total that walking its lifts one by one
        derives, in the same order."""
        hanging = problems = 0
        covers = itertools.chain(fixture_census(), *(
            enumerate_covers(build(), top) for build, top in CENSUS_BASES.values()
        ))
        for m in covers:
            variants = [m]
            if m.pair_spec:
                q = min(m.pair_spec)
                cut = {k: spec for k, spec in m.pair_spec.items() if k != q}
                doubled = dict(m.pair_spec, **{q + "x": m.pair_spec[q]})
                variants += [
                    PrecoverMorphism(m.base, m.vertex_map, m.vertex_data, m.cyclic_index, pairs)
                    for pairs in (cut, doubled)
                ]
            for got in variants:
                want = morphism_fields_oracle(got)
                assert list(got.elevation_of.items()) == list(want["elevation_of"].items())
                assert got.hanging == want["hanging"] and got.problems == want["problems"]
                t = got.total
                vertices, pairs, ranks, kinds, words, base = want["total"]
                assert t.graph.vertices == vertices and t.base_vertex == base
                for have, expect in (
                    (t.graph.pairs, pairs), (t.vertex_rank, ranks),
                    (t.vertex_kind, kinds), (t.edge_words, words),
                ):
                    assert list(have.items()) == list(expect.items())
                hanging += len(got.hanging)
                problems += len(got.problems)
        assert hanging > 1000 and problems > 1000
