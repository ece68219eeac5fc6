from pathlib import Path

import pytest
from _helpers import (
    check_normal_form, induced_pair, malnormal_family_problems, outcome, word_length,
)
from _oracles import (
    distance_oracle, enumerate_closed_words_oracle, has_pinch, is_connected_oracle,
    is_nontrivial, spanning_tree_oracle,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gfgcover.cli import load_document, parse_document
from gfgcover.gog import (
    GogWord,
    GraphOfGroups,
    SerreGraph,
    abelianized_presentation,
    enumerate_closed_words,
    euler_characteristic,
    reverse_edge,
    validate,
)
from gfgcover.homology import class_image, h1
from gfgcover.words import Word


def bs13():
    """Ascending HNN extension of Z: one loop, words a and a^3."""
    graph = SerreGraph(["v"], {"p": ("v", "v")})
    return GraphOfGroups(
        graph,
        {"v": 1},
        {"v": "free"},
        {"p": Word((1,), 1), "~p": Word((1, 1, 1), 1)},
        "v",
    )


def genus2():
    graph = SerreGraph(["u", "w"], {"p": ("u", "w")})
    comm = Word((1, 2, -1, -2), 2)
    return GraphOfGroups(
        graph, {"u": 2, "w": 2}, {"u": "free", "w": "free"},
        {"p": comm, "~p": comm}, "u",
    )


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


def draw_graph(data) -> SerreGraph:
    """A random Serre graph: loops, multi-edges, several components and
    pair names out of vertex order."""
    n = data.draw(st.integers(0, 6))
    ends = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
    ends = [(i, j) for i, j in ends if max(i, j) < n]
    names = data.draw(st.permutations(range(len(ends))))
    return SerreGraph(
        ["v%d" % i for i in range(n)],
        {"p%d" % k: ("v%d" % i, "v%d" % j) for k, (i, j) in zip(names, ends)},
    )


class TestSerreGraph:
    def test_orientation(self):
        g = SerreGraph(["u", "w"], {"p": ("u", "w")})
        assert g.iota("p") == "u" and g.tau("p") == "w"
        assert g.iota("~p") == "w" and g.tau("~p") == "u"
        assert reverse_edge("~p") == "p"
        assert g.star("u") == ["p"] and g.star("w") == ["~p"]

    def test_loop_star(self):
        g = SerreGraph(["v"], {"p": ("v", "v")})
        assert g.star("v") == ["p", "~p"]

    def test_connectivity_and_distance(self):
        g = SerreGraph(["a", "b", "c"], {"p": ("a", "b"), "q": ("b", "c")})
        assert g.is_connected()
        assert g.distance("a", "c") == 2
        h = SerreGraph(["a", "b"], {})
        assert not h.is_connected()
        with pytest.raises(ValueError):
            h.distance("a", "b")

    def test_spanning_tree(self):
        g = SerreGraph(
            ["a", "b", "c"],
            {"p": ("a", "b"), "q": ("b", "c"), "r": ("c", "a")},
        )
        assert sorted(g.spanning_tree("a")) == ["p", "r"]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_search_matches_the_three_walks(self, data):
        """On random Serre graphs (loops, multi-edges, several components
        and pair names out of vertex order), the shared search answers as
        the three walks it replaced, also from a root the graph lacks."""
        g = draw_graph(data)
        assert g.is_connected() == is_connected_oracle(g)
        for u in g.vertices + ("x",):
            assert g.spanning_tree(u) == spanning_tree_oracle(g, u)
            for w in g.vertices + ("x",):
                assert outcome(g.distance, u, w) == outcome(distance_oracle, g, u, w)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_memoised_searches_answer_as_the_walks(self, data):
        """Each root's search is made once and kept.  Asked in any
        interleaving of roots, repeats included, the graph answers as the
        three walks, and changing a returned tree changes no later answer."""
        g = draw_graph(data)
        roots = st.sampled_from(g.vertices + ("x",))
        queries = data.draw(st.lists(
            st.tuples(st.sampled_from(("connected", "tree", "distance")), roots, roots),
            max_size=24,
        ))
        for kind, u, w in queries:
            if kind == "connected":
                assert g.is_connected() == is_connected_oracle(g)
            elif kind == "distance":
                assert outcome(g.distance, u, w) == outcome(distance_oracle, g, u, w)
            else:
                tree = g.spanning_tree(u)
                assert tree == spanning_tree_oracle(g, u)
                tree.reverse()
                tree.append(w)
        for u in g.vertices + ("x",):
            assert g.spanning_tree(u) == spanning_tree_oracle(g, u)

    def test_pairs_are_read_only(self):
        g = SerreGraph(["a", "b"], {"p": ("a", "b")})
        with pytest.raises(TypeError):
            g.pairs["q"] = ("b", "a")
        assert dict(g.pairs) == {"p": ("a", "b")} and g.tau("p") == "b"

    def test_bad_names(self):
        with pytest.raises(ValueError):
            SerreGraph(["v"], {"~p": ("v", "v")})
        with pytest.raises(ValueError):
            SerreGraph(["v", "v"], {})
        with pytest.raises(ValueError):
            SerreGraph(["v"], {"p": ("v", "x")})


class TestValidate:
    def test_good(self):
        assert validate(bs13()) == []
        assert validate(genus2()) == []
        assert validate(amalgam()) == []

    def test_catches_problems(self):
        g = amalgam()
        g.vertex_rank["c"] = 2
        assert any("cyclic" in p for p in validate(g))
        g = amalgam()
        del g.edge_words["~p0"]
        assert any("no word" in p for p in validate(g))
        g = amalgam()
        g.base_vertex = "zz"
        assert any("base" in p for p in validate(g))
        g = amalgam()
        g.edge_words["p0"] = Word((), 1)
        assert any("trivial" in p for p in validate(g))

    def test_connectivity_flag(self):
        graph = SerreGraph(["a", "b"], {})
        g = GraphOfGroups(graph, {"a": 1, "b": 1}, {"a": "free", "b": "free"}, {}, "a")
        assert any("connected" in p for p in validate(g))


class TestEuler:
    def test_values(self):
        assert euler_characteristic(bs13()) == 0
        assert euler_characteristic(genus2()) == -2
        assert euler_characteristic(amalgam()) == -1


class TestNormalForm:
    def test_good_amalgam(self):
        assert check_normal_form(amalgam(((1, 1, 2),))) == []
        assert check_normal_form(amalgam(((1, 1, 2), (2, 2, 1)))) == []

    def test_rejects_proper_power(self):
        problems = check_normal_form(amalgam(((1, 1),)))
        assert any("power" in p for p in problems)

    def test_rejects_conjugate_roots(self):
        problems = check_normal_form(amalgam(((1, 2), (2, 1))))
        assert any("share" in p for p in problems)
        problems = check_normal_form(amalgam(((1, 2), (-2, -1))))
        assert any("share" in p for p in problems)

    def test_rejects_free_free_edge(self):
        assert any("joins two" in p for p in check_normal_form(genus2()))

    def test_rejects_word_deep_in_cyclic_vertex(self):
        g = amalgam()
        g.edge_words["p0"] = Word((1, 1), 1)
        assert any("non-generator" in p for p in check_normal_form(g))

    def test_malnormal_family_helper(self):
        a, b = Word((1,), 2), Word((2,), 2)
        assert malnormal_family_problems([a, b]) == []
        assert malnormal_family_problems([a, a]) != []


class TestInducedPair:
    def test_family_at_free_vertex(self):
        g = amalgam(((1, 1, 2), (2, 2, 1)))
        rank, fam = induced_pair(g, "v")
        assert rank == 2
        assert [e for e, _ in fam] == ["~p0", "~p1"]
        assert [w.letters for _, w in fam] == [(1, 1, 2), (2, 2, 1)]

    def test_family_at_cyclic_vertex(self):
        g = amalgam(((1, 1, 2),))
        rank, fam = induced_pair(g, "c")
        assert rank == 1 and [e for e, _ in fam] == ["p0"]


class TestAbelianized:
    def test_bs13_matrix(self):
        roster, m = abelianized_presentation(bs13())
        assert roster == [("vertex", "v", 0), ("stable", "p")]
        assert m.entries == ((-2, 0),)

    def test_genus2_matrix(self):
        roster, m = abelianized_presentation(genus2())
        assert roster == [
            ("vertex", "u", 0), ("vertex", "u", 1),
            ("vertex", "w", 0), ("vertex", "w", 1),
        ]
        assert m.entries == ((0, 0, 0, 0),)

    def test_h1_values(self):
        assert str(h1(bs13())) == "Z ⊕ Z/2"
        assert str(h1(genus2())) == "Z^4"
        assert str(h1(amalgam())) == "Z^2"

    def test_class_image_relations(self):
        g = amalgam(((1, 1),))  # not normal form, but fine for homology
        c = class_image(g, "c")
        a0 = class_image(g, ("v", Word((1,), 2)))
        a0_doubled = class_image(g, ("v", Word((1, 1), 2)))
        assert c == a0_doubled
        assert c == tuple(2 * x for x in a0)
        with pytest.raises(ValueError):
            class_image(g, "v")


class TestGogWord:
    def test_validate_and_closed(self):
        g = amalgam()
        w = GogWord("v", (Word((1,), 2), Word((), 1)), ("p0",))
        assert w.validate_on(g) == []
        assert not w.is_closed(g)
        closed = GogWord(
            "v", (Word((1,), 2), Word((1,), 1), Word((2,), 2)), ("p0", "~p0")
        )
        assert closed.validate_on(g) == []
        assert closed.is_closed(g)
        assert word_length(closed) == 5

    def test_validate_catches_bad_paths(self):
        g = amalgam()
        w = GogWord("v", (Word((1,), 2), Word((), 2)), ("~p0",))
        assert w.validate_on(g)
        with pytest.raises(ValueError):
            GogWord("v", (Word((1,), 2),), ("p0",))

    def test_pinch(self):
        g = amalgam()
        pinched = GogWord(
            "v", (Word((), 2), Word((1, 1), 1), Word((), 2)), ("p0", "~p0")
        )
        assert has_pinch(g, pinched)
        assert not is_nontrivial(g, pinched)
        two = amalgam(((1, 1, 2), (2, 2, 1)))
        through = GogWord(
            "v", (Word((), 2), Word((), 1), Word((), 2)), ("p0", "~p1")
        )
        assert not has_pinch(two, through)
        assert is_nontrivial(two, through)

    def test_vertex_word_nontriviality(self):
        g = amalgam()
        assert is_nontrivial(g, GogWord("v", (Word((1,), 2),), ()))
        assert not is_nontrivial(g, GogWord("v", (Word((), 2),), ()))


class TestEnumerate:
    def test_first_words_single_vertex(self):
        graph = SerreGraph(["v"], {})
        g = GraphOfGroups(graph, {"v": 2}, {"v": "free"}, {}, "v")
        words = list(enumerate_closed_words(g, 1))
        assert [gw.syllables[0].letters for gw in words] == [(-2,), (-1,), (1,), (2,)]

    def test_all_pinched_crossings_skipped(self):
        # One amalgam pair whose cyclic side is the whole edge group: every
        # out-and-back crossing pinches, so only vertex words survive.
        g = amalgam()
        words = list(enumerate_closed_words(g, 3))
        assert words and all(not gw.crossings for gw in words)

    def test_crossing_words_appear_with_two_pairs(self):
        g = amalgam(((1, 1, 2), (2, 2, 1)))
        words = list(enumerate_closed_words(g, 4))
        assert any(gw.crossings for gw in words)
        lengths = [word_length(gw) for gw in words]
        assert lengths == sorted(lengths)
        assert words[0].syllables[0].letters == (-2,)

    @pytest.mark.parametrize("name", ["seeded_torsion", "genus2", "hnn_f1"])
    def test_matches_eager_oracle(self, name):
        path = str(Path(__file__).resolve().parent.parent / "fixtures" / (name + ".yaml"))
        g = parse_document(load_document(path), path)
        lazy = list(enumerate_closed_words(g, 6))
        assert lazy == list(enumerate_closed_words_oracle(g, 6))
        assert lazy

    def test_deterministic(self):
        g = amalgam(((1, 1, 2), (2, 2, 1)))
        a = [str(gw) for gw in enumerate_closed_words(g, 4)]
        b = [str(gw) for gw in enumerate_closed_words(g, 4)]
        assert a == b
