"""The lean document path against PyYAML's stock safe loader and dumper.

``cli._Lean`` builds and reads plain ``str`` and decimal ``int`` scalars
itself and hands every other node to PyYAML.  The stock classes are the
oracle: over the libyaml classes and over the pure-Python ones, the lean
loader must return the same values, with the same types, and the lean
dumper must write the same bytes.
"""

from pathlib import Path

import pytest
import yaml
from _helpers import document_for_gog, identity_cover
from hypothesis import given, settings
from hypothesis import strategies as st

from gfgcover import cli
from gfgcover.covers import chain, complete, find_torsion_piece

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BACKENDS = [pytest.param((yaml.SafeLoader, yaml.SafeDumper), id="pure")]
if yaml.__with_libyaml__:
    BACKENDS.append(pytest.param((yaml.CSafeLoader, yaml.CSafeDumper), id="libyaml"))

# Plain scalars whose type PyYAML decides by more than their text being
# digits or a name: other int spellings, signs, bools, nulls, floats, merge
# and value keys, timestamps, indicators and non-ASCII digits.
TRICKY = [
    "0x1F", "017", "0o17", "0b101", "1_000", "1:30", "+5", "-0", "+0", "0", "-7",
    "12", "007", "~", "null", "Null", "NULL", "yes", "No", "on", "OFF", "true",
    "False", "1e3", "1.5", "-1.0e+3", ".inf", "-.Inf", ".nan", "", "=", "<<",
    "2001-12-14", "~p0", "@x", "`x", "#x", "-x", "- x", "!x", "&x", "*x",
    "%x", "?x", ":x", "x: y", "x #y", "٣", "١٢", "v@0.1", "c@0", "p0@3",
]


def lean(backend):
    loader, dumper = backend
    return (type("LeanLoader", (cli._Lean, loader), {}),
            type("LeanDumper", (cli._Lean, dumper), {}))


def typed(data):
    """``data`` with the type of every value spelled out, so that ``1``,
    ``1.0`` and ``True`` compare unequal."""
    if isinstance(data, dict):
        return ("dict", [(typed(k), typed(v)) for k, v in data.items()])
    if isinstance(data, list):
        return ("list", [typed(x) for x in data])
    return (type(data).__name__, data)


def dump(data, dumper):
    return yaml.dump(data, Dumper=dumper, sort_keys=False, default_flow_style=None)


def assert_loads_alike(text, backend):
    stock = backend[0]
    try:
        want = yaml.load(text, Loader=stock)
    except yaml.YAMLError as exc:
        with pytest.raises(type(exc)) as got:
            yaml.load(text, Loader=lean(backend)[0])
        assert str(got.value) == str(exc)
        return
    assert typed(yaml.load(text, Loader=lean(backend)[0])) == typed(want)


def assert_dumps_alike(data, backend):
    text = dump(data, backend[1])
    assert dump(data, lean(backend)[1]) == text
    assert_loads_alike(text, backend)


@pytest.fixture(scope="module")
def written():
    """Every document the CLI tests write, as payloads."""
    seeded = str(FIXTURES / "seeded_torsion.yaml")
    g = cli.parse_document(cli.load_document(seeded), seeded)
    piece = find_torsion_piece(g, 2, 4)
    chained = chain(piece, 2)
    tower = {"format_version": 1, "kind": "tower-config", "steps": 1, "primes": [2],
             "base": cli.gog_to_payload(g)}
    bad_letter = document_for_gog(g)
    bad_letter["edges"][1]["word"] = [True]
    return [
        cli.document_for_piece(piece),
        cli.document_for_morphism(chained),
        cli.document_for_morphism(complete(chained, 24)),
        cli.document_for_morphism(identity_cover(g)),
        dict(document_for_gog(g), format_version=99),
        bad_letter,
        tower,
        dict(tower, bounds={"max_cover_index": "4"}),
        dict(tower, primes=["2"]),
        dict(tower, steps=True),
        dict(tower, bounds={"max_cover_index": True, "complete_bound": -1}),
        dict(tower, budget=200000),
        dict(tower, budget=-5),
    ]


def test_cli_runs_the_lean_classes():
    # The libyaml pair whenever PyYAML has it, else the pure-Python one.
    assert cli._LeanLoader.__bases__ == (cli._Lean, cli._Loader)
    assert cli._LeanDumper.__bases__ == (cli._Lean, cli._Dumper)
    assert (cli._Loader is yaml.CSafeLoader) == yaml.__with_libyaml__


@pytest.mark.parametrize("backend", BACKENDS)
class TestLeanPath:
    def test_fixtures(self, backend):
        for path in sorted(FIXTURES.glob("*.yaml")):
            text = path.read_text(encoding="utf-8")
            assert_loads_alike(text, backend)
            assert_dumps_alike(yaml.load(text, Loader=backend[0]), backend)

    def test_written_documents(self, backend, written):
        for doc in written:
            assert_dumps_alike(doc, backend)

    @pytest.mark.parametrize("scalar", TRICKY)
    def test_plain_scalar(self, backend, scalar):
        # As a plain block item, a flow item and a mapping key; the text may
        # not be valid YAML, in which case both must fail alike.
        for text in ("- %s\n" % scalar, "[%s]\n" % scalar, "%s: 1\n" % scalar):
            assert_loads_alike(text, backend)

    def test_merge_anchor_alias_and_wrapped_flow_list(self, backend):
        text = (
            "base: &b {name: v, kind: free, rank: 2}\n"
            "other:\n  <<: *b\n  name: w\n"
            "shared: &s [1, -2, 017, 0x1F]\n"
            "again: *s\n"
            "word: [%s]\n" % ", ".join(str(i) for i in range(-40, 40))
        )
        assert_loads_alike(text, backend)
        shared = list(range(-3, 3))
        assert_dumps_alike(
            {"word": list(range(-40, 40)), "a": shared, "b": shared, "n": None}, backend
        )
        assert "\n  " in dump({"word": list(range(-40, 40))}, lean(backend)[1])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_payloads(self, backend, data):
        text = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8)
        scalars = st.one_of(
            st.sampled_from(TRICKY), text, st.integers(), st.booleans(), st.none(),
            st.floats(allow_nan=False),
        )
        keys = st.one_of(st.sampled_from(TRICKY), text, st.integers())
        payload = data.draw(st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=6) | st.dictionaries(keys, inner, max_size=5),
            max_leaves=30,
        ))
        assert_dumps_alike(payload, backend)
        items = data.draw(st.lists(st.sampled_from(TRICKY) | st.from_regex(
            r"[-+]?[0-9][0-9_:.]{0,5}", fullmatch=True), min_size=1, max_size=6))
        assert_loads_alike("".join("- %s\n" % s for s in items), backend)
