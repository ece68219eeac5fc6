"""The direct document path against PyYAML's stock safe loader and dumper.

``cli.save_document`` writes a mapping of ints, bare names, lists and dicts
itself (``cli._dump_direct``) and hands any other value to PyYAML's safe
dumper.  ``cli.load_document`` parses the subset the direct writer emits
(``cli._load_direct``) and hands any other text to PyYAML's safe loader
(``cli._Loader``).  The stock classes are the oracle: over the libyaml
classes and over the pure-Python ones, the direct path must return the
same values, with the same types, and write the same bytes.
"""

import collections
import importlib
import itertools
import random
from pathlib import Path

import pytest
import yaml
from _helpers import document_for_gog, identity_cover
from hypothesis import given, settings
from hypothesis import strategies as st

from gfgcover import cli
from gfgcover.covers import chain, complete, find_torsion_piece

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
FIXTURE_TEXTS = {p.read_text(encoding="utf-8") for p in FIXTURES.glob("*.yaml")}

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


def direct(data):
    """The direct writer's text for ``data``, or None when it refuses."""
    try:
        return cli._dump_direct(data)
    except cli._Refused:
        return None


def read_direct(text):
    """The direct reader's typed value of ``text``, or None when it refuses."""
    try:
        return typed(cli._load_direct(text))
    except cli._Refused:
        return None


def assert_loads_alike(text, backend):
    # A text PyYAML cannot read must lie outside the direct subset.
    try:
        want = yaml.load(text, Loader=backend[0])
    except yaml.YAMLError:
        assert read_direct(text) is None
        return
    assert read_direct(text) in (None, typed(want))


def assert_dumps_alike(data, backend):
    # The pure-Python and libyaml dumpers differ on some values that the
    # direct writer refuses (an empty key, a scalar document); the CLI
    # hands those to cli._Dumper.
    text = dump(data, backend[1])
    written = direct(data)
    if written is None:
        assert cli.save_document(data) == dump(data, cli._Dumper)
    else:  # written directly, so read directly too
        assert cli.save_document(data) == written == text
        assert read_direct(text) == typed(data)
    assert_loads_alike(text, backend)


@pytest.fixture(scope="module")
def seeded():
    path = str(FIXTURES / "seeded_torsion.yaml")
    return cli.parse_document(cli.load_document(path), path)


@pytest.fixture(scope="module")
def tower(seeded):
    return {"format_version": 1, "kind": "tower-config", "steps": 1, "primes": [2],
            "base": cli.gog_to_payload(seeded)}


@pytest.fixture(scope="module")
def written(seeded, tower):
    """The documents the CLI and its tests write whose scalars are all
    ints and bare names."""
    piece = find_torsion_piece(seeded, 2, 4)
    chained = chain(piece, 2)
    return [
        cli.document_for_piece(piece),
        cli.document_for_morphism(chained),
        cli.document_for_morphism(complete(chained, 24)),
        cli.document_for_morphism(identity_cover(seeded)),
        dict(document_for_gog(seeded), format_version=99),
        tower,
        dict(tower, budget=200000),
        dict(tower, budget=-5),
    ]


@pytest.fixture(scope="module")
def odd(seeded, tower):
    """Documents the CLI tests write with a bool or a quoted number in them."""
    bad_letter = document_for_gog(seeded)
    bad_letter["edges"][1]["word"] = [True]
    return [
        bad_letter,
        dict(tower, bounds={"max_cover_index": "4"}),
        dict(tower, primes=["2"]),
        dict(tower, steps=True),
        dict(tower, bounds={"max_cover_index": True, "complete_bound": -1}),
    ]


def test_cli_runs_the_lean_classes():
    # The libyaml pair whenever PyYAML has it, else the pure-Python one;
    # texts and documents the direct path refuses go to PyYAML's own safe
    # loader and dumper.
    assert (cli._Loader is yaml.CSafeLoader) == yaml.__with_libyaml__
    assert (cli._Dumper is yaml.CSafeDumper) == yaml.__with_libyaml__


def test_written_documents_take_the_direct_path(written, odd):
    for doc in written:
        text = direct(doc)
        assert text is not None
        assert read_direct(text) == typed(doc)
    for doc in odd:
        assert direct(doc) is None
        assert read_direct(cli.save_document(doc)) is None


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.yaml")), ids=lambda p: p.stem)
def test_fixtures_go_to_pyyaml(path):
    # Quoted names and trailing comments lie outside the direct subset.
    text = path.read_text(encoding="utf-8")
    assert read_direct(text) is None
    assert typed(cli.load_document(str(path))) == typed(yaml.safe_load(text))


@pytest.mark.parametrize("text", [
    "k: 'v'\n", 'k: "v"\n', "k: &a [1]\nl: *a\n", "k: !!str v\n", "k: v  # c\n",
    "k: 1\nk: 2\n", "k: {a: 1, a: 2}\n", "k:\n\t- 1\n", "k:\n   l: 1\n", "k:\n",
    "k: yes\n", "k: 1.5\n", "k: 007\n", "---\nk: v\n", "k: v\n  w\n",
], ids=["single-quote", "double-quote", "anchor", "tag", "trailing-comment",
        "duplicate-key", "duplicate-flow-key", "tab", "odd-indent", "null", "bool",
        "float", "octal", "document-start", "continued-scalar"])
def test_direct_reader_refuses(text, tmp_path):
    # Refused, the text reads as PyYAML's safe loader reads it, or fails
    # with its error, whose marks name the file.
    assert read_direct(text) is None
    path = tmp_path / "doc.yaml"
    path.write_text(text + "format_version: 1\nkind: gog\n", encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        try:
            want = yaml.load(fh, Loader=cli._Loader)
        except yaml.YAMLError as exc:
            with pytest.raises(cli.SchemaError) as got:
                cli.load_document(str(path))
            assert str(got.value) == "%s: %s" % (path, exc)
            assert 'in "%s", line' % path in str(exc)
            return
    assert typed(cli.load_document(str(path))) == typed(want)
    assert typed(want) == typed(yaml.safe_load(path.read_text(encoding="utf-8")))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("workloads"), importlib.import_module("runner")


@pytest.fixture
def paths(monkeypatch):
    """Counts of the path each document load and save takes."""
    count = collections.Counter()

    def counted(fn, name):
        def wrapper(arg):
            try:
                out = fn(arg)
            except cli._Refused:
                count[name + " by pyyaml"] += 1
                raise
            count[name + " directly"] += 1
            return out
        return wrapper

    monkeypatch.setattr(cli, "_dump_direct", counted(cli._dump_direct, "saved"))
    monkeypatch.setattr(cli, "_load_direct", counted(cli._load_direct, "loaded"))
    return count


@pytest.mark.parametrize("workload", ["census", "torsion", "tower", "quotients"])
def test_benchmark_documents_take_the_direct_path(workload, bench, paths):
    workloads, _ = bench
    jobs = workloads.build(workload, 0, str(ROOT))
    assert paths["saved directly"] > 0 and paths["saved by pyyaml"] == 0
    for job in jobs:
        for text in job["docs"].values():
            assert text in FIXTURE_TEXTS or read_direct(text) is not None


def test_torsion_jobs_read_and_write_directly(bench, paths, tmp_path):
    # Every document a torsion job writes and reads goes the direct way,
    # except the fixtures its jobs start from.
    workloads, runner = bench
    jobs = workloads.build("torsion", 0, str(ROOT))
    workloads.write_docs(jobs, str(tmp_path))
    fixture_reads = sum(text in FIXTURE_TEXTS for job in jobs for text in job["docs"].values())
    paths.clear()
    for job in jobs:
        assert all(step["rc"] in (0, 2) for step in runner._perform(job, str(tmp_path)))
    assert paths["saved by pyyaml"] == 0 and paths["saved directly"] > 50
    assert paths["loaded by pyyaml"] == fixture_reads > 0
    assert paths["loaded directly"] > 50


def test_direct_reader_on_mutated_documents(written):
    # Each copy of a written document loses, doubles or gains one character.
    # Whenever the direct reader accepts the result, PyYAML must read the
    # same typed value from it, without an error.
    stock = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    texts = [cli.save_document(doc) for doc in written]
    inserts = " \n\t-:#,[]{}'\"&*!|>?%@~.a0"
    rng = random.Random(0)
    accepted = 0
    for _ in range(2000):
        text = rng.choice(texts)
        i = rng.randrange(len(text))
        how = rng.randrange(3)
        if how == 0:
            text = text[:i] + text[i + 1:]
        elif how == 1:
            text = text[:i] + text[i] + text[i:]
        else:
            text = text[:i] + rng.choice(inserts) + text[i:]
        got = read_direct(text)
        if got is not None:
            accepted += 1
            assert got == typed(yaml.load(text, Loader=stock)), text
    assert accepted > 400


@pytest.mark.parametrize("backend", BACKENDS)
class TestLeanPath:
    """The direct path against one pair of PyYAML's stock classes."""

    def test_fixtures(self, backend):
        for path in sorted(FIXTURES.glob("*.yaml")):
            text = path.read_text(encoding="utf-8")
            assert_loads_alike(text, backend)
            assert_dumps_alike(yaml.load(text, Loader=backend[0]), backend)

    def test_written_documents(self, backend, written, odd):
        for doc in written + odd:
            assert_dumps_alike(doc, backend)

    @pytest.mark.parametrize("scalar", TRICKY)
    def test_plain_scalar(self, backend, scalar):
        # As a plain block item, a flow item and a mapping key; the text may
        # not be valid YAML, in which case both must fail alike.
        for text in ("- %s\n" % scalar, "[%s]\n" % scalar, "%s: 1\n" % scalar,
                     "k: %s\n" % scalar, "k: {%s: 1}\n" % scalar):
            assert_loads_alike(text, backend)
        assert_dumps_alike({"k": scalar, scalar: [scalar], "m": {"k": scalar}}, backend)

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
        assert_dumps_alike({"a": shared, "b": {"c": shared}}, backend)
        assert "\n  " in cli.save_document({"word": list(range(-40, 40))})

    def test_line_width(self, backend):
        # The direct writer takes a document while its longest line fits in
        # 80 columns, where libyaml cannot yet break a flow collection.
        widths = set()
        for n, k in itertools.product(range(15, 22), range(1, 5)):
            for doc in ({"w" * k: list(range(90, 90 + n))},
                        {"a": [{"name": "x" * k, "table": [list(range(90, 90 + n))]}]}):
                text = dump(doc, backend[1])
                widest = max(map(len, text.splitlines()))
                assert (direct(doc) is not None) == (widest <= 80)
                widths.add(widest)
                assert_dumps_alike(doc, backend)
        assert {79, 80, 81} <= widths

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_payloads(self, backend, data):
        text = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8)
        names = st.from_regex(r"[A-Za-z_~][A-Za-z0-9_.@#+~-]{0,6}", fullmatch=True)
        scalars = st.one_of(
            st.sampled_from(TRICKY), text, names, st.integers(), st.booleans(), st.none(),
            st.floats(allow_nan=False),
        )
        keys = st.one_of(st.sampled_from(TRICKY), text, names, st.integers())
        payload = data.draw(st.recursive(
            scalars,
            lambda inner: st.lists(inner, max_size=6) | st.dictionaries(keys, inner, max_size=5),
            max_leaves=30,
        ))
        assert_dumps_alike(payload, backend)
        plain = data.draw(st.recursive(
            st.one_of(names, st.integers()),
            lambda inner: st.lists(inner, max_size=5) | st.dictionaries(
                st.one_of(names, st.integers()), inner, max_size=4),
            max_leaves=30,
        ))
        assert_dumps_alike({"k": plain}, backend)
        items = data.draw(st.lists(st.sampled_from(TRICKY) | st.from_regex(
            r"[-+]?[0-9][0-9_:.]{0,5}", fullmatch=True), min_size=1, max_size=6))
        assert_loads_alike("".join("- %s\n" % s for s in items), backend)


def test_line_ends_read_as_in_text_mode(written, tmp_path):
    # "\r\n" and a lone "\r" end a line, as they do for a file read in text mode.
    text = cli.save_document(written[1])
    path = tmp_path / "doc.yaml"
    for end in ("\r\n", "\r"):
        path.write_bytes(text.replace("\n", end).encode("utf-8"))
        assert typed(cli.load_document(str(path))) == typed(written[1])
