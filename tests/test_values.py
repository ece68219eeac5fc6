"""The package's value classes: repr text, equality, hash, immutability and
constructor errors.

The expected texts and errors were read off the dataclass definitions these
classes replaced, so each class behaves as before.  A command run loads
neither ``dataclasses`` nor ``inspect``.
"""

import ast
import copy
import inspect
import pickle
from pathlib import Path

import pytest
from _helpers import run_cli

from gfgcover.cosets import CosetTable, Elevation, PrescribeResult, SchreierData, prescribe_degrees
from gfgcover.covers import (
    ExitsAt, HangingSlot, InSubgroup, PrecoverMorphism, TorsionPiece, TowerBounds, TowerReport,
    TowerStep, build_tower, chain, check_bounds, enumerate_covers,
)
from gfgcover.errors import Budget
from gfgcover.gog import GogWord, GraphOfGroups, SerreGraph, enumerate_closed_words
from gfgcover.homology import AbelianGroup, IntMatrix, LedgerRow, TowerLedger
from gfgcover.words import ConjClass, Frozen, Value, Word

SRC = Path(__file__).resolve().parent.parent / "src"

W = Word((1, 2, -1), 2)
C = ConjClass(Word((1, 2), 2))
T = CosetTable(2, ((1, 0), (0, 1)))
STEP_FIELDS = (1, 2, 3, 3, 2, 1, 4, {2: 1}, "a", False, "note", 1)
STEP_REPR = (
    "TowerStep(step=1, prime=2, relative_degree=3, total_degree=3, alpha=2, beta=1, "
    "piece_predegree=4, exponents={2: 1}, excluded_word='a', excluded=False, "
    "exclusion_note='note', site_distance=1)"
)

# (class, field values in order, repr text); every class is frozen.
FROZEN = [
    (Word, ((1, 2, -1), 2), "Word(letters=(1, 2, -1), rank=2)"),
    (ConjClass, (Word((1, 2), 2),), "ConjClass(canonical=Word(letters=(1, 2), rank=2))"),
    (CosetTable, (2, ((1, 0), (0, 1))), "CosetTable(rank=2, action=((1, 0), (0, 1)))"),
    (SchreierData, (T, ((0, 1, 1),), ((0, 2, 1),)),
     "SchreierData(table=CosetTable(rank=2, action=((1, 0), (0, 1))), tree=((0, 1, 1),), "
     "edge_basis=((0, 2, 1),))"),
    (Elevation, (C, (0,), T),
     "Elevation(base=ConjClass(canonical=Word(letters=(1, 2), rank=2)), cycle=(0,), "
     "table=CosetTable(rank=2, action=((1, 0), (0, 1))))"),
    (PrescribeResult, (T, 2, "Z/2 (order 2)"),
     "PrescribeResult(table=CosetTable(rank=2, action=((1, 0), (0, 1))), scale=2, "
     "quotient='Z/2 (order 2)')"),
    (IntMatrix, (((1, 2), (3, 4)), 2), "IntMatrix(entries=((1, 2), (3, 4)), cols=2)"),
    (AbelianGroup, (1, (2, 4)), "AbelianGroup(betti=1, divisors=(2, 4))"),
    (GogWord, ("v", (W, Word((), 2)), ("p0",)),
     "GogWord(start='v', syllables=(Word(letters=(1, 2, -1), rank=2), "
     "Word(letters=(), rank=2)), crossings=('p0',))"),
    (HangingSlot, ("v.0", "~p0", "fwd", 2, 1),
     "HangingSlot(vertex='v.0', edge='~p0', side='fwd', degree=2, least=1)"),
    (TorsionPiece, ("m", "c.0", "c.1", 2, AbelianGroup(0, (2,))),
     "TorsionPiece(morphism='m', c1='c.0', c2='c.1', prime=2, "
     "certificate=AbelianGroup(betti=0, divisors=(2,)))"),
    (InSubgroup, (), "InSubgroup()"),
    (ExitsAt, (3, "v.1", 2), "ExitsAt(position=3, vertex='v.1', coset=2)"),
    (TowerBounds, (4, 3, 0, 6),
     "TowerBounds(max_cover_index=4, max_piece_index=3, complete_bound=0, max_word_length=6)"),
    (TowerStep, STEP_FIELDS, STEP_REPR),
    (TowerReport, ("g", (2,), 1, (), "ledger", {2: 0}, "ok"),
     "TowerReport(base='g', primes=(2,), requested_steps=1, steps=(), ledger='ledger', "
     "base_exponents={2: 0}, status='ok')"),
]
# Fields that hold a dict make the instance unhashable, as a tuple holding one is.
UNHASHABLE = {TowerStep, TowerReport}


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_frozen_class(cls, fields, text):
    x = cls(*fields)
    assert repr(x) == text
    assert x == cls(*fields) and not x != cls(*fields)
    for other_cls, other_fields, _ in FROZEN:
        if other_cls is not cls:
            assert x.__eq__(other_cls(*other_fields)) is NotImplemented
            assert x != other_cls(*other_fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(x)
    else:
        assert hash(x) == hash(fields)
    for name in ("rank", "cycle", "letters", "status", "anything"):
        with pytest.raises(AttributeError, match="cannot assign to field '%s'" % name):
            setattr(x, name, 0)
        with pytest.raises(AttributeError, match="cannot delete field '%s'" % name):
            delattr(x, name)
    assert repr(x) == text
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert twin == x and repr(twin) == text


def test_fields_compare_in_order():
    assert Word((1,), 2) != Word((1,), 3)
    assert CosetTable(1, ((0,),)) != CosetTable(2, ((0,), (0,)))
    assert ExitsAt(3, "v.1", 2) != ExitsAt(3, "v.1", 1)
    assert TowerStep(*STEP_FIELDS) != TowerStep(*STEP_FIELDS[:-1], 2)


def test_keyword_arguments_and_defaults():
    assert Word(letters=(1,), rank=1) == Word((1,), 1)
    assert ConjClass(canonical=C.canonical) == C
    assert CosetTable(action=T.action, rank=2) == T
    assert IntMatrix(cols=0, entries=()) == IntMatrix((), 0)
    assert AbelianGroup(divisors=(), betti=2) == AbelianGroup(2, ())
    assert GogWord(start="v", syllables=(W,), crossings=()) == GogWord("v", (W,), ())
    assert ExitsAt(coset=0, vertex="v", position=1) == ExitsAt(1, "v", 0)
    assert TowerBounds() == TowerBounds(4, 4, 24, 6)
    assert TowerBounds(5) == TowerBounds(max_cover_index=5)
    assert TowerBounds.FIELDS == (
        "max_cover_index", "max_piece_index", "complete_bound", "max_word_length")
    assert repr(TowerLedger()) == "TowerLedger(intro={}, rows=[])"
    assert TowerLedger().rows is not TowerLedger().rows
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        TowerBounds(bogus=1)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'rank'"):
        Word((1,))


def test_ledgers_are_mutable_and_unhashable():
    row = LedgerRow(1, 2, 3, {2: 1})
    assert repr(row) == "LedgerRow(step=1, prime=2, degree=3, exponents={2: 1})"
    ledger = TowerLedger({2: (1, 4)}, [row])
    assert repr(ledger) == (
        "TowerLedger(intro={2: (1, 4)}, rows=[LedgerRow(step=1, prime=2, degree=3, "
        "exponents={2: 1})])"
    )
    assert ledger == TowerLedger({2: (1, 4)}, [LedgerRow(1, 2, 3, {2: 1})])
    assert row.__eq__(ledger) is NotImplemented and ledger.__eq__(row) is NotImplemented
    for x in (row, ledger):
        with pytest.raises(TypeError, match="unhashable type"):
            hash(x)
    row.degree = 6
    ledger.rows = []
    assert row == LedgerRow(1, 2, 6, {2: 1}) and ledger != TowerLedger({2: (1, 4)}, [row])


def test_cached_properties_keep_an_instance_dict():
    sd = SchreierData(T, ((0, 1, 1),), ((0, 2, 1),))
    assert [r.letters for r in sd.reps] == [(), (1,)]
    assert "reps" in sd.__dict__
    e = Elevation(ConjClass(Word((1,), 2)), (0, 1), T)
    assert str(e.local) == "[2]" and "local" in e.__dict__


@pytest.mark.parametrize("build, error, text", [
    (lambda: Word((1, -1), 2), ValueError, "word is not freely reduced at position 0"),
    (lambda: Word((3,), 2), ValueError, "letter 3 out of range for rank 2"),
    (lambda: Word((), -1), ValueError, "rank must be non-negative"),
    (lambda: ConjClass(Word((1, 2, -1), 2)), ValueError,
     "canonical representative must be cyclically reduced"),
    (lambda: ConjClass(Word((2, 1), 2)), ValueError, "representative is not the least rotation"),
    (lambda: CosetTable(0, ()), ValueError, "rank must be >= 1"),
    (lambda: CosetTable(2, ((0,),)), ValueError, "need one permutation per generator"),
    (lambda: CosetTable(1, ((),)), ValueError, "need at least one coset"),
    (lambda: CosetTable(1, ((0, 0),)), ValueError, "each generator must act by a permutation"),
    (lambda: CosetTable(2, ((0, 1), (0, 1))), ValueError, "action is not transitive"),
    (lambda: IntMatrix(((1, 2), (3,)), 2), ValueError, "matrix rows must all have 2 entries"),
    (lambda: AbelianGroup(0, (1,)), ValueError, "divisors must be >= 2"),
    (lambda: AbelianGroup(0, (2, 3)), ValueError, "divisors must form a divisibility chain"),
    (lambda: GogWord("v", (), ()), ValueError, "need exactly one more syllable than crossings"),
    (lambda: TowerBounds(max_cover_index=0), ValueError,
     "max_cover_index must be at least 1, got 0"),
    (lambda: TowerBounds(1, 1, -1, -1), ValueError, "complete_bound must be at least 0, got -1"),
    (lambda: TowerBounds(max_word_length=-2), ValueError,
     "max_word_length must be at least 0, got -2"),
])
def test_constructor_errors(build, error, text):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == text


def _one_edge_gog() -> GraphOfGroups:
    """A free vertex v of rank 1 joined to a cyclic vertex c by one edge."""
    graph = SerreGraph(["v", "c"], {"p0": ("v", "c")})
    return GraphOfGroups(
        graph, {"v": 1, "c": 1}, {"v": "free", "c": "cyclic"},
        {"p0": Word((1,), 1), "~p0": Word((1,), 1)}, "v",
    )


@pytest.mark.parametrize("build, name", [
    (lambda: Word((), True), "rank"),
    (lambda: Word((1,), True), "rank"),
    (lambda: CosetTable(True, ((0,),)), "rank"),
    (lambda: TowerBounds(max_cover_index=True), "max_cover_index"),
    (lambda: TowerBounds(complete_bound=False), "complete_bound"),
    (lambda: check_bounds(max_index=True), "max_index"),
    (lambda: check_bounds(bound=False), "bound"),
    (lambda: next(enumerate_covers(None, True)), "max_index"),
    (lambda: Word((True,), 1), "letters"),
    (lambda: Word((1, False), 1), "letters"),
    (lambda: CosetTable(1, ((False,),)), "action"),
    (lambda: CosetTable(1, ((1, False),)), "action"),
    (lambda: PrecoverMorphism(_one_edge_gog(), {"c": "c"}, {}, {"c": True}, {}), "cyclic_index"),
    (lambda: Budget(True), "cap"),
    (lambda: prescribe_degrees(2, [Word((1,), 2)], [True]), "degrees"),
    (lambda: next(enumerate_closed_words(_one_edge_gog(), True)), "max_length"),
    (lambda: chain(None, True), "copies"),
    (lambda: build_tower(_one_edge_gog(), [2], True), "steps"),
])
def test_a_bool_is_not_an_int(build, name):
    # bool subclasses int, so True passed every range check as 1.
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == "%s: expected int, got bool" % name


def test_cli_imports_no_dataclasses_or_inspect():
    # The import profile of a whole command names every module it loads.
    code, out, err = run_cli(
        "h1", str(SRC.parent / "fixtures" / "hnn_f1.yaml"), python_flags=("-X", "importtime")
    )
    assert (code, out) == (0, "Z ⊕ Z/2\n")
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in err.splitlines() if line.startswith("import time:")
    }
    assert "gfgcover.covers" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def _value_classes(cls=Value):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("gfgcover."):
            yield sub
        yield from _value_classes(sub)


def test_fields_are_named_once_in_the_base():
    # Every value class is covered above, names the parameters of its own
    # constructor, if it has one, in FIELDS, and leaves repr, equality and
    # hash to the base; Word and CosetTable return the hash cached at
    # construction.  A class without its own constructor takes the base's.
    tested = {cls for cls, _, _ in FROZEN} | {LedgerRow, TowerLedger}
    classes = set(_value_classes()) - {Frozen}
    assert classes == tested
    for cls in classes:
        if "__init__" in vars(cls):
            params = tuple(inspect.signature(cls).parameters)
            assert cls.FIELDS == params, cls.__name__
        own = {"__repr__", "__eq__", "__hash__"} & set(vars(cls))
        assert own == ({"__hash__"} if cls in (Word, CosetTable) else set()), cls.__name__


def _stores_a_parameter(stmt, params) -> bool:
    # ``_set(self, "name", name)`` or ``self.name = name``.
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        return (
            isinstance(call.func, ast.Name) and call.func.id == "_set"
            and len(call.args) == 3 and isinstance(call.args[2], ast.Name)
            and call.args[2].id in params
        )
    return (
        isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Attribute)
        and isinstance(stmt.value, ast.Name) and stmt.value.id in params
    )


def test_no_value_class_defines_a_store_only_constructor():
    # A constructor that only stores its parameters repeats the base's.
    names = {cls.__name__ for cls in _value_classes()} | {"Value"}
    found, store_only = set(), []
    for path in sorted((SRC / "gfgcover").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name not in names:
                continue
            found.add(node.name)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    params = {a.arg for a in item.args.args[1:] + item.args.kwonlyargs}
                    if all(_stores_a_parameter(stmt, params) for stmt in item.body):
                        store_only.append(node.name)
    assert found == names
    assert store_only == []


@pytest.mark.parametrize("cls, fields", [(ExitsAt, (3, "v.1", 2)), (LedgerRow, (1, 2, 3, {2: 1}))])
def test_base_constructor(cls, fields):
    assert "__init__" not in vars(cls)
    named = dict(zip(cls.FIELDS, fields))
    x = cls(*fields)
    assert [getattr(x, name) for name in cls.FIELDS] == list(fields)
    assert cls(**named) == x
    assert cls(**dict(reversed(list(named.items())))) == x
    for k in range(1, len(fields)):
        assert cls(*fields[:k], **dict(list(named.items())[k:])) == x
    text = "%s takes each of its fields (%s) exactly once" % (
        cls.__name__, ", ".join(cls.FIELDS))
    for args, kwargs in [
        (fields + (0,), {}),  # too many
        (fields, {"bogus": 0}),  # unknown, all given by position
        (fields[:-1], {"bogus": 0}),  # unknown in place of the last
        (fields[:1], named),  # the first given twice
        (fields[:-1], {}),  # missing
        ((), dict(list(named.items())[1:])),  # missing by name
        ((), {}),
    ]:
        with pytest.raises(TypeError) as exc:
            cls(*args, **kwargs)
        assert str(exc.value) == text
