"""The exact SchemaError text for each field of a torsion-piece document.

Each case changes one field of the piece that ``find_torsion_piece`` finds
on the seeded fixture at p = 2 (deletes it, or gives it a value of another
type or one the schema refuses) and pins the message ``parse_document``
raises, or None where the document still parses.  A torsion-piece document
carries a morphism and its base gog, so every field a morphism or a gog
document has is covered too.
"""

import copy
from pathlib import Path

import pytest

from gfgcover import cli, gog
from gfgcover.covers import find_torsion_piece

SEEDED = str(Path(__file__).resolve().parent.parent / "fixtures" / "seeded_torsion.yaml")
MISSING = object()

CASES = [
    (('prime',), MISSING, "doc: missing field 'prime'"),
    (('prime',), '2', 'doc.prime: expected int, got str'),
    (('prime',), True, 'doc.prime: expected int, got bool'),
    (('prime',), 2.0, 'doc.prime: expected int, got float'),
    (('prime',), 4, 'doc.prime: 4 is not prime'),
    (('prime',), 1, 'doc.prime: 1 is not prime'),
    (('c1',), MISSING, "doc: missing field 'c1'"),
    (('c1',), 3, 'doc.c1: expected str, got int'),
    (('c1',), True, 'doc.c1: expected str, got bool'),
    (('c1',), 'c@1', 'doc.c1: must carry exactly one incident edge'),
    (('c1',), 'v@0', "doc: boundary vertex 'v@0' is not a cyclic lift"),
    (('c1',), 'nope', "doc: boundary vertex 'nope' is not a cyclic lift"),
    (('c2',), MISSING, "doc: missing field 'c2'"),
    (('c2',), 3, 'doc.c2: expected str, got int'),
    (('c2',), False, 'doc.c2: expected str, got bool'),
    (('c2',), 'c@0.1', "doc.c2: must differ from c1 (both are 'c@0.1')"),
    (('c2',), 'v@0', "doc: boundary vertex 'v@0' is not a cyclic lift"),
    (('morphism',), MISSING, "doc: missing field 'morphism'"),
    (('morphism',), [], 'doc.morphism: expected dict, got list'),
    (('morphism',), 'm', 'doc.morphism: expected dict, got str'),
    (('base',), MISSING, "doc: missing field 'base'"),
    (('base',), [], 'doc.base: expected dict, got list'),
    (('base',), 3, 'doc.base: expected dict, got int'),
    (('morphism', 'vertices'), MISSING, "doc.morphism: missing field 'vertices'"),
    (('morphism', 'vertices'), {}, 'doc.morphism.vertices: expected list, got dict'),
    (('morphism', 'vertices'), 'x', 'doc.morphism.vertices: expected list, got str'),
    (('morphism', 'vertices', 0), [], 'doc.morphism.vertices[0]: expected dict, got list'),
    (('morphism', 'vertices', 0), 'c', 'doc.morphism.vertices[0]: expected dict, got str'),
    (('morphism', 'vertices', 4, 'name'), MISSING, "doc.morphism.vertices[4]: missing field 'name'"),
    (('morphism', 'vertices', 4, 'name'), 5, 'doc.morphism.vertices[4].name: expected str, got int'),
    (('morphism', 'vertices', 4, 'name'), True, 'doc.morphism.vertices[4].name: expected str, got bool'),
    (('morphism', 'vertices', 4, 'over'), MISSING, "doc.morphism.vertices[4]: missing field 'over'"),
    (('morphism', 'vertices', 4, 'over'), 7, 'doc.morphism.vertices[4].over: expected str, got int'),
    (('morphism', 'vertices', 4, 'over'), True, 'doc.morphism.vertices[4].over: expected str, got bool'),
    (('morphism', 'vertices', 4, 'over'), 'w', "doc.morphism.vertices[4].over: unknown base vertex 'w'"),
    (('morphism', 'vertices', 4, 'table'), MISSING, "doc.morphism.vertices[4]: missing field 'table'"),
    (('morphism', 'vertices', 4, 'table'), 'x', 'doc.morphism.vertices[4].table: expected list, got str'),
    (('morphism', 'vertices', 4, 'table'), {}, 'doc.morphism.vertices[4].table: expected list, got dict'),
    (('morphism', 'vertices', 4, 'table'), [[1, 2, 0]], 'doc.morphism.vertices[4].table: need 2 permutation rows, got 1'),
    (('morphism', 'vertices', 4, 'table'), [[1, 2, 0], 'x'], 'doc.morphism.vertices[4].table[1]: expected list, got str'),
    (('morphism', 'vertices', 4, 'table'), [[1, 2, 0], [True, 1, 2]], 'doc.morphism.vertices[4].table[1][0]: expected int, got bool'),
    (('morphism', 'vertices', 4, 'table'), [[1, 2, 0], [0, 1, '2']], 'doc.morphism.vertices[4].table[1][2]: expected int, got str'),
    (('morphism', 'vertices', 4, 'table'), [[1, 2, 0], [0, 1, 1]], 'doc.morphism.vertices[4].table: each generator must act by a permutation'),
    (('morphism', 'vertices', 4, 'table'), [[0, 1, 2], [0, 1, 2]], 'doc.morphism.vertices[4].table: action is not transitive'),
    (('morphism', 'vertices', 4, 'table'), [[1, 0, 2], [0, 2.0, 1]], 'doc.morphism.vertices[4].table[1][1]: expected int, got float'),
    (('morphism', 'vertices', 0, 'index'), MISSING, "doc.morphism.vertices[0]: missing field 'index'"),
    (('morphism', 'vertices', 0, 'index'), '1', 'doc.morphism.vertices[0].index: expected int, got str'),
    (('morphism', 'vertices', 0, 'index'), True, 'doc.morphism.vertices[0].index: expected int, got bool'),
    (('morphism', 'vertices', 0, 'index'), 1.5, 'doc.morphism.vertices[0].index: expected int, got float'),
    (('morphism', 'vertices', 0, 'index'), 0, "doc.morphism: cyclic lift 'c@0.1' has no index"),
    (('morphism', 'vertices', 0, 'name'), 5, 'doc.morphism.vertices[0].name: expected str, got int'),
    (('morphism', 'edges'), MISSING, "doc.morphism: missing field 'edges'"),
    (('morphism', 'edges'), {}, 'doc.morphism.edges: expected list, got dict'),
    (('morphism', 'edges'), 3, 'doc.morphism.edges: expected list, got int'),
    (('morphism', 'edges', 1), [], 'doc.morphism.edges[1]: expected dict, got list'),
    (('morphism', 'edges', 1), 'e', 'doc.morphism.edges[1]: expected dict, got str'),
    (('morphism', 'edges', 1, 'name'), MISSING, "doc.morphism.edges[1]: missing field 'name'"),
    (('morphism', 'edges', 1, 'name'), 5, 'doc.morphism.edges[1].name: expected str, got int'),
    (('morphism', 'edges', 1, 'name'), False, 'doc.morphism.edges[1].name: expected str, got bool'),
    (('morphism', 'edges', 1, 'over'), MISSING, "doc.morphism.edges[1]: missing field 'over'"),
    (('morphism', 'edges', 1, 'over'), 5, 'doc.morphism.edges[1].over: expected str, got int'),
    (('morphism', 'edges', 1, 'over'), True, 'doc.morphism.edges[1].over: expected str, got bool'),
    (('morphism', 'edges', 1, 'over'), 'q', "doc.morphism: total pair 'p0@1' over unknown base pair 'q'"),
    (('morphism', 'edges', 1, 'fwd'), MISSING, "doc.morphism.edges[1]: missing field 'fwd'"),
    (('morphism', 'edges', 1, 'fwd'), [], 'doc.morphism.edges[1].fwd: expected dict, got list'),
    (('morphism', 'edges', 1, 'fwd'), 'r', 'doc.morphism.edges[1].fwd: expected dict, got str'),
    (('morphism', 'edges', 1, 'fwd'), 3, 'doc.morphism.edges[1].fwd: expected dict, got int'),
    (('morphism', 'edges', 1, 'bwd'), MISSING, "doc.morphism.edges[1]: missing field 'bwd'"),
    (('morphism', 'edges', 1, 'bwd'), [], 'doc.morphism.edges[1].bwd: expected dict, got list'),
    (('morphism', 'edges', 1, 'bwd'), True, 'doc.morphism.edges[1].bwd: expected dict, got bool'),
    (('morphism', 'edges', 1, 'fwd', 'vertex'), MISSING, "doc.morphism.edges[1].fwd: missing field 'vertex'"),
    (('morphism', 'edges', 1, 'fwd', 'vertex'), 3, 'doc.morphism.edges[1].fwd.vertex: expected str, got int'),
    (('morphism', 'edges', 1, 'fwd', 'vertex'), True, 'doc.morphism.edges[1].fwd.vertex: expected str, got bool'),
    (('morphism', 'edges', 1, 'fwd', 'vertex'), 'c@9', "doc.morphism: pair 'p0@1' realized at unknown lift 'c@9'"),
    (('morphism', 'edges', 1, 'fwd', 'edge'), MISSING, "doc.morphism.edges[1].fwd: missing field 'edge'"),
    (('morphism', 'edges', 1, 'fwd', 'edge'), 3, 'doc.morphism.edges[1].fwd.edge: expected str, got int'),
    (('morphism', 'edges', 1, 'fwd', 'edge'), True, 'doc.morphism.edges[1].fwd.edge: expected str, got bool'),
    (('morphism', 'edges', 1, 'fwd', 'edge'), 'p1', "doc.morphism: ref orientation mismatch at pair 'p0@1'"),
    (('morphism', 'edges', 1, 'fwd', 'least'), MISSING, "doc.morphism.edges[1].fwd: missing field 'least'"),
    (('morphism', 'edges', 1, 'fwd', 'least'), '0', 'doc.morphism.edges[1].fwd.least: expected int, got str'),
    (('morphism', 'edges', 1, 'fwd', 'least'), True, 'doc.morphism.edges[1].fwd.least: expected int, got bool'),
    (('morphism', 'edges', 1, 'fwd', 'least'), False, 'doc.morphism.edges[1].fwd.least: expected int, got bool'),
    (('morphism', 'edges', 1, 'fwd', 'least'), 0.0, 'doc.morphism.edges[1].fwd.least: expected int, got float'),
    (('morphism', 'edges', 1, 'fwd', 'least'), 7, "doc.morphism: pair 'p0@1' names a nonexistent elevation ElevationRef(vertex='c@1', edge='p0', least=7)"),
    (('morphism', 'edges', 1, 'bwd', 'vertex'), MISSING, "doc.morphism.edges[1].bwd: missing field 'vertex'"),
    (('morphism', 'edges', 1, 'bwd', 'vertex'), 3, 'doc.morphism.edges[1].bwd.vertex: expected str, got int'),
    (('morphism', 'edges', 1, 'bwd', 'vertex'), True, 'doc.morphism.edges[1].bwd.vertex: expected str, got bool'),
    (('morphism', 'edges', 1, 'bwd', 'vertex'), 'c@9', "doc.morphism: pair 'p0@1' realized at unknown lift 'c@9'"),
    (('morphism', 'edges', 1, 'bwd', 'edge'), MISSING, "doc.morphism.edges[1].bwd: missing field 'edge'"),
    (('morphism', 'edges', 1, 'bwd', 'edge'), 3, 'doc.morphism.edges[1].bwd.edge: expected str, got int'),
    (('morphism', 'edges', 1, 'bwd', 'edge'), True, 'doc.morphism.edges[1].bwd.edge: expected str, got bool'),
    (('morphism', 'edges', 1, 'bwd', 'edge'), 'p1', "doc.morphism: ref orientation mismatch at pair 'p0@1'"),
    (('morphism', 'edges', 1, 'bwd', 'least'), MISSING, "doc.morphism.edges[1].bwd: missing field 'least'"),
    (('morphism', 'edges', 1, 'bwd', 'least'), '0', 'doc.morphism.edges[1].bwd.least: expected int, got str'),
    (('morphism', 'edges', 1, 'bwd', 'least'), True, 'doc.morphism.edges[1].bwd.least: expected int, got bool'),
    (('morphism', 'edges', 1, 'bwd', 'least'), False, 'doc.morphism.edges[1].bwd.least: expected int, got bool'),
    (('morphism', 'edges', 1, 'bwd', 'least'), 0.0, 'doc.morphism.edges[1].bwd.least: expected int, got float'),
    (('morphism', 'edges', 1, 'bwd', 'least'), 7, "doc.morphism: pair 'p0@1' names a nonexistent elevation ElevationRef(vertex='v@0', edge='~p0', least=7)"),
    (('morphism', 'basepoint'), MISSING, None),
    (('morphism', 'basepoint'), 3, 'doc.morphism.basepoint: expected str, got int'),
    (('morphism', 'basepoint'), True, 'doc.morphism.basepoint: expected str, got bool'),
    (('morphism', 'basepoint'), 'c@1', "doc.morphism: basepoint 'c@1' is not a lift of 'v'"),
    (('morphism', 'basepoint'), 'nope', "doc.morphism: basepoint 'nope' is not a lift of 'v'"),
    (('base', 'vertices'), MISSING, "doc.base: missing field 'vertices'"),
    (('base', 'vertices'), {}, 'doc.base.vertices: expected list, got dict'),
    (('base', 'vertices'), 'x', 'doc.base.vertices: expected list, got str'),
    (('base', 'vertices', 0), [], 'doc.base.vertices[0]: expected dict, got list'),
    (('base', 'vertices', 0), 'v', 'doc.base.vertices[0]: expected dict, got str'),
    (('base', 'vertices', 0, 'name'), MISSING, "doc.base.vertices[0]: missing field 'name'"),
    (('base', 'vertices', 0, 'name'), 5, 'doc.base.vertices[0].name: expected str, got int'),
    (('base', 'vertices', 0, 'name'), True, 'doc.base.vertices[0].name: expected str, got bool'),
    (('base', 'vertices', 0, 'kind'), MISSING, "doc.base.vertices[0]: missing field 'kind'"),
    (('base', 'vertices', 0, 'kind'), 5, 'doc.base.vertices[0].kind: expected str, got int'),
    (('base', 'vertices', 0, 'kind'), 'solvable', "doc.base.vertices[0].kind: must be 'free' or 'cyclic'"),
    (('base', 'vertices', 0, 'rank'), MISSING, 'doc.base.edges[1].word[0]: letters must be nonzero, magnitude <= 1'),
    (('base', 'vertices', 0, 'rank'), '2', 'doc.base.vertices[0].rank: expected int, got str'),
    (('base', 'vertices', 0, 'rank'), True, 'doc.base.vertices[0].rank: expected int, got bool'),
    (('base', 'vertices', 0, 'rank'), 2.5, 'doc.base.vertices[0].rank: expected int, got float'),
    (('base', 'vertices', 0, 'rank'), 0, 'doc.base.edges[1].word[0]: letters must be nonzero, magnitude <= 0'),
    (('base', 'vertices', 1, 'rank'), 3, "doc.base: cyclic vertex 'c' must have rank 1"),
    (('base', 'edges'), MISSING, "doc.base: missing field 'edges'"),
    (('base', 'edges'), {}, 'doc.base.edges: expected list, got dict'),
    (('base', 'edges'), 'x', 'doc.base.edges: expected list, got str'),
    (('base', 'edges', 1), [], 'doc.base.edges[1]: expected dict, got list'),
    (('base', 'edges', 1), 'e', 'doc.base.edges[1]: expected dict, got str'),
    (('base', 'edges', 1, 'name'), MISSING, "doc.base.edges[1]: missing field 'name'"),
    (('base', 'edges', 1, 'name'), 5, 'doc.base.edges[1].name: expected str, got int'),
    (('base', 'edges', 1, 'name'), 'p0', "doc.base.edges[1]: edge 'p0' listed twice"),
    (('base', 'edges', 1, 'to'), MISSING, "doc.base.edges[1]: missing field 'to'"),
    (('base', 'edges', 1, 'to'), 5, 'doc.base.edges[1].to: expected str, got int'),
    (('base', 'edges', 1, 'to'), 'w', "doc.base.edges[1].to: unknown vertex 'w'"),
    (('base', 'edges', 1, 'word'), MISSING, "doc.base.edges[1]: missing field 'word'"),
    (('base', 'edges', 1, 'word'), 'x', 'doc.base.edges[1].word: expected list, got str'),
    (('base', 'edges', 1, 'word'), {}, 'doc.base.edges[1].word: expected list, got dict'),
    (('base', 'edges', 1, 'word'), [], "doc.base: edge '~p0' carries the trivial word"),
    (('base', 'edges', 1, 'word'), [0], 'doc.base.edges[1].word[0]: letters must be nonzero, magnitude <= 2'),
    (('base', 'edges', 1, 'word'), [3], 'doc.base.edges[1].word[0]: letters must be nonzero, magnitude <= 2'),
    (('base', 'edges', 1, 'word'), [-3], 'doc.base.edges[1].word[0]: letters must be nonzero, magnitude <= 2'),
    (('base', 'edges', 1, 'word'), [True], 'doc.base.edges[1].word[0]: expected int, got bool'),
    (('base', 'edges', 1, 'word'), ['1'], 'doc.base.edges[1].word[0]: expected int, got str'),
    (('base', 'edges', 1, 'word'), [1, 1.0], 'doc.base.edges[1].word[1]: expected int, got float'),
]


@pytest.fixture(scope="module")
def piece():
    g = cli.parse_document(cli.load_document(SEEDED), SEEDED)
    return cli.document_for_piece(find_torsion_piece(g, 2, 4))


def changed(doc, where, value):
    """A copy of ``doc`` with the field at key path ``where`` deleted
    (MISSING) or set to ``value``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in where[:-1]:
        node = node[key]
    if value is MISSING:
        del node[where[-1]]
    else:
        node[where[-1]] = value
    return doc


def case_id(where, value):
    field = "".join("[%d]" % k if isinstance(k, int) else "." + k for k in where)
    return "%s=%s" % (field.lstrip("."), "missing" if value is MISSING else repr(value))


@pytest.mark.parametrize("where, value, message",
                         [pytest.param(*case, id=case_id(*case[:2])) for case in CASES])
def test_schema_error_text(piece, where, value, message):
    data = changed(piece, where, value)
    if message is None:
        cli.parse_document(data, "doc")
        return
    with pytest.raises(cli.SchemaError) as got:
        cli.parse_document(data, "doc")
    assert str(got.value) == message


def test_an_unreduced_word_names_its_field(piece):
    data = changed(piece, ("base", "edges", 1, "word"), [2, -2])
    with pytest.raises(cli.SchemaError) as got:
        cli.parse_document(data, "doc")
    assert str(got.value) == "doc.base.edges[1].word: word is not freely reduced at position 0"


@pytest.mark.parametrize("kind", ["gog", "morphism", "torsion-piece"])
def test_a_document_gog_is_validated_once(piece, monkeypatch, kind):
    # gog_from_payload marks the gog it checks as valid, so the morphism
    # built over it does not walk it again.
    calls = []
    validate = gog.validate

    def counted(g):
        calls.append(g)
        return validate(g)

    # ``ensure_valid`` looks ``validate`` up in gog, the one module that
    # binds it.
    monkeypatch.setattr(gog, "validate", counted)
    data = dict(piece, kind=kind)
    if kind == "gog":
        data = dict(piece["base"], format_version=1, kind="gog")
    got = cli.parse_document(data, "doc")
    base = got if kind == "gog" else (got.morphism if kind == "torsion-piece" else got).base
    assert calls == [base]
