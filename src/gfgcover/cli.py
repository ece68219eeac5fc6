"""Command-line workbench: document files in, reports and documents out.

One structured-text (YAML) document format carries every object the
library builds.  A document is a mapping with ``format_version`` and a
``kind`` deciding the payload:

  gog            graph of groups: vertices, oriented edges, base vertex
  morphism       precover or cover over an embedded base gog
  torsion-piece  a morphism bundled with its boundary vertices and prime
  tower-config   a base gog plus tower parameters

Words and permutations are explicit integer arrays throughout, so the
files stay diffable and independent of any in-memory representation.
A document of integers and bare names is written and read directly, with
the bytes and values of PyYAML's ``safe_dump`` (``sort_keys=False,
default_flow_style=None``) and ``safe_load``; PyYAML handles any other
document or file (see docs/format.md).  The direct reader makes one pass
over the lines with a stack of the open block collections, and the
payload readers check each field once, putting its path together only to
name it in an error.
Subcommands print either CSV (fixed column order, LF, UTF-8) or a new
document; both are byte-deterministic for fixed inputs and flags.

Exit codes: 0 success, 1 invalid input (a usage error included), 2 a bounded
search found nothing.
A searching subcommand's run draws from one node budget: ``--budget``, else
a tower-config's ``budget``, else ``GFGCOVER_BUDGET``, else the library's
default; a budget below 1 is invalid input.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import re
import sys
from typing import Dict, List, Optional

import yaml
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

try:
    from yaml import CSafeDumper as _Dumper, CSafeLoader as _Loader
except ImportError:  # PyYAML built without libyaml
    from yaml import SafeDumper as _Dumper, SafeLoader as _Loader

from .cosets import CosetTable, elevations
from .covers import (
    ElevationRef,
    PrecoverMorphism,
    TorsionPiece,
    TowerBounds,
    _cover_degree,
    _spans,
    build_tower,
    chain,
    check_bounds,
    complete,
    enumerate_covers,
    find_torsion_piece,
    validate_cover,
    validate_precover,
)
from .errors import Budget, BudgetExceededError
from .gog import (
    GraphOfGroups,
    SerreGraph,
    euler_characteristic,
    ensure_valid,
    reverse_edge,
)
from .homology import _check_prime, h1, p_rank
from .words import Word

FORMAT_VERSION = 1
BUDGET_VAR = "GFGCOVER_BUDGET"


class SchemaError(ValueError):
    """A document violates the schema; the message names the field."""


def _fail(path: str, message: str) -> None:
    raise SchemaError("%s: %s" % (path, message))


# A field's path is given as a str, or as a format and its arguments, so that
# the field checks below format a path only when they name it in an error.
def _path(where) -> str:
    return where if where.__class__ is str else where[0] % where[1:]


def _expect(data, typ: type, where):
    # bool subclasses int, but a YAML true/false is never a count or a letter.
    if data.__class__ is typ or isinstance(data, typ) and data.__class__ is not bool:
        return data
    _fail(_path(where), "expected %s, got %s" % (typ.__name__, type(data).__name__))


def _get(data: dict, key: str, typ: type, where, default=_fail):
    value = data.get(key, _fail)
    if value.__class__ is typ:
        return value
    if value is _fail:
        if default is not _fail:
            return default
        _fail(_path(where), "missing field %r" % key)
    return _expect(value, typ, "%s.%s" % (_path(where), key))


def _word(data, rank: int, where) -> Word:
    letters = _expect(data, list, where)
    for i, a in enumerate(letters):
        if a.__class__ is not int:
            _expect(a, int, "%s[%d]" % (_path(where), i))
        if a == 0 or abs(a) > rank:
            _fail("%s[%d]" % (_path(where), i), "letters must be nonzero, magnitude <= %d" % rank)
    try:
        return Word(tuple(letters), rank)
    except ValueError as exc:
        _fail(_path(where), str(exc))


def _table(data, rank: int, where) -> CosetTable:
    rows = _expect(data, list, where)
    if len(rows) != rank:
        _fail(_path(where), "need %d permutation rows, got %d" % (rank, len(rows)))
    for i, row in enumerate(rows):
        if row.__class__ is not list:
            _expect(row, list, "%s[%d]" % (_path(where), i))
        for j, a in enumerate(row):
            if a.__class__ is not int:
                _expect(a, int, "%s[%d][%d]" % (_path(where), i, j))
    try:
        return CosetTable(rank, tuple(map(tuple, rows)))
    except ValueError as exc:
        _fail(_path(where), str(exc))


# ---------------------------------------------------------------------------
# gog payload


def gog_from_payload(data: dict, path: str = "document") -> GraphOfGroups:
    ranks: Dict[str, int] = {}
    kinds: Dict[str, str] = {}
    names = []
    for i, item in enumerate(_get(data, "vertices", list, path)):
        where = ("%s.vertices[%d]", path, i)
        item = _expect(item, dict, where)
        name = _get(item, "name", str, where)
        kind = _get(item, "kind", str, where)
        if kind != "free" and kind != "cyclic":
            _fail(_path(where) + ".kind", "must be 'free' or 'cyclic'")
        names.append(name)
        ranks[name] = _get(item, "rank", int, where, default=1)
        kinds[name] = kind
    tau: Dict[str, str] = {}
    words: Dict[str, list] = {}
    order: Dict[str, int] = {}
    for i, item in enumerate(_get(data, "edges", list, path)):
        where = ("%s.edges[%d]", path, i)
        item = _expect(item, dict, where)
        name = _get(item, "name", str, where)
        if name in tau:
            _fail(_path(where), "edge %r listed twice" % name)
        to = _get(item, "to", str, where)
        if to not in ranks:
            _fail(_path(where) + ".to", "unknown vertex %r" % to)
        tau[name] = to
        words[name] = _get(item, "word", list, where)
        order[name] = i
    pairs = {}
    for name in tau:
        partner = reverse_edge(name)
        if partner not in tau:
            _fail(
                "%s.edges" % path,
                "edge %r has no involution partner %r" % (name, partner),
            )
        if not name.startswith("~"):
            pairs[name] = (tau[partner], tau[name])
    graph = SerreGraph(names, pairs)
    edge_words = {
        name: _word(words[name], ranks[tau[name]], ("%s.edges[%d].word", path, order[name]))
        for name in tau
    }
    base = _get(data, "base_vertex", str, path)
    g = GraphOfGroups(graph, ranks, kinds, edge_words, base)
    try:
        ensure_valid(g)  # marks g valid, so a morphism over it does not walk it again
    except ValueError as exc:
        _fail(path, str(exc))
    return g


def gog_to_payload(g: GraphOfGroups) -> dict:
    vertices = []
    for v in g.graph.vertices:
        item = {"name": v, "kind": g.vertex_kind[v]}
        if g.vertex_kind[v] == "free":
            item["rank"] = g.rank(v)
        vertices.append(item)
    edges = [
        {"name": e, "to": g.graph.tau(e), "word": list(g.edge_word(e).letters)}
        for e in g.graph.oriented_edges()
    ]
    return {"vertices": vertices, "base_vertex": g.base_vertex, "edges": edges}


# ---------------------------------------------------------------------------
# morphism payload


def _ref_from_payload(data: dict, where) -> ElevationRef:
    return ElevationRef(
        _get(data, "vertex", str, where),
        _get(data, "edge", str, where),
        _get(data, "least", int, where),
    )


def _ref_to_payload(ref: ElevationRef) -> dict:
    return {"vertex": ref.vertex, "edge": ref.edge, "least": ref.least}


def morphism_from_payload(
    data: dict, base: GraphOfGroups, path: str = "document.morphism"
) -> PrecoverMorphism:
    data = _expect(data, dict, path)
    vertex_map: Dict[str, str] = {}
    vertex_data: Dict[str, CosetTable] = {}
    cyclic_index: Dict[str, int] = {}
    for i, item in enumerate(_get(data, "vertices", list, path)):
        where = ("%s.vertices[%d]", path, i)
        item = _expect(item, dict, where)
        name = _get(item, "name", str, where)
        over = _get(item, "over", str, where)
        if over not in base.graph.vertices:
            _fail(_path(where) + ".over", "unknown base vertex %r" % over)
        vertex_map[name] = over
        if base.vertex_kind[over] == "free":
            vertex_data[name] = _table(
                _get(item, "table", list, where), base.rank(over),
                ("%s.vertices[%d].table", path, i),
            )
        else:
            cyclic_index[name] = _get(item, "index", int, where)
    pairs = {}
    for i, item in enumerate(_get(data, "edges", list, path)):
        where = ("%s.edges[%d]", path, i)
        item = _expect(item, dict, where)
        name = _get(item, "name", str, where)
        pairs[name] = (
            _get(item, "over", str, where),
            _ref_from_payload(_get(item, "fwd", dict, where), ("%s.edges[%d].fwd", path, i)),
            _ref_from_payload(_get(item, "bwd", dict, where), ("%s.edges[%d].bwd", path, i)),
        )
    basepoint = _get(data, "basepoint", str, path, default=None)
    try:
        return PrecoverMorphism(
            base, vertex_map, vertex_data, cyclic_index, pairs, basepoint=basepoint
        )
    except ValueError as exc:
        _fail(path, str(exc))


def morphism_to_payload(m: PrecoverMorphism) -> dict:
    vertices = []
    for v in sorted(m.vertex_map):
        item = {"name": v, "over": m.vertex_map[v]}
        if v in m.vertex_data:
            item["table"] = [list(row) for row in m.vertex_data[v].action]
        else:
            item["index"] = m.cyclic_index[v]
        vertices.append(item)
    edges = [
        {
            "name": q,
            "over": m.pair_spec[q][0],
            "fwd": _ref_to_payload(m.pair_spec[q][1]),
            "bwd": _ref_to_payload(m.pair_spec[q][2]),
        }
        for q in sorted(m.pair_spec)
    ]
    return {
        "vertices": vertices,
        "basepoint": m.basepoint,
        "edges": edges,
    }


# ---------------------------------------------------------------------------
# documents

_DECIMAL = re.compile(r"-?[1-9][0-9]*|0").fullmatch
# A name PyYAML writes and reads as a plain string unless its text resolves
# to another type ("yes", "null"), which the safe resolver decides: it has no
# path resolvers, so the tag of a plain scalar depends on its text alone.
_BARE = re.compile(r"[A-Za-z_~][A-Za-z0-9_.@#+~-]*").fullmatch
_STR_TAG = "tag:yaml.org,2002:str"
_RESOLVE = Resolver().resolve
# PyYAML's best width: past it the emitter may break a flow collection.
_WIDTH = 80
# The classes of a scalar written plain, and of any value written directly.
_SCALARS = {int, str}
_NODES = {int, str, list, dict}


class _Refused(Exception):
    """The text or value lies outside the subset written and read directly."""


@functools.lru_cache(maxsize=4096)
def _plain(value) -> bool:
    """Whether an int or str is written and read as its plain text: any
    int, and a bare name."""
    return value.__class__ is int or (
        bool(_BARE(value)) and _RESOLVE(ScalarNode, value, (True, False)) == _STR_TAG)


@functools.lru_cache(maxsize=4096)
def _token(text: str):
    """The value of a plain scalar of the subset: a decimal int or a bare name."""
    if _DECIMAL(text):
        return int(text)
    if _plain(text):
        return text
    raise _Refused


def _dump_direct(data: dict) -> str:
    """``data`` as PyYAML's safe dumper writes it (``sort_keys=False,
    default_flow_style=None``), for a mapping of ints, bare names, lists and
    dicts, no container twice and no line past _WIDTH.  A collection of
    scalars is one flow line; a block sequence under a key is indentless."""
    if data.__class__ is not dict:
        raise _Refused
    lines: List[str] = []
    _put(lines, set(), data, "", 0, True)
    if max(map(len, lines)) > _WIDTH:
        raise _Refused
    lines.append("")
    return "\n".join(lines)


def _put(lines: List[str], seen: set, value, head: str, indent: int, compact: bool) -> None:
    """Append to ``lines`` a list or dict written after ``head``: a "key:"
    or, when compact, a dash prefix its first entry continues.  Block
    entries sit at indent; ``seen`` holds the ids of the containers written
    so far."""
    if id(value) in seen:  # PyYAML would write an anchor and an alias
        raise _Refused
    seen.add(id(value))
    is_list = value.__class__ is list
    children = value if is_list else value.values()
    kinds = set(map(type, children))
    if not kinds <= _NODES or not is_list and not (
            set(map(type, value)) <= _SCALARS and all(map(_plain, value))):
        raise _Refused
    if kinds <= _SCALARS:  # one flow line
        if not all(map(_plain, children)):
            raise _Refused
        if is_list:
            text = "[" + ", ".join(map(str, value)) + "]"
        else:
            text = "{" + ", ".join(map("%s: %s".__mod__, value.items())) + "}"
        lines.append(head + text if compact else head + " " + text)
        return
    pad = " " * indent
    if compact:
        lead = head
    else:
        lines.append(head)
        lead = pad
    if is_list:
        for child in value:
            if child.__class__ is list or child.__class__ is dict:
                _put(lines, seen, child, lead + "- ", indent + 2, True)
            elif _plain(child):
                lines.append("%s- %s" % (lead, child))
            else:
                raise _Refused
            lead = pad
    else:
        for key, child in value.items():
            if child.__class__ is list:
                _put(lines, seen, child, "%s%s:" % (lead, key), indent, False)
            elif child.__class__ is dict:
                _put(lines, seen, child, "%s%s:" % (lead, key), indent + 2, False)
            elif _plain(child):
                lines.append("%s%s: %s" % (lead, key, child))
            else:
                raise _Refused
            lead = pad


def _inline(text: str):
    """The value of a one-line scalar or flow collection of the subset."""
    if text[-1] == "]" and text[0] == "[":
        return list(map(_token, text[1:-1].split(", "))) if len(text) > 2 else []
    if text[-1] != "}" or text[0] != "{":
        return _token(text)
    out = {}
    for item in text[1:-1].split(", ") if len(text) > 2 else ():
        k, sep, v = item.partition(": ")
        k = _token(k)
        if not sep or k in out:
            raise _Refused
        out[k] = _token(v)
    return out


def _load_direct(text: str):
    """The value of a text in the subset _dump_direct writes, plus blank
    lines and full-line comments; raises _Refused on anything else.

    One pass over the lines with a stack of open block collections: ``top``
    is the innermost, at column ``at``, and ``stack`` holds the ones around
    it.  A line's leading "- " entries each open a collection two columns
    in, and ``pending`` is the key of a "key:" line in ``top`` whose block
    value the next line opens."""
    stack = []
    top = root = pending = None
    at = 0
    for line in text.split("\n"):
        body = line.lstrip(" ")
        if not body:
            continue
        col = len(line) - len(body)
        dashes = 0
        if body.startswith("- "):
            dashes = 1
            while body.startswith("- ", 2 * dashes):
                dashes += 1
            body = body[2 * dashes:]
            if not body:
                raise _Refused
        elif body[0] == "#":  # a comment line, if it is printable ASCII
            if body.isascii() and body.isprintable():
                continue
            raise _Refused
        key = None
        if body[0] not in "[{":
            head, sep, rest = body.partition(": ")
            if sep:
                if not rest:
                    raise _Refused
                key, body = head, rest
            elif body[-1] == ":":
                key, body = body[:-1], None
        if pending is not None:  # a block value: indented, or an indentless sequence
            if col != at + 2 and (col != at or not dashes):
                raise _Refused
            child = top[pending] = [] if dashes else {}
            pending = None
            stack.append((top, at))
            top, at = child, col
        elif top is None:
            if col or root is not None:
                raise _Refused
            if not dashes and key is None:  # a flow collection on one line
                if body[0] not in "[{":
                    raise _Refused
                root = _inline(body)
                continue
            root = top = [] if dashes else {}
        while col < at or col == at and not dashes and top.__class__ is list:
            if not stack:
                raise _Refused
            top, at = stack.pop()
        if col > at:
            raise _Refused
        if dashes:
            if top.__class__ is not list:
                raise _Refused
            if key is None:
                dashes -= 1  # the last entry is the line's flow value or scalar
            for n in range(dashes, 0, -1):  # a list per further "- ", a mapping for a key
                child = [] if n > 1 or key is None else {}
                top.append(child)
                stack.append((top, at))
                top = child
                at += 2
            if key is None:
                top.append(_inline(body))
                continue
        elif key is None:
            raise _Refused
        key = _token(key)
        if key in top:
            raise _Refused
        if body is None:
            pending = key
        else:
            top[key] = _inline(body)
    if root is None or pending is not None:
        raise _Refused
    return root


def load_document(path: str) -> dict:
    """The document at ``path``.  A text in the subset that save_document
    writes directly is parsed directly; any other goes to PyYAML's safe
    loader, named by ``path`` in its error marks."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise SchemaError("%s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise SchemaError("%s: %s" % (path, exc))
    if "\r" in text:  # read line ends as text mode does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = _load_direct(text)
    except _Refused:
        stream = io.StringIO(text)
        stream.name = path  # PyYAML's error marks name the stream
        try:
            data = yaml.load(stream, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise SchemaError("%s: %s" % (path, exc))
    data = _expect(data, dict, path)
    version = _get(data, "format_version", int, path)
    if version != FORMAT_VERSION:
        _fail(path + ".format_version", "unknown format_version %r" % version)
    kind = _get(data, "kind", str, path)
    if kind not in ("gog", "morphism", "torsion-piece", "tower-config"):
        _fail(path + ".kind", "unknown kind %r" % kind)
    return data


def save_document(data: dict) -> str:
    """``data`` as PyYAML's ``safe_dump(data, sort_keys=False,
    default_flow_style=None)`` writes it: directly when _dump_direct can,
    else through PyYAML."""
    try:
        return _dump_direct(data)
    except _Refused:
        return yaml.dump(data, Dumper=_Dumper, sort_keys=False, default_flow_style=None)


def document_for_morphism(m: PrecoverMorphism) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "morphism",
        "base": gog_to_payload(m.base),
        "morphism": morphism_to_payload(m),
    }


def document_for_piece(piece: TorsionPiece) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "torsion-piece",
        "prime": piece.prime,
        "c1": piece.c1,
        "c2": piece.c2,
        "base": gog_to_payload(piece.morphism.base),
        "morphism": morphism_to_payload(piece.morphism),
    }


def parse_document(data: dict, path: str):
    """Turn a loaded document into library objects, per its kind."""
    kind = data["kind"]
    if kind == "gog":
        return gog_from_payload(data, path)
    base = gog_from_payload(_get(data, "base", dict, path), path + ".base")
    if kind == "tower-config":
        return base
    m = morphism_from_payload(
        _get(data, "morphism", dict, path), base, path + ".morphism"
    )
    if kind == "morphism":
        return m
    prime = _get(data, "prime", int, path)
    try:
        _check_prime(prime)
    except ValueError as exc:
        _fail(path + ".prime", str(exc))
    c1 = _get(data, "c1", str, path)
    c2 = _get(data, "c2", str, path)
    if c2 == c1:
        _fail(path + ".c2", "must differ from c1 (both are %r)" % c1)
    for v in (c1, c2):
        if v not in m.cyclic_index:
            _fail(path, "boundary vertex %r is not a cyclic lift" % v)
    incident = [d for d, ref in m.edge_assignment.items() if ref.vertex == c1]
    if len(incident) != 1:
        _fail(path + ".c1", "must carry exactly one incident edge")
    # The certificate is computed when read, on a connected total only; a
    # piece whose total is not is refused here, as computing it would.
    if not _spans(m):
        raise ValueError("homology of a disconnected graph of groups is per component")
    return TorsionPiece(m, c1, c2, prime)


# ---------------------------------------------------------------------------
# subcommands


def _budget(
    flag: Optional[int], config: Optional[dict] = None, path: str = ""
) -> Optional[Budget]:
    """The budget set by ``--budget``, else by the tower-config's ``budget``,
    else by ``GFGCOVER_BUDGET``; None when none of them is set."""
    if flag is not None:
        cap, source = flag, "--budget"
    elif config is not None and "budget" in config:
        cap, source = _get(config, "budget", int, path), path + ".budget"
    elif BUDGET_VAR in os.environ:
        raw, source = os.environ[BUDGET_VAR], BUDGET_VAR
        try:
            cap = int(raw)
        except ValueError:
            raise SchemaError("%s: expected an integer, got %r" % (source, raw))
    else:
        return None
    try:
        return Budget(cap)
    except ValueError as exc:
        raise SchemaError("%s: %s" % (source, exc))


def _print_csv(header: List[str], rows: List[List[str]]) -> None:
    out = sys.stdout
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(row) + "\n")


def _word_cell(w: Word) -> str:
    return " ".join(str(a) for a in w.letters)


def cmd_validate(args, obj, data) -> int:
    # ``gog_from_payload`` has refused every invalid gog already.
    problems = []
    if isinstance(obj, TorsionPiece):
        problems = validate_precover(obj.morphism)
        if p_rank(obj.certificate, obj.prime) < 1:
            problems = problems + [
                "certificate has no %d-torsion" % obj.prime
            ]
    elif not isinstance(obj, GraphOfGroups):
        problems = validate_precover(obj)
        if not problems:
            hangings = len(obj.hanging)
            if hangings:
                print("precover with %d hanging slots" % hangings)
    for p in problems:
        print(p)
    if problems:
        return 1
    print("ok")
    return 0


def cmd_h1(args, obj, data) -> int:
    print(h1(obj.morphism if isinstance(obj, TorsionPiece) else obj))
    return 0


def cmd_elevations(args, g, data) -> int:
    v = args.vertex
    if g.vertex_kind.get(v) != "free":
        raise SchemaError("--vertex: %r is not a free vertex" % v)
    try:
        rows = yaml.load(args.table, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise SchemaError("--table: %s" % exc)
    table = _table(rows, g.rank(v), "--table")
    out = []
    for e in g.graph.ends(v):
        for el in elevations(table, g.edge_word(e)):
            out.append(
                [e, str(el.degree), str(el.cycle[0]), _word_cell(el.rep),
                 _word_cell(el.local.canonical)]
            )
    _print_csv(["edge", "degree", "least", "rep", "local"], out)
    return 0


def cmd_enumerate_covers(args, g, data) -> int:
    rows = []
    for m in enumerate_covers(g, args.max_index, _budget(args.budget)):
        problems = validate_cover(m)
        if problems:
            raise AssertionError("enumerated cover failed validation: %s" % problems)
        rows.append(
            [str(_cover_degree(m)), str(euler_characteristic(m)), str(h1(m))]
        )
    _print_csv(["degree", "chi", "h1"], rows)
    return 0


def cmd_torsion_piece(args, g, data) -> int:
    piece = find_torsion_piece(g, args.prime, args.max_index, _budget(args.budget))
    if piece is None:
        print("no torsion piece within index %d" % args.max_index, file=sys.stderr)
        return 2
    sys.stdout.write(save_document(document_for_piece(piece)))
    return 0


def cmd_chain(args, piece, data) -> int:
    out = chain(piece, args.copies)
    sys.stdout.write(save_document(document_for_morphism(out)))
    return 0


def cmd_complete(args, m, data) -> int:
    out = complete(m, args.bound, _budget(args.budget))
    if out is None:
        print("no completion within added index %d" % args.bound, file=sys.stderr)
        return 2
    sys.stdout.write(save_document(document_for_morphism(out)))
    return 0


def _bounds(fields: dict, path: str) -> TowerBounds:
    """TowerBounds from name -> value overrides, each value an integer in
    the field's range."""
    allowed = set(TowerBounds.FIELDS)
    bad = set(fields) - allowed
    if bad:
        _fail(path, "unknown fields %s; allowed %s" % (sorted(bad), sorted(allowed)))
    for key, value in fields.items():
        _expect(value, int, "%s.%s" % (path, key))
        try:
            TowerBounds(**{key: value})
        except ValueError as exc:
            _fail("%s.%s" % (path, key), str(exc))
    return TowerBounds(**fields)


def _parse_bounds(raw: Optional[str]) -> Optional[TowerBounds]:
    if raw is None:
        return None
    fields = {}
    for part in raw.split(","):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            _fail("--bounds", "expected comma-separated name=value pairs")
        try:
            fields[key] = int(value)
        except ValueError:
            fields[key] = value  # rejected by _bounds with the field's name
    return _bounds(fields, "--bounds")


def cmd_tower(args, g, data) -> int:
    steps = args.steps
    primes = args.primes
    bounds = _parse_bounds(args.bounds)
    config = data if data["kind"] == "tower-config" else None
    budget = _budget(args.budget, config, args.file)
    if config is not None:
        if steps is None:
            steps = _get(data, "steps", int, args.file)
        if primes is None:
            primes = _get(data, "primes", list, args.file)
            for i, p in enumerate(primes):
                _expect(p, int, "%s.primes[%d]" % (args.file, i))
        if bounds is None and "bounds" in data:
            bounds = _bounds(_get(data, "bounds", dict, args.file), args.file + ".bounds")
    if steps is None or primes is None:
        raise SchemaError("tower needs --steps and --primes (or a tower-config document)")
    report = build_tower(g, primes, steps, bounds=bounds, budget=budget)
    sys.stdout.write(report.to_csv())
    return 0 if report.status == "ok" else 2


def _primes_flag(raw: str) -> List[int]:
    try:
        return [int(p) for p in raw.split(",") if p]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")


# name -> (handler, summary, document kind it reads, arguments after the
# input document).  main reads a plain argv straight from this table and any
# other through build_parser, then reads and parses the document and calls the
# handler with the parsed object and the document's mapping.  A kind of None
# takes any document; a tower-config stands for its base gog, and where a
# morphism is read a torsion piece stands for its morphism.
_SUBCOMMANDS = {
    "validate": (cmd_validate, "check a document of any kind: a torsion piece "
                 "with its certificate, a tower-config as its base gog", None, []),
    "h1": (cmd_h1, "print first homology", None, []),
    "elevations": (cmd_elevations, "CSV of elevations at a free vertex", "gog", [
        ("--vertex", dict(required=True)),
        ("--table", dict(required=True, help="permutation rows, e.g. '[[1,0],[0,1]]'")),
    ]),
    "enumerate-covers": (cmd_enumerate_covers, "CSV census of covers", "gog", [
        ("--max-index", dict(type=int, required=True)),
        ("--budget", dict(type=int)),
    ]),
    "torsion-piece": (cmd_torsion_piece, "search covers for a torsion piece", "gog", [
        ("--prime", dict(type=int, required=True)),
        ("--max-index", dict(type=int, required=True)),
        ("--budget", dict(type=int)),
    ]),
    "chain": (cmd_chain, "concatenate copies of a torsion piece", "torsion-piece", [
        ("--copies", dict(type=int, required=True)),
    ]),
    "complete": (cmd_complete, "extend a precover to a cover", "morphism", [
        ("--bound", dict(type=int, required=True)),
        ("--budget", dict(type=int)),
    ]),
    "tower": (cmd_tower, "run the tower builder, print its CSV report", "gog or tower-config", [
        ("--steps", dict(type=int)),
        ("--primes", dict(type=_primes_flag)),
        ("--bounds", dict(help="comma-separated name=value TowerBounds overrides")),
        ("--budget", dict(type=int)),
    ]),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, as all invalid input does; its
    subparsers are of its class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built from _SUBCOMMANDS.  main parses with it
    every argv that _plain_args does not read, so help, usage errors and
    their exit codes are argparse's; it is also the reference that the
    direct path is tested against."""
    parser = _Parser(
        prog="gfgcover",
        description="Covers, torsion pieces and tower reports for graphs of free groups with cyclic edges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, summary, _, arguments) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help="input document")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _plain_args(argv: List[str]) -> Optional[argparse.Namespace]:
    """The namespace build_parser gives a plain argv, read straight from
    _SUBCOMMANDS without building a parser; None for any other argv.

    A plain argv is a subcommand's name, then exactly one input path and
    whole long flags of that subcommand, each followed by a value; neither
    the path nor a value starts with "-", every required flag is given and
    every value converts with its flag's type.  A repeated flag keeps its
    last value, as in argparse.  Anything else (help, abbreviations,
    ``--flag=value``, ``--``, negative numbers, bad values, unknown or
    missing flags, extra paths) is left to argparse."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    fn, _, _, arguments = _SUBCOMMANDS[argv[0]]
    flags = dict(arguments)
    values = {flag[2:].replace("-", "_"): None for flag in flags}
    given, files = set(), []
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            files.append(word)
            continue
        value = next(words, "-")  # a missing value reads as one that starts with "-"
        if word not in flags or value.startswith("-"):
            return None
        convert = flags[word].get("type")
        try:
            values[word[2:].replace("-", "_")] = value if convert is None else convert(value)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        given.add(word)
    if len(files) != 1 or any(kw.get("required") and flag not in given for flag, kw in arguments):
        return None
    return argparse.Namespace(command=argv[0], file=files[0], fn=fn, **values)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; returns its exit code.  A plain argv is read
    straight from _SUBCOMMANDS (_plain_args) and any other by argparse
    (build_parser), with the same namespace, output and exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    reads = _SUBCOMMANDS[args.command][2]
    try:
        # A search bound is checked before the document is read, against the
        # range check_bounds gives it (--max-index is max_index).
        for key in ("max_index", "bound"):
            if key in args:
                try:
                    check_bounds(**{key: getattr(args, key)})
                except ValueError as exc:
                    raise SchemaError("--%s: %s" % (key.replace("_", "-"), exc))
        data = load_document(args.file)
        obj = parse_document(data, args.file)
        if reads == "morphism" and isinstance(obj, TorsionPiece):
            obj = obj.morphism
        types = {"gog": GraphOfGroups, "torsion-piece": TorsionPiece, "morphism": PrecoverMorphism}
        if reads is not None and not isinstance(obj, types[reads.split()[0]]):
            raise SchemaError("%s: %s needs a %s document" % (args.file, args.command, reads))
        return args.fn(args, obj, data)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
