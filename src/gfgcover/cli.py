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
document or file (see docs/format.md).
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
    build_tower,
    chain,
    check_bounds,
    complete,
    degree,
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
    reverse_edge,
    validate,
)
from .homology import _check_prime, h1, h1_mod_cyclic, p_rank
from .words import Word

FORMAT_VERSION = 1
BUDGET_VAR = "GFGCOVER_BUDGET"


class SchemaError(ValueError):
    """A document violates the schema; the message names the field."""


def _fail(path: str, message: str) -> None:
    raise SchemaError("%s: %s" % (path, message))


def _expect(data, typ: type, path: str):
    # bool subclasses int, but a YAML true/false is never a count or a letter.
    if not isinstance(data, typ) or isinstance(data, bool):
        _fail(path, "expected %s, got %s" % (typ.__name__, type(data).__name__))
    return data


def _get(data: dict, key: str, typ: type, path: str, default=_fail):
    if key not in data:
        if default is not _fail:
            return default
        _fail(path, "missing field %r" % key)
    return _expect(data[key], typ, "%s.%s" % (path, key))


def _word(data, rank: int, path: str) -> Word:
    letters = _expect(data, list, path)
    for i, a in enumerate(letters):
        if _expect(a, int, "%s[%d]" % (path, i)) == 0 or abs(a) > rank:
            _fail("%s[%d]" % (path, i), "letters must be nonzero, magnitude <= %d" % rank)
    return Word(tuple(letters), rank)


def _table(data, rank: int, path: str) -> CosetTable:
    rows = _expect(data, list, path)
    if len(rows) != rank:
        _fail(path, "need %d permutation rows, got %d" % (rank, len(rows)))
    perms = []
    for i, row in enumerate(rows):
        row = _expect(row, list, "%s[%d]" % (path, i))
        for j, a in enumerate(row):
            _expect(a, int, "%s[%d][%d]" % (path, i, j))
        perms.append(tuple(row))
    try:
        return CosetTable(rank, tuple(perms))
    except ValueError as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# gog payload


def gog_from_payload(data: dict, path: str = "document") -> GraphOfGroups:
    vertices = _get(data, "vertices", list, path)
    ranks: Dict[str, int] = {}
    kinds: Dict[str, str] = {}
    names = []
    for i, item in enumerate(vertices):
        vp = "%s.vertices[%d]" % (path, i)
        item = _expect(item, dict, vp)
        name = _get(item, "name", str, vp)
        kind = _get(item, "kind", str, vp)
        if kind not in ("free", "cyclic"):
            _fail(vp + ".kind", "must be 'free' or 'cyclic'")
        rank = _get(item, "rank", int, vp, default=1)
        names.append(name)
        ranks[name] = rank
        kinds[name] = kind
    edges = _get(data, "edges", list, path)
    tau: Dict[str, str] = {}
    words: Dict[str, list] = {}
    order: Dict[str, int] = {}
    for i, item in enumerate(edges):
        ep = "%s.edges[%d]" % (path, i)
        item = _expect(item, dict, ep)
        name = _get(item, "name", str, ep)
        if name in tau:
            _fail(ep, "edge %r listed twice" % name)
        to = _get(item, "to", str, ep)
        if to not in ranks:
            _fail(ep + ".to", "unknown vertex %r" % to)
        tau[name] = to
        words[name] = _get(item, "word", list, ep)
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
        name: _word(words[name], ranks[tau[name]], "%s.edges[%d].word" % (path, order[name]))
        for name in tau
    }
    base = _get(data, "base_vertex", str, path)
    g = GraphOfGroups(graph, ranks, kinds, edge_words, base)
    problems = validate(g)
    if problems:
        _fail(path, "; ".join(problems))
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


def _ref_from_payload(data, path: str) -> ElevationRef:
    data = _expect(data, dict, path)
    return ElevationRef(
        _get(data, "vertex", str, path),
        _get(data, "edge", str, path),
        _get(data, "least", int, path),
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
        vp = "%s.vertices[%d]" % (path, i)
        item = _expect(item, dict, vp)
        name = _get(item, "name", str, vp)
        over = _get(item, "over", str, vp)
        if over not in base.graph.vertices:
            _fail(vp + ".over", "unknown base vertex %r" % over)
        vertex_map[name] = over
        if base.vertex_kind[over] == "free":
            vertex_data[name] = _table(
                _get(item, "table", list, vp), base.rank(over), vp + ".table"
            )
        else:
            cyclic_index[name] = _get(item, "index", int, vp)
    pairs = {}
    for i, item in enumerate(_get(data, "edges", list, path)):
        ep = "%s.edges[%d]" % (path, i)
        item = _expect(item, dict, ep)
        name = _get(item, "name", str, ep)
        pairs[name] = (
            _get(item, "over", str, ep),
            _ref_from_payload(_get(item, "fwd", dict, ep), ep + ".fwd"),
            _ref_from_payload(_get(item, "bwd", dict, ep), ep + ".bwd"),
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
        "basepoint": m.total.base_vertex,
        "edges": edges,
    }


# ---------------------------------------------------------------------------
# documents

_STR_TAG = "tag:yaml.org,2002:str"
_DECIMAL = re.compile(r"-?[1-9][0-9]*|0").fullmatch
# A name PyYAML writes and reads as a plain string unless its text resolves
# to another type ("yes", "null"), which _plain_tag decides.
_BARE = re.compile(r"[A-Za-z_~][A-Za-z0-9_.@#+~-]*").fullmatch
# PyYAML's best width: past it the emitter may break a flow collection.
_WIDTH = 80
# A line of the direct subset: its indent, then a full-line comment, or
# block-entry dashes followed by "key:" and an optional inline value or by
# an inline value alone.  Groups 2-5 are None on a blank or comment line.
_LINE = re.compile(r"( *)(?:#[ -~]*|((?:- )*)(?:([-\w.@#+~]+):(?: (.+))?|(.+)))?").fullmatch


@functools.lru_cache(maxsize=4096)
def _plain_tag(value: str) -> str:
    # The safe resolver has no path resolvers, so the tag of a plain scalar
    # depends on its text alone.
    return Resolver().resolve(ScalarNode, value, (True, False))


class _Refused(Exception):
    """The text or value lies outside the subset written and read directly."""


@functools.lru_cache(maxsize=4096)
def _bare(text: str) -> bool:
    return bool(_BARE(text)) and _plain_tag(text) == _STR_TAG


def _scalar(value) -> Optional[str]:
    """The plain text of an int or bare-name str; None for a list or dict."""
    cls = value.__class__
    if cls is int:
        return str(value)
    if cls is str and _bare(value):
        return value
    if cls is list or cls is dict:
        return None
    raise _Refused


@functools.lru_cache(maxsize=4096)
def _token(text: str):
    """The value of a plain scalar of the subset: a decimal int or a bare name."""
    if _DECIMAL(text):
        return int(text)
    if _bare(text):
        return text
    raise _Refused


def _dump_direct(data: dict) -> str:
    """``data`` as PyYAML's safe dumper writes it (``sort_keys=False,
    default_flow_style=None``), for a mapping of ints, bare names, lists and
    dicts, no container twice and no line past _WIDTH.  A collection of
    scalars is one flow line; a block sequence under a key is indentless."""
    lines: List[str] = []
    seen = set()

    def put(value, head: str, indent: int, compact: bool) -> None:
        # Write a list or dict after ``head``: a "key:" or, when compact, a
        # dash prefix its first entry continues.  Block entries sit at indent.
        if id(value) in seen:  # PyYAML would write an anchor and an alias
            raise _Refused
        seen.add(id(value))
        is_list = value.__class__ is list
        if is_list:
            texts = [_scalar(x) for x in value]
            children = value
            flat = None not in texts
        else:
            keys = [_scalar(k) for k in value]
            texts = [_scalar(v) for v in value.values()]
            children = value.values()
            flat = None not in texts
            if flat:
                texts = ["%s: %s" % kv for kv in zip(keys, texts)]
        if flat:
            lines.append("%s%s%s%s%s" % (
                head, "" if compact else " ", "[" if is_list else "{",
                ", ".join(texts), "]" if is_list else "}"))
            return
        pad = " " * indent
        if compact:
            lead = head
        else:
            lines.append(head)
            lead = pad
        if is_list:
            for child, text in zip(children, texts):
                if text is None:
                    put(child, lead + "- ", indent + 2, True)
                else:
                    lines.append("%s- %s" % (lead, text))
                lead = pad
        else:
            for key, child, text in zip(keys, children, texts):
                if text is None:
                    put(child, "%s%s:" % (lead, key),
                        indent if child.__class__ is list else indent + 2, False)
                else:
                    lines.append("%s%s: %s" % (lead, key, text))
                lead = pad

    if data.__class__ is not dict:
        raise _Refused
    put(data, "", 0, True)
    if max(map(len, lines)) > _WIDTH:
        raise _Refused
    lines.append("")
    return "\n".join(lines)


def _load_direct(text: str):
    """The value of a text in the subset _dump_direct writes, plus blank
    lines and full-line comments; raises _Refused on anything else."""
    rows = []
    for line in text.split("\n"):
        m = _LINE(line)
        if m.group(2) is not None:
            indent, dashes, key, rest, value = m.groups()
            rows.append([len(indent), len(dashes) // 2, key, rest, value])
    if not rows or rows[0][0]:
        raise _Refused
    pos = 0

    def inline(text: str):
        inner = text[1:-1]
        if text[0] == "[" and text[-1] == "]":
            return [_token(t) for t in inner.split(", ")] if inner else []
        if text[0] != "{" or text[-1] != "}":
            return _token(text)
        out = {}
        for item in inner.split(", ") if inner else ():
            k, sep, v = item.partition(": ")
            k = _token(k)
            if not sep or k in out:
                raise _Refused
            out[k] = _token(v)
        return out

    def node(col: int):
        return sequence(col) if rows[pos][1] else mapping(col)

    def sequence(col: int) -> list:
        nonlocal pos
        out = []
        while pos < len(rows):
            row = rows[pos]
            if row[0] > col:
                raise _Refused
            if row[0] < col or not row[1]:
                break
            if row[1] == 1 and row[4] is not None:
                out.append(inline(row[4]))
                pos += 1
            else:  # a block collection starts on the entry's line
                row[0] += 2
                row[1] -= 1
                out.append(node(col + 2))
        return out

    def mapping(col: int) -> dict:
        nonlocal pos
        out = {}
        while pos < len(rows):
            indent, dashes, key, rest, _ = rows[pos]
            if indent < col:
                break
            if indent > col or dashes or key is None:
                raise _Refused
            key = _token(key)
            if key in out:
                raise _Refused
            pos += 1
            if rest is not None:
                out[key] = inline(rest)
            elif pos < len(rows) and rows[pos][0] == col and rows[pos][1]:
                out[key] = sequence(col)
            elif pos < len(rows) and rows[pos][0] == col + 2:
                out[key] = node(col + 2)
            else:  # a null value
                raise _Refused
        return out

    first = rows[0]
    if len(rows) == 1 and not first[1] and first[4] is not None and first[4][0] in "[{":
        return inline(first[4])
    data = node(0)
    if pos < len(rows):
        raise _Refused
    return data


def load_document(path: str) -> dict:
    """The document at ``path``.  A text in the subset that save_document
    writes directly is parsed directly; any other goes to PyYAML's safe
    loader, named by ``path`` in its error marks."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError("%s: %s" % (path, exc.strerror or exc))
    except UnicodeDecodeError as exc:
        raise SchemaError("%s: %s" % (path, exc))
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
    return TorsionPiece(m, c1, c2, prime, h1_mod_cyclic(m, [c1, c2]))


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
    if isinstance(obj, GraphOfGroups):
        problems = validate(obj)
    elif isinstance(obj, TorsionPiece):
        problems = validate_precover(obj.morphism)
        if p_rank(obj.certificate, obj.prime) < 1:
            problems = problems + [
                "certificate has no %d-torsion" % obj.prime
            ]
    else:
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
            [str(degree(m)), str(euler_characteristic(m.total)), str(h1(m))]
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
