"""Every definition in the package is named by the package or the benchmark.

Each function, class and non-dunder method defined in a ``gfgcover``
module must be named somewhere else: as a NAME token anywhere in the
package source beyond its own definitions, or anywhere in the text of the
files under ``bench/``, whose span tables name the functions they trace
inside strings.  Code that only tests call belongs in ``tests/_helpers.py``
or ``tests/_oracles.py``.

This is a name scan, not a call graph.  Two definitions with one name hide
each other: a method nothing calls passes while a function of its name is
named, and so does any definition whose name a local variable or another
type's attribute shares.
"""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gfgcover"
BENCH = ROOT / "bench"


def _defined(node: ast.AST, prefix: str = ""):
    """(qualified name, bare name) of every function, class and non-dunder
    method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield prefix + child.name, child.name
            yield from _defined(child, prefix + child.name + ".")
        else:
            yield from _defined(child, prefix)


def _bench_text() -> str:
    """The text of every file under bench/, past the hidden folders the
    benchmark writes its traces to."""
    texts = []
    for path in sorted(BENCH.rglob("*")):
        if path.is_file() and not any(p.startswith(".") for p in path.relative_to(BENCH).parts):
            try:
                texts.append(path.read_text(encoding="utf-8"))
            except UnicodeDecodeError:
                continue
    return "\n".join(texts)


def test_every_src_definition_has_a_caller():
    definitions = []
    defined, named = Counter(), Counter()
    for path in sorted(SRC.glob("*.py")):
        with tokenize.open(path) as f:
            named.update(
                tok.string for tok in tokenize.generate_tokens(f.readline)
                if tok.type == tokenize.NAME
            )
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, name in _defined(tree):
            definitions.append((path.stem + "." + qualname, name))
            defined[name] += 1
    bench = _bench_text()
    uncalled = [
        qualname for qualname, name in definitions
        if named[name] <= defined[name] and not re.search(r"\b%s\b" % re.escape(name), bench)
    ]
    assert definitions
    assert uncalled == [], "no caller in src or bench: " + ", ".join(uncalled)
