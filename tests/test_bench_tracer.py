"""The benchmark's span tracer names gfgcover functions by string; check
that every name still resolves, so a refactor cannot silently break
``bench/run.py --trace 1``."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_traced_entries_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrong = []
    for layer, path, kind, _ in spans.TRACED:
        target = importlib.import_module("gfgcover." + layer)
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if kind == "gen":
            ok = inspect.isgeneratorfunction(target)
        elif kind == "init":
            ok = inspect.isclass(target)
        else:
            ok = callable(target) and not inspect.isgeneratorfunction(target)
        if not ok:
            wrong.append((layer, path, kind))
    assert spans.TRACED and wrong == []
