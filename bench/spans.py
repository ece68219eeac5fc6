"""Outside-in span tracing of gfgcover's public functions.

The tracer replaces each traced function, from outside the package, with a
wrapper that records a span (name, start, end, parent) around the call.
``from .x import f`` binds a function under several modules, so every
gfgcover module attribute that *is* the original is replaced, and methods
are replaced on their class.  A generator function is traced per
resumption: each ``next`` is one span, so time spent by the consumer
between items is not charged to the generator.

Spans stay in memory until the job ends.  A span's self time is its
duration minus the durations of its direct children; the self times of all
spans of a job add up to the job's root span, whose own self time is the
benchmark-side work (output capture and the files a pipeline writes).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Counter hooks map (args, result) to counter increments.


def _true(args, result):
    return {"true": 1 if result else 0}


def _none(args, result):
    return {"none": 1 if result is None else 0}


def _hit(args, result):
    return {"hit": 1 if result is not None else 0}


def _ok(args, result):
    return {"ok": 1 if result.status == "ok" else 0}


def _cells(args, result):
    cells = args[0].rows * args[0].cols
    return {"cells": cells, "max_cells": cells}


def _bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


# (layer, attribute path, kind, counter hook).  Kinds: "call", "gen"
# (generator function, one span per resumption), "init" (constructor).
TRACED: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("words", "free_reduce", "call", None),
    ("words", "conj_canonical", "call", None),
    ("cosets", "elevations", "call", None),
    ("cosets", "schreier", "call", None),
    ("cosets", "enumerate_subgroups", "gen", None),
    ("cosets", "prescribe_degrees", "call", _hit),
    ("cosets", "rewrite", "call", None),
    ("gog", "abelianized_presentation", "call", None),
    ("gog", "SerreGraph.star", "call", None),
    ("gog", "SerreGraph.is_connected", "call", None),
    ("gog", "enumerate_closed_words", "gen", None),
    ("homology", "snf", "call", _cells),
    ("homology", "h1", "call", None),
    ("homology", "class_image", "call", None),
    ("homology", "cokernel", "call", None),
    ("homology", "ledger_check", "call", None),
    ("covers", "enumerate_covers", "gen", None),
    ("covers", "isomorphic", "call", _true),
    ("covers", "PrecoverMorphism", "init", None),
    ("covers", "complete", "call", _none),
    ("covers", "split_cyclic", "call", None),
    ("covers", "find_torsion_piece", "call", _hit),
    ("covers", "lift_word", "call", None),
    ("covers", "build_tower", "call", _ok),
    ("cli", "main", "call", None),
    ("cli", "load_document", "call", None),
    ("cli", "save_document", "call", _bytes),
]

ROOT = "bench.job"
LAYERS = ("words", "cosets", "gog", "homology", "covers", "cli", "bench")


def merge_counters(into: Dict[str, int], increments: Dict[str, int]) -> None:
    """Add counters into ``into``; a ``max_`` counter keeps the largest value."""
    for k, v in increments.items():
        into[k] = max(into.get(k, 0), v) if k.startswith("max_") else into.get(k, 0) + v


def span_name(layer: str, path: str) -> str:
    return "%s.%s" % (layer, path)


class Tracer:
    """Records spans of the traced functions while ``recording`` is open."""

    def __init__(self):
        self.names = [ROOT] + [span_name(layer, path) for layer, path, _, _ in TRACED]
        self.spans: List[list] = []  # [name index, parent index, start, end]
        self.counters: Dict[str, Dict[str, int]] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0])
        self._stack.append(len(self.spans) - 1)

    def _exit(self) -> None:
        self.spans[self._stack.pop()][3] = perf_counter()

    def _count(self, name: str, increments: Dict[str, int]) -> None:
        merge_counters(self.counters.setdefault(name, {}), increments)

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, fn, idx: int, name: str, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                tracer._count(name, hook(args, result))
            return result

        return traced

    def _wrap_gen(self, fn, idx: int, name: str):
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            tracer._count(name, {"created": 1})
            try:
                while True:
                    tracer._enter(idx)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer._count(name, {"yielded": 1})
                    yield item
            finally:
                it.close()

        return traced

    # -- installation ------------------------------------------------------

    def _install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "gfgcover" or n.startswith("gfgcover.")) and m is not None]
        for i, (layer, path, kind, hook) in enumerate(TRACED):
            idx = i + 1
            name = self.names[idx]
            module = importlib.import_module("gfgcover." + layer)
            owner_path, _, attr = path.rpartition(".")
            if kind == "init":
                cls = getattr(module, path)
                self._patch(cls, "__init__", self._wrap_call(cls.__init__, idx, name, None))
                continue
            if owner_path:
                cls = getattr(module, owner_path)
                self._patch(cls, attr, self._wrap_call(vars(cls)[attr], idx, name, hook))
                continue
            original = getattr(module, attr)
            if kind == "gen":
                wrapper = self._wrap_gen(original, idx, name)
            else:
                wrapper = self._wrap_call(original, idx, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def recording(self):
        """Patch the traced functions and open the job's root span."""
        from gfgcover import cosets

        self._install()
        self._enter(0)
        try:
            yield
        finally:
            self._exit()
            self._uninstall()
            info = cosets.schreier.cache_info()
            self._count(span_name("cosets", "schreier"),
                        {"cache_hits": info.hits, "cache_misses": info.misses})

    # -- results -------------------------------------------------------------

    def export(self) -> dict:
        """Per-name calls and self time, counters, and the raw spans."""
        n = len(self.spans)
        child = [0.0] * n
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: Dict[str, Dict[str, float]] = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            slot = per_name.setdefault(self.names[name], {"calls": 0, "self_s": 0.0})
            slot["self_s"] += (end - start) - child[i]
            slot["calls"] += 1
        t0 = self.spans[0][2] if self.spans else 0.0
        return {
            "per_name": per_name,
            "counters": self.counters,
            "wall": (self.spans[0][3] - t0) if self.spans else 0.0,
            "names": self.names,
            "spans": [[i, p, round(s - t0, 9), round(e - t0, 9)]
                      for i, p, s, e in self.spans],
        }
