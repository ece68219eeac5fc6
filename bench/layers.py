"""Per-layer metrics of a traced pass.

Layers are gfgcover's modules (words, cosets, gog, homology, covers, cli)
plus ``bench``, the benchmark-side time inside each job's root span.  For
each traced function the pass reports calls and self time, and where the
function can waste work, the share of useful outcomes.  Counts depend only
on the job list, so they repeat exactly between runs of one seed.
"""

from __future__ import annotations

from typing import Dict, List

from spans import LAYERS, ROOT, merge_counters

# (metric name, unit, better)
FUNCTION_METRICS = [
    ("covers.enumerate_covers.calls", "count", "lower"),
    ("covers.enumerate_covers.yielded", "count", "lower"),
    ("covers.enumerate_covers.self_s", "s", "lower"),
    ("covers.enumerate_covers.yielded_per_job", "count", "lower"),
    ("covers.isomorphic.calls", "count", "lower"),
    ("covers.isomorphic.true_frac", "ratio", "higher"),
    ("covers.isomorphic.self_s", "s", "lower"),
    ("covers.PrecoverMorphism.built", "count", "lower"),
    ("covers.PrecoverMorphism.self_s", "s", "lower"),
    ("covers.complete.calls", "count", "lower"),
    ("covers.complete.none_frac", "ratio", "lower"),
    ("covers.complete.self_s", "s", "lower"),
    ("covers.split_cyclic.calls", "count", "lower"),
    ("covers.split_cyclic.self_s", "s", "lower"),
    ("covers.find_torsion_piece.calls", "count", "lower"),
    ("covers.find_torsion_piece.hit_frac", "ratio", "higher"),
    ("covers.find_torsion_piece.self_s", "s", "lower"),
    ("covers.lift_word.calls", "count", "lower"),
    ("covers.lift_word.self_s", "s", "lower"),
    ("covers.build_tower.calls", "count", "lower"),
    ("covers.build_tower.ok_frac", "ratio", "higher"),
    ("covers.build_tower.self_s", "s", "lower"),
    ("cosets.elevations.calls", "count", "lower"),
    ("cosets.elevations.self_s", "s", "lower"),
    ("cosets.schreier.calls", "count", "lower"),
    ("cosets.schreier.hit_frac", "ratio", "higher"),
    ("cosets.schreier.self_s", "s", "lower"),
    ("cosets.enumerate_subgroups.yielded", "count", "lower"),
    ("cosets.enumerate_subgroups.self_s", "s", "lower"),
    ("cosets.prescribe_degrees.calls", "count", "lower"),
    ("cosets.prescribe_degrees.hit_frac", "ratio", "higher"),
    ("cosets.prescribe_degrees.self_s", "s", "lower"),
    ("cosets.rewrite.calls", "count", "lower"),
    ("cosets.rewrite.self_s", "s", "lower"),
    ("gog.abelianized_presentation.calls", "count", "lower"),
    ("gog.abelianized_presentation.self_s", "s", "lower"),
    ("gog.SerreGraph.star.calls", "count", "lower"),
    ("gog.SerreGraph.star.self_s", "s", "lower"),
    ("gog.SerreGraph.is_connected.calls", "count", "lower"),
    ("gog.SerreGraph.is_connected.self_s", "s", "lower"),
    ("gog.enumerate_closed_words.calls", "count", "lower"),
    ("gog.enumerate_closed_words.yielded", "count", "lower"),
    ("gog.enumerate_closed_words.self_s", "s", "lower"),
    ("homology.snf.calls", "count", "lower"),
    ("homology.snf.self_s", "s", "lower"),
    ("homology.snf.cells", "count", "lower"),
    ("homology.snf.max_cells", "count", "lower"),
    ("homology.h1.calls", "count", "lower"),
    ("homology.class_image.calls", "count", "lower"),
    ("homology.cokernel.calls", "count", "lower"),
    ("homology.ledger_check.calls", "count", "lower"),
    ("words.conj_canonical.calls", "count", "lower"),
    ("words.conj_canonical.self_s", "s", "lower"),
    ("words.free_reduce.calls", "count", "lower"),
    ("words.free_reduce.self_s", "s", "lower"),
    ("cli.load_document.calls", "count", "lower"),
    ("cli.load_document.self_s", "s", "lower"),
    ("cli.save_document.calls", "count", "lower"),
    ("cli.save_document.self_s", "s", "lower"),
    ("cli.save_document.bytes", "B", "lower"),
    ("cli.stdout_bytes", "B", "lower"),
]

LAYER_METRICS = [("%s.%s" % (layer, kind), unit, "lower")
                 for layer in LAYERS for kind, unit in (("self_s", "s"), ("share", "ratio"))]

TRACE_METRICS = [
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.jobs", "count", "lower"),
]

ALL_METRICS = FUNCTION_METRICS + LAYER_METRICS + TRACE_METRICS

# Counter keys: the hook that records a function's useful outcomes.
_FRACTIONS = {"true_frac": "true", "none_frac": "none", "hit_frac": "hit", "ok_frac": "ok"}


def _merge(traced: List[dict]):
    per_name: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, Dict[str, int]] = {}
    wall = spans = 0.0
    stdout_bytes = 0
    for r in traced:
        tr = r["result"].get("trace")
        if tr is None:
            continue
        wall += tr["wall"]
        spans += len(tr["spans"])
        for name, v in tr["per_name"].items():
            slot = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            slot["calls"] += v["calls"]
            slot["self_s"] += v["self_s"]
        for name, c in tr["counters"].items():
            merge_counters(counters.setdefault(name, {}), c)
        stdout_bytes += sum(len(s["stdout"].encode("utf-8")) for s in r["result"]["steps"])
    return per_name, counters, wall, spans, stdout_bytes


def per_layer(plain: List[dict], traced: List[dict]) -> Dict[str, dict]:
    """Metrics of the traced pass; ``plain`` is the untraced pass over the
    same jobs, for the tracing overhead.  Times are wall seconds, except
    that the overhead compares reference seconds (see ``calibrate.py``),
    so a drift in machine speed between the passes does not show in it."""
    per_name, counters, wall, spans, stdout_bytes = _merge(traced)
    untraced = sum(r["result"]["wall"] * r["result"]["factor"] for r in plain)
    traced_ref = sum(r["result"]["trace"]["wall"] * r["result"]["factor"]
                     for r in traced if "trace" in r["result"])
    jobs = len(traced)
    values: Dict[str, float] = {}
    for metric, _, _ in FUNCTION_METRICS:
        fn, _, kind = metric.rpartition(".")
        spans_of = per_name.get(fn, {"calls": 0, "self_s": 0.0})
        c = counters.get(fn, {})
        calls = c["created"] if "created" in c else spans_of["calls"]
        if kind in ("calls", "built"):
            values[metric] = calls
        elif kind == "self_s":
            values[metric] = spans_of["self_s"]
        elif kind in _FRACTIONS:
            if fn == "cosets.schreier":
                looked = c.get("cache_hits", 0) + c.get("cache_misses", 0)
                values[metric] = c.get("cache_hits", 0) / looked if looked else 0.0
            else:
                values[metric] = c.get(_FRACTIONS[kind], 0) / calls if calls else 0.0
        elif kind == "yielded_per_job":
            values[metric] = c.get("yielded", 0) / jobs
        elif metric == "cli.stdout_bytes":
            values[metric] = stdout_bytes
        else:
            values[metric] = c.get(kind, 0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, v in per_name.items():
        layer = "bench" if name == ROOT else name.split(".")[0]
        layer_self[layer] += v["self_s"]
    for layer in LAYERS:
        values["%s.self_s" % layer] = layer_self[layer]
        values["%s.share" % layer] = layer_self[layer] / wall if wall else 0.0
    values["trace.overhead_frac"] = traced_ref / untraced - 1.0
    values["trace.wall_s"] = wall
    values["trace.unaccounted_s"] = wall - sum(layer_self.values())
    values["trace.spans"] = spans
    values["trace.jobs"] = jobs
    units = {m: u for m, u, _ in ALL_METRICS}
    return {m: {"value": values[m], "unit": units[m]} for m, _, _ in ALL_METRICS}
