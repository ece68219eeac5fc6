"""Cross-check the ROADMAP baseline table and write the results file.

    python3 bench/baseline.py        # about four minutes

Runs every row of the ROADMAP baseline once, each in a child forked after
import so it starts with empty caches, and writes
``bench/results/BENCH_baseline.json``.  Counts and outcomes must match the
ROADMAP exactly (34 and 88 covers for seeded_torsion at index 4 and 5);
timings are reported beside the ROADMAP figures and not asserted.  The two
long rows (rank-3 prescription and the two-step tower) run here once and
are kept out of the repeated workloads.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from time import perf_counter

import run


def _rows():
    from gfgcover import cli
    from gfgcover.cosets import prescribe_degrees
    from gfgcover.covers import build_tower, enumerate_covers, find_torsion_piece
    from gfgcover.words import Word

    def fixture(name):
        return cli.gog_from_payload(cli.load_document(os.path.join(run.ROOT, "fixtures", name + ".yaml")))

    def census(name, index):
        return lambda: "%d covers" % sum(1 for _ in enumerate_covers(fixture(name), index))

    def piece():
        found = find_torsion_piece(fixture("seeded_torsion"), 5, 4)
        return "none found" if found is None else "found"

    def prescribe(rank):
        res = prescribe_degrees(rank, [Word((1, 2, -1, -2), rank)], [2])
        return "none" if res is None else "scale %d, %s" % (res.scale, res.quotient)

    def tower(primes):
        status = build_tower(fixture("seeded_torsion"), primes, len(primes)).status
        return ":".join(status.split(":")[:2])

    # (run, ROADMAP figure, expected outcome or None, callable)
    return [
        ("enumerate_covers seeded_torsion, index 4", "0.19 s, 34 covers", "34 covers",
         census("seeded_torsion", 4)),
        ("enumerate_covers seeded_torsion, index 5", "4.2-5.2 s, 88 covers", "88 covers",
         census("seeded_torsion", 5)),
        ("enumerate_covers hnn_f1, index 6", "0.65 s", None, census("hnn_f1", 6)),
        ("enumerate_covers genus2, index 3", "0.30 s", None, census("genus2", 3)),
        ("find_torsion_piece seeded, p=5, index 4", "1.6 s, none found", "none found", piece),
        ("prescribe_degrees of [a,b] to degree 2, rank 2", "0.83 s", None,
         lambda: prescribe(2)),
        ("prescribe_degrees of [a,b] to degree 2, rank 3", "71 s", None,
         lambda: prescribe(3)),
        ("build_tower seeded, one step", "0.21 s", "ok", lambda: tower([2])),
        ("build_tower seeded, primes 2,3, two steps", "102 s, then failed:assembly",
         "failed:assembly", lambda: tower([2, 3])),
    ]


def main() -> int:
    run.import_program()
    import runner

    rows = []
    for name, roadmap, expected, fn in _rows():
        def timed(fn=fn):
            runner.clear_caches()
            start = perf_counter()
            outcome = fn()
            return {"seconds": perf_counter() - start, "outcome": outcome}

        res = runner.forked(timed)
        if "error" in res:
            raise SystemExit("%s raised:\n%s" % (name, res["error"]))
        match = expected is None or res["outcome"] == expected
        rows.append({"run": name, "roadmap": roadmap, "seconds": round(res["seconds"], 4),
                     "outcome": res["outcome"], "expected_outcome": expected, "match": match})
        print("%-50s %9.3f s  %-32s roadmap: %s%s" % (
            name, res["seconds"], res["outcome"], roadmap, "" if match else "  MISMATCH"))
    results = {
        "what": "ROADMAP baseline cross-check: counts and outcomes asserted, timings reported",
        "machine": {"python": platform.python_version(), "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "rows": rows,
    }
    os.makedirs(os.path.join(run.BENCH, "results"), exist_ok=True)
    path = os.path.join(run.BENCH, "results", "BENCH_baseline.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
        fh.write("\n")
    return 0 if all(r["match"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
