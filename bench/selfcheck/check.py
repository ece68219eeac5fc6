"""Tiny-size self-check of the benchmark.

    python3 bench/selfcheck/check.py      # about 20 seconds

For each workload it runs a few jobs once untraced and twice traced, and
checks that:

  * every output check passes, and a tampered output is caught;
  * the self times of a traced job's spans add up to its traced wall time;
  * every per-layer count repeats exactly between the two traced passes;
  * BENCHMARK.json names exactly the metrics the benchmark prints.

Exits non-zero and names the problem when a check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

# Jobs per workload, by shape: a quick and a slow outcome of each kind.
PICK = {
    "census": ("fixture:seeded_torsion/index4", "two_vertex:T1/index3"),
    "torsion": ("fixture:seeded_torsion/p2", "amalgam:B/p3"),
    "tower": ("amalgam:C/primes2", "amalgam:A/primes2"),
    "quotients": ("prescribe:1 2/degree3", "prescribe:1 2 -1 -2/degree2", "elevations:A"),
}
TIMING_SLACK_S = 1e-3


def fail(message: str) -> None:
    raise SystemExit("selfcheck failed: " + message)


def check_workload(workload: str) -> None:
    import checks
    import layers
    from spans import Tracer

    work = os.path.join(run.WORK, "selfcheck-%d" % os.getpid())
    try:
        jobs, _ = run.setup(workload, run.DEFAULT_SEED, work)
        jobs = [j for j in jobs if j["shape"] in PICK[workload]]
        if len(jobs) < len(PICK[workload]):
            fail("%s: picked jobs not found" % workload)
        reference = run.load_reference(workload)
        seen = {}
        plain = run.run_pass(jobs, work, reference, seen)
        traced = [run.run_pass(jobs, work, reference, seen, tracer_factory=Tracer)
                  for _ in range(2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in plain + traced[0] + traced[1]:
        if r["problems"]:
            fail("%s: %s" % (r["job"]["id"], r["problems"]))
        if reference and r["job"]["key"] not in reference.get("jobs", {}):
            fail("%s: no reference digest at the default seed" % r["job"]["id"])

    tampered = json.loads(json.dumps(plain[0]["result"]))
    tampered["steps"][-1]["stdout"] += "x"
    if not checks.verdict(plain[0]["job"], tampered, reference, {}):
        fail("%s: a tampered output passed the checks" % workload)

    for r in traced[0]:
        tr = r["result"]["trace"]
        total = sum(v["self_s"] for v in tr["per_name"].values())
        if abs(total - tr["wall"]) > TIMING_SLACK_S:
            fail("%s: self times %.6f s, traced wall %.6f s" % (r["job"]["id"], total, tr["wall"]))

    first, second = (layers.per_layer(plain, t) for t in traced)
    for name, m in first.items():
        if m["unit"] in ("count", "B", "ratio") and not name.endswith("share") \
                and not name.startswith("trace.") and m["value"] != second[name]["value"]:
            fail("%s: %s differs between traced passes (%s, %s)"
                 % (workload, name, m["value"], second[name]["value"]))
    if abs(first["trace.unaccounted_s"]["value"]) > TIMING_SLACK_S * len(jobs):
        fail("%s: layer self times leave %.6f s of the traced wall unaccounted"
             % (workload, first["trace.unaccounted_s"]["value"]))
    busy = sorted((m["value"], n) for n, m in first.items()
                  if n.count(".") == 1 and n.endswith(".share"))[-2:]
    print("%-9s ok: %d jobs, spans %d, busiest layers %s" % (
        workload, len(jobs), first["trace.spans"]["value"],
        ", ".join("%s %.2f" % (n[:-6], v) for v, n in reversed(busy))))


def check_spec() -> None:
    import layers

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if per_layer != [tuple(m) for m in layers.ALL_METRICS]:
        fail("BENCHMARK.json per_layer differs from layers.ALL_METRICS")
    fake = [{"job": {}, "problems": [], "result": {"wall": 1.0, "factor": 1.0, "rss_mb": 1.0}}] * 20
    printed = run.end_to_end(fake, 10, [1.0])
    named = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if named != {k: v["unit"] for k, v in printed.items()}:
        fail("BENCHMARK.json end_to_end differs from the metrics run.py prints")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")


def main() -> int:
    run.import_program()
    check_spec()
    for workload in run.WORKLOADS:
        check_workload(workload)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
