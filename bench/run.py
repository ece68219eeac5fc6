"""gfgcover benchmark: one closed-loop client running seeded job lists.

    python3 bench/run.py --workload census --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  Set-up imports gfgcover from the
checkout's ``src``, builds the workload's job list for the seed and writes
its YAML documents.  Then whole passes over the job list run, one job at a
time, each in a child forked after set-up, for at least two passes and
while another pass fits in ``--seconds``.  Every job's output is checked
outside its timed interval.

Every time reported (job times and set-up) is in reference seconds: the
wall time scaled by a calibration loop timed on either side of it, so that
the drifting speed of a shared machine cancels out (see ``calibrate.py``).
The raw wall-clock job figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics of the
traced pass; its spans are written to ``bench/.work/traces``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/selfcheck/README.md`` for the
metric and workload names.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
DEFAULT_SEED = 0
MIN_PASSES = 2
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
WORKLOADS = ("census", "torsion", "tower", "quotients")


def import_program() -> None:
    """Import gfgcover from this checkout, refusing any other copy."""
    if not os.path.isdir(os.path.join(SRC, "gfgcover")):
        raise SystemExit("error: no gfgcover sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH)
    import gfgcover.cli  # noqa: F401  (the import is part of set-up)

    found = os.path.dirname(os.path.abspath(gfgcover.cli.__file__))
    if found != os.path.join(SRC, "gfgcover"):
        raise SystemExit("error: imported gfgcover from %s" % found)


def setup(workload: str, seed: int, work: str):
    """Import, build the job list and write its documents; returns
    (jobs, reference seconds)."""
    before = calibrate.loop_seconds()
    start = perf_counter()
    import_program()
    import workloads

    jobs = workloads.build(workload, seed, ROOT)
    workloads.write_docs(jobs, work)
    for job in jobs:
        job["key"] = workloads.job_key(job)
    wall = perf_counter() - start
    return jobs, wall * calibrate.scale(before, calibrate.loop_seconds())


def setup_samples(workload: str, seed: int, first: float, work: str) -> list:
    """Set-up times: this process's and those of fresh interpreters."""
    samples = [first]
    for i in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-sample", os.path.join(work, "setup%d" % i)],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        samples.append(float(out.split()[-1]))
    return samples


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND jobs beyond it
    in MIN_PASSES passes; more passes only add samples beyond it."""
    n = MIN_PASSES * jobs_per_pass
    return int(math.floor(100.0 * (n - TAIL_BEYOND) / n))


def run_pass(jobs, work, reference, seen, tracer_factory=None):
    """Run every job once; returns one record per job."""
    import checks
    import runner

    records = []
    for job in jobs:
        tracer = tracer_factory() if tracer_factory else None
        result = runner.forked(
            lambda: runner.execute(job, work, post=checks.post, tracer=tracer))
        problems = checks.verdict(job, result, reference, seen)
        records.append({"job": job, "result": result, "problems": problems})
    return records


def load_reference(workload: str) -> dict:
    path = os.path.join(BENCH, "reference.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def job_times(records, scaled: bool = True) -> list:
    """Each timed job's time, in reference seconds unless ``scaled`` is
    false."""
    return [r["result"]["wall"] * (r["result"]["factor"] if scaled else 1.0)
            for r in records if "wall" in r["result"]]


def end_to_end(records, jobs_per_pass: int, setup: list, scaled: bool = True) -> dict:
    walls = job_times(records, scaled)
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    q = tail_percentile(jobs_per_pass)
    return {
        "jobs_per_s": {"value": (attempted - failed) / sum(walls), "unit": "jobs/s"},
        "job_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "job_tail_s": {"value": percentile(walls, q), "unit": "s",
                       "percentile": q, "samples": len(walls)},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s",
                    "samples": len(setup)},
        "peak_rss_mb": {"value": max(r["result"]["rss_mb"] for r in records
                                     if "rss_mb" in r["result"]), "unit": "MiB"},
    }


def write_spans(records, workload: str, seed: int) -> str:
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    path = os.path.join(WORK, "traces", "%s-seed%d.jsonl.gz" % (workload, seed))
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for r in records:
            tr = r["result"].get("trace")
            if tr:
                fh.write(json.dumps({"job": r["job"]["id"], "names": tr["names"],
                                     "spans": tr["spans"]}) + "\n")
    return path


def print_jobs(records) -> None:
    """One line per job: median time over the passes, in reference and in
    wall seconds, and its outcome."""
    walls, outcome = {}, {}
    for r in records:
        res = r["result"]
        if "wall" in res:
            walls.setdefault(r["job"]["id"], []).append((res["wall"] * res["factor"], res["wall"]))
            last = res["steps"][-1]
            lines = (last["stdout"] or last["stderr"]).strip().splitlines()
            outcome[r["job"]["id"]] = "rc %s %s" % (last["rc"], lines[-1][:60] if lines else "")
    for job_id in sorted(walls):
        ref, wall = zip(*walls[job_id])
        print("job %-48s %9.4f s (wall %.4f s)  %s" % (
            job_id, statistics.median(ref), statistics.median(wall), outcome[job_id]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_sample:
        _, seconds = setup(args.workload, args.seed, args.setup_sample)
        shutil.rmtree(args.setup_sample, ignore_errors=True)
        print(repr(seconds))
        return 0

    work = os.path.join(WORK, "run-%d" % os.getpid())
    try:
        jobs, first = setup(args.workload, args.seed, work)
        setup_times = [first] if args.trace else setup_samples(args.workload, args.seed, first, work)
        return measure(args, jobs, work, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, jobs, work, setup_times) -> int:
    import layers

    reference = load_reference(args.workload)
    seen = {}
    n = len(jobs)
    print("workload %s: %d jobs per pass, seed %d, one client, closed loop"
          % (args.workload, n, args.seed))
    if args.trace:
        from spans import Tracer

        plain = run_pass(jobs, work, reference, seen)
        traced = run_pass(jobs, work, reference, seen, tracer_factory=Tracer)
        records = plain + traced
        metrics = layers.per_layer(plain, traced)
        path = write_spans(traced, args.workload, args.seed)
        print("spans written to %s" % os.path.relpath(path, ROOT))
    else:
        records = []
        started = perf_counter()
        passes = 0
        pass_walls = []
        while True:
            done = run_pass(jobs, work, reference, seen)
            records += done
            pass_walls.append(sum(job_times(done, scaled=False)))
            passes += 1
            elapsed = perf_counter() - started
            if passes >= MIN_PASSES and elapsed * (passes + 1) / passes > args.seconds:
                break
        metrics = end_to_end(records, n, setup_times)
        raw = end_to_end(records, n, setup_times, scaled=False)
        print("wall-clock: jobs_per_s %.6g, job_p50_s %.6g, job_tail_s %.6g" % tuple(
            raw[k]["value"] for k in ("jobs_per_s", "job_p50_s", "job_tail_s")))
        print("passes %d, %.1f s; summed job wall time per pass: %s" % (
            passes, perf_counter() - started, ", ".join("%.2f s" % w for w in pass_walls)))
    print_jobs(records)
    failed = [r for r in records if r["problems"]]
    for r in failed[:10]:
        print("FAILED %s: %s" % (r["job"]["id"], "; ".join(r["problems"])))
    print("failed_frac %.4f (%d of %d jobs)" % (len(failed) / len(records), len(failed), len(records)))
    for name, m in metrics.items():
        extra = ""
        if "percentile" in m:
            extra = "  (p%d of %d samples)" % (m["percentile"], m["samples"])
        print("%-44s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
