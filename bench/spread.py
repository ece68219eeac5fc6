"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads census,tower --seeds 1-10 [--out FILE]
    python3 bench/spread.py --trace 1 --seeds 0,0

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the bound
fixed in BENCHMARK.json.  ``--trace 1`` instead runs traced passes and
reports which per-layer counts differ between the runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seeds_arg(text: str):
    """A range such as 1-10, or a list such as 0,0 (repeats allowed)."""
    if "," in text:
        return [int(x) for x in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit("run failed (%s seed %d): %s" % (workload, seed, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the runs and the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **res})
            print("%s seed %d correct=%s %s" % (
                workload, seed, res["correct"],
                " ".join("%s=%.5g" % (k, v["value"]) for k, v in res["metrics"].items()
                         if not args.trace)), flush=True)
        summary = {}
        names = runs[0]["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "distinct": len(set(values))}
            if not args.trace:
                print("  %-14s median %.5g  spread %.4f  bound %s" % (
                    name, med, summary[name]["spread"], bounds.get(name)))
        if args.trace:
            varying = [n for n, s in summary.items()
                       if s["distinct"] > 1 and not n.endswith(("self_s", "share"))
                       and not n.startswith("trace.") and n != "cli.stdout_bytes"]
            print("  counts that differ between runs: %s" % (varying or "none"))
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
