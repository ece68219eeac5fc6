"""Record the reference output digests the benchmark checks against.

    python3 bench/record_reference.py

Runs one pass of every workload at the default seed and writes
``bench/reference.json``: for each job, the SHA-256 of everything it
printed, keyed by a digest of its command and input documents (so any
seed that produces the same job is checked too); and for each census
shape, the digest of its rows as a multiset, which every automorphic image
of the shape must reproduce.  The census digests are taken at two seeds
and must agree.  Record again only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SECOND_SEED = run.DEFAULT_SEED + 1


def record(workload: str, seed: int) -> dict:
    work = os.path.join(run.WORK, "reference-%d" % os.getpid())
    try:
        jobs, _ = run.setup(workload, seed, work)
        records = run.run_pass(jobs, work, {}, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import checks

    out = {"jobs": {}, "shapes": {}}
    for r in records:
        if r["problems"]:
            raise SystemExit("%s failed: %s" % (r["job"]["id"], r["problems"]))
        steps = r["result"]["steps"]
        out["jobs"][r["job"]["key"]] = checks.digest(checks.output_text(steps))
        if workload == "census":
            out["shapes"][r["job"]["shape"]] = checks.census_multiset(steps[-1]["stdout"])
    return out


def main() -> int:
    reference = {}
    for workload in run.WORKLOADS:
        ref = record(workload, run.DEFAULT_SEED)
        if workload == "census":
            other = record(workload, SECOND_SEED)["shapes"]
            if other != ref["shapes"]:
                raise SystemExit("census rows differ between isomorphic bases")
        else:
            del ref["shapes"]
        reference[workload] = ref
        print("%s: %d job digests" % (workload, len(ref["jobs"])))
    path = os.path.join(run.BENCH, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
