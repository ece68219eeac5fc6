"""Output checks for benchmark jobs.

``post`` runs in the job's child after the timed interval and holds the
checks that need the library (``gfgcover validate``, the elevation re-read,
regularity of a returned table).  ``verdict`` runs in the parent on the
returned output and decides whether the job failed.  A job fails when it
raised, exited with a code its outcome does not explain, was refused by
the search budget, or failed a check.  "No torsion piece" (exit 2) and a
tower that stops at ``failed:piece``, ``failed:completion`` or
``failed:assembly`` are answers within the bounds, not failures.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Dict, List, Optional

from runner import run_cli

TOWER_ANSWERS = ("failed:piece:", "failed:completion:", "failed:assembly:")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_text(steps: List[dict]) -> str:
    """Everything the job printed on stdout, step by step."""
    return "".join("-- step %d rc %s\n%s" % (i, s["rc"], s["stdout"]) for i, s in enumerate(steps))


def census_multiset(stdout: str) -> str:
    """Digest of the census rows as a multiset: isomorphic bases give the
    same rows, though possibly in another order within one degree."""
    lines = stdout.splitlines()
    return digest("\n".join([lines[0]] + sorted(lines[1:])) if lines else "")


# ---------------------------------------------------------------------------
# Child side: checks that run the library, after the timed interval.


def post(job: dict, work: str, steps: List[dict]) -> Dict[str, object]:
    """Return check name -> problem (a string) or None when it passed."""
    out: Dict[str, Optional[str]] = {}
    if job["kind"] == "pipeline" and steps and steps[0]["rc"] == 0:
        for step, label in zip(job["steps"], ("piece", "chain", "cover")):
            if label == "chain" or step["out"] is None:
                continue
            path = os.path.join(work, step["out"])
            if not os.path.exists(path):
                continue
            res = run_cli(["validate", path])
            ok = res["rc"] == 0 and res["stdout"].strip().endswith("ok")
            out["validate_" + label] = None if ok else "validate %s: %s" % (
                label, (res["stdout"] + res["stderr"]).strip())
    if job["kind"] == "prescribe":
        out["prescribe"] = _check_prescribe(job, work, steps[0]["stdout"])
    return out


def _check_prescribe(job: dict, work: str, stdout: str) -> Optional[str]:
    from gfgcover.cosets import CosetTable, is_regular

    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    if "table" not in fields:
        return "no table returned"
    rows = json.loads(fields["table"])
    scale = int(fields["scale"])
    call = job["call"]
    table = CosetTable(call["rank"], tuple(tuple(r) for r in rows))
    if not is_regular(table):
        return "returned table is not regular"
    res = run_cli(["elevations", os.path.join(work, call["check_doc"]),
                   "--vertex", "v", "--table", fields["table"]])
    if res["rc"] != 0:
        return "elevations re-read exited %s" % res["rc"]
    wanted = {"~p%d" % i: scale * d for i, d in enumerate(call["degrees"])}
    for line in res["stdout"].splitlines()[1:]:
        edge, deg = line.split(",")[:2]
        if wanted.get(edge) != int(deg):
            return "elevation of %s has degree %s, wanted %s" % (edge, deg, wanted.get(edge))
    return None


# ---------------------------------------------------------------------------
# Parent side.


def _command(job: dict) -> str:
    return "prescribe" if job["kind"] == "prescribe" else job["steps"][0]["argv"][0]


def _explained(job: dict, steps: List[dict]) -> Optional[str]:
    """None when every exit code is explained by the job's outcome."""
    last = steps[-1]
    if last["rc"] == 0:
        if job["kind"] == "pipeline" and len(steps) != len(job["steps"]):
            return "pipeline stopped early"
        return None
    if last["rc"] == 2:
        if job["kind"] == "pipeline":
            cmd = job["steps"][len(steps) - 1]["argv"][0]
            if cmd == "torsion-piece" and last["stderr"].startswith("no torsion piece within"):
                return None
            if cmd == "complete" and last["stderr"].startswith("no completion within"):
                return None
        if _command(job) == "tower":
            lines = last["stdout"].strip().splitlines()
            if lines and lines[-1].split(",")[-1].startswith(TOWER_ANSWERS):
                return None
    return "exit %s: %s" % (last["rc"], (last["stderr"] or last["stdout"]).strip()[:200])


def _check_census(job: dict, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "degree,chi,h1":
        return "unexpected census header"
    previous = 0
    for line in lines[1:]:
        deg, chi = (int(x) for x in line.split(",")[:2])
        if deg < previous:
            return "degrees not ascending"
        previous = deg
        if chi != deg * job["info"]["chi"]:
            return "chi %d != %d * %d" % (chi, deg, job["info"]["chi"])
    return None


def _check_tower(job: dict, stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    cols = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(cols, line.split(",")))
        if row["status"] != "ok":
            continue
        for p in job["info"]["primes"]:
            e, ratio = row.get("e_%d" % p, ""), row.get("ratio_%d" % p, "")
            if e and Fraction(int(e), int(row["degree"])) != Fraction(ratio):
                return "ratio %s != %s/%s" % (ratio, e, row["degree"])
    return None


def _check_elevations(job: dict, stdout: str) -> Optional[str]:
    totals: Dict[str, int] = {}
    for line in stdout.splitlines()[1:]:
        edge, deg = line.split(",")[:2]
        totals[edge] = totals.get(edge, 0) + int(deg)
    index = job["info"]["index"]
    bad = {e: t for e, t in totals.items() if t != index}
    if not totals or bad:
        return "elevation degrees do not sum to index %d: %s" % (index, bad or totals)
    return None


def _check_output(job: dict, stdout: str, reference: dict) -> Optional[str]:
    first = _command(job)
    if first == "enumerate-covers":
        check = _check_census(job, stdout)
        ref = reference.get("shapes", {}).get(job["shape"])
        if check is None and ref is not None and ref != census_multiset(stdout):
            check = "census differs from the reference census of its shape"
        return check
    if first == "tower":
        return _check_tower(job, stdout)
    if first == "elevations":
        return _check_elevations(job, stdout)
    return None


def verdict(job: dict, result: dict, reference: dict, seen: Dict[str, str]) -> List[str]:
    """Problems with one job's result; an empty list means it passed.

    ``reference`` holds the digests recorded for this workload; ``seen``
    maps job id to the digest of its first output in this run, so a
    repeated job must print the same bytes.
    """
    if "error" in result:
        return ["raised: " + result["error"].strip().splitlines()[-1]]
    steps = result["steps"]
    problems = []
    unexplained = _explained(job, steps)
    if unexplained:
        problems.append(unexplained)
    text = output_text(steps)
    d = digest(text)
    if seen.setdefault(job["id"], d) != d:
        problems.append("output differs from this job's earlier output")
    ref = reference.get("jobs", {}).get(job["key"])
    if ref is not None and ref != d:
        problems.append("output differs from the reference digest")
    problems += [p for p in result.get("post", {}).values() if p]
    if problems:
        return problems
    try:
        check = _check_output(job, steps[-1]["stdout"], reference)
    except (ValueError, KeyError, IndexError) as exc:
        check = "malformed output: %r" % exc
    return [check] if check else []
