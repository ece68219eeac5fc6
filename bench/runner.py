"""Run one benchmark job in a forked child and bring its result back.

The parent has imported gfgcover and written the input documents, and has
run no gfgcover computation that fills a cache.  Each job runs in a child
forked from it, so it starts with the caches a fresh ``gfgcover`` process
has; the child also clears every ``functools`` cache it finds in the
package, so a cache a later change adds is emptied as well.  Only the
job's own work is timed: forking, the post-run checks that need the
library and the transfer back all happen outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter
from typing import Callable, Optional

import calibrate
from gfgcover import cli, cosets


def forked(fn: Callable[[], dict]) -> dict:
    """Run ``fn`` in a forked child and return the dict it returns.

    A child that raises or dies reports ``{"error": ...}`` instead.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                payload = json.dumps(fn())
            except BaseException:
                payload = json.dumps({"error": traceback.format_exc()})
            with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return {"error": "job process ended with wait status %d" % status}
    return json.loads(payload)


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name != "gfgcover" and not name.startswith("gfgcover."):
            continue
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run_cli(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _expand(argv, work: str):
    return [a.replace("{work}/", work + os.sep) for a in argv]


def _prescribe(call: dict) -> dict:
    from gfgcover.words import Word

    rank = call["rank"]
    targets = [Word(tuple(t), rank) for t in call["targets"]]
    res = cosets.prescribe_degrees(rank, targets, call["degrees"])
    if res is None:
        text = "none\n"
    else:
        rows = json.dumps([list(r) for r in res.table.action], separators=(",", ":"))
        text = "scale %d\nquotient %s\ntable %s\n" % (res.scale, res.quotient, rows)
    return {"rc": 0, "stdout": text, "stderr": ""}


def _perform(job: dict, work: str) -> list:
    """The job's own work: the commands or the library call."""
    if job["kind"] == "prescribe":
        return [_prescribe(job["call"])]
    results = []
    for step in job["steps"]:
        res = run_cli(_expand(step["argv"], work))
        results.append(res)
        if step["out"] is not None and res["rc"] == 0:
            with open(os.path.join(work, step["out"]), "w", encoding="utf-8") as fh:
                fh.write(res["stdout"])
        if res["rc"] != 0:
            break
    return results


def execute(job: dict, work: str, post: Optional[Callable] = None, tracer=None) -> dict:
    """Run ``job`` in this process; meant to be called in a forked child.

    Returns the wall time of the job, the factor that scales it to
    reference seconds, its per-step exit codes and output, the process's
    peak resident set, the result of ``post`` (the checks
    that need the library, run after the timed interval) and, with a
    tracer, the spans recorded while the job ran.
    """
    clear_caches()
    before = calibrate.loop_seconds()
    recording = tracer.recording() if tracer is not None else contextlib.nullcontext()
    with recording:
        start = perf_counter()
        try:
            steps = _perform(job, work)
        finally:
            wall = perf_counter() - start
    factor = calibrate.scale(before, calibrate.loop_seconds())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"wall": wall, "factor": factor, "steps": steps, "rss_mb": rss_mb}
    if post is not None:
        out["post"] = post(job, work, steps)
    if tracer is not None:
        out["trace"] = tracer.export()
    return out
