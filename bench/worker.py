"""Benchmark child process: runs one workload's operations against loctame.

Reads a job from standard input as JSON:

    {"ops": [{"kind", "mode", "text"}, ...], "seconds": S, "trace": 0|1,
     "op_limit_s": L, "spans": path or null}

and prints one JSON object with the timings, the outcome of every
operation and the peak resident memory of this process.  Operations run
one after another on one thread (a closed loop with one client), in
passes over the list, until S seconds have passed; at least one whole
pass always runs.  With "trace": 1 the first half of the time is spent
untraced and the second half traced (see tracing.py).

Every exception an operation raises is recorded with its type and counts
as a failed operation; the loop always goes on to the next operation.  An
operation still running after "op_limit_s" seconds is stopped by a timer
signal and counts as failed (OperationTimeout), so that one operation that
does not end cannot stop the workload.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from collections import Counter

from loctame import interpolate as interp
from loctame import pipeline, syntax

import tracing


def run_op(op: dict):
    """Run one operation, from parsing its text to its verdict; returns
    the verdict in a form the parent checks."""
    kind, mode, text = op["kind"], op["mode"], op["text"]
    if kind == "interpolate":
        inp = syntax.parse_interpolation_input(text)
        _, gcis = interp.interpolate_input(inp)
        return [str(g) for g in gcis]
    cbox = syntax.parse_cbox(text)
    if kind == "classify":
        return pipeline.classify(cbox, mode=mode).pairs()
    report = pipeline.check_subsumption(cbox, cbox.queries[0], mode=mode)
    if report.subsumed:
        _, lines = pipeline.explain(cbox, cbox.queries[0], mode=mode)
        return {"subsumed": True, "explain_lines": len(lines)}
    return {"subsumed": report.subsumed}


class OperationTimeout(Exception):
    """An operation ran longer than the job's op_limit_s."""


def _out_of_time(signum, frame):
    raise OperationTimeout("still running after the operation time limit")


class Runner:
    def __init__(self, ops: list[dict], limit_s: float):
        self.ops = ops
        self.limit_s = limit_s
        self.outcomes: list[Counter] = [Counter() for _ in ops]
        self.errors: list[dict] = []

    def one_pass(self, pass_no: int, latencies: list[list[float]],
                 tracer: tracing.Tracer | None = None,
                 deadline: float | None = None) -> float | None:
        """Run every operation once; returns the pass's wall time, which
        for a traced pass includes the tracer's counting between
        operations.  A pass that reaches the deadline stops there and
        returns None; its latencies are dropped, so that every operation
        weighs the same in the percentiles."""
        clock = time.perf_counter
        mine: list[float] = []
        start = clock()
        for i, op in enumerate(self.ops):
            if deadline is not None and clock() >= deadline:
                return None
            if tracer is not None:
                tracer.begin_op(i)
            t0 = clock()
            try:
                signal.setitimer(signal.ITIMER_REAL, self.limit_s)
                try:
                    verdict = run_op(op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Exception as exc:   # the harness must finish the workload
                verdict = {"error": type(exc).__name__}
                self.errors.append({"op": i, "pass": pass_no,
                                    "type": type(exc).__name__,
                                    "message": str(exc)[:200]})
            mine.append(clock() - t0)
            if tracer is not None:
                tracer.end_op()
            self.outcomes[i][json.dumps(verdict, sort_keys=True)] += 1
        latencies.append(mine)
        return clock() - start

    def run_for(self, seconds: float, latencies: list[list[float]],
                tracer: tracing.Tracer | None = None) -> list[float]:
        """Whole passes until `seconds` have passed, at least one.  An
        untraced pass is cut at the deadline; a traced one always
        finishes, because its span totals cover whole passes."""
        walls: list[float] = []
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.begin_pass()
            cut = deadline if walls and tracer is None else None
            wall = self.one_pass(len(walls), latencies, tracer, cut)
            if wall is None:
                break
            walls.append(wall)
        return walls


def main() -> int:
    job = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _out_of_time)
    runner = Runner(job["ops"], float(job["op_limit_s"]))
    seconds = float(job["seconds"])
    out: dict = {}
    if not job["trace"]:
        latencies: list[list[float]] = []
        out["pass_walls"] = runner.run_for(seconds, latencies)
        out["pass_latencies"] = latencies
    else:
        out["pass_walls"] = runner.run_for(seconds / 2, [])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.run_for(seconds / 2, [], tracer)
        finally:
            tracer.restore()
        n = len(traced)
        out["traced"] = {
            "pass_walls": traced,
            "self_s": {k: v / n for k, v in tracer.self_s.items()},
            "verify_s": tracer.verify_s / n,
            "pass_counts": tracer.pass_counts,
        }
        if job.get("spans"):
            names = sorted({s[0] for s in tracer.spans})
            index = {name: i for i, name in enumerate(names)}
            with open(job["spans"], "w", encoding="utf-8") as handle:
                json.dump({"names": names,
                           "fields": ["name", "start", "end", "parent", "op"],
                           "spans": [[index[s[0]], s[1], s[2], s[3], s[4]]
                                     for s in tracer.spans]}, handle)
    out["outcomes"] = [dict(c) for c in runner.outcomes]
    out["errors"] = runner.errors
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
