"""Run one loctame benchmark workload and print its metrics.

    python3 bench/run.py --workload query-mix --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload listed in BENCHMARK.json.

Run from the root of a loctame checkout; loctame is imported from `src/`.
The workload's inputs are generated from the seed and handed to a fresh
worker process as text (worker.py).  The verdicts are checked against
references that do not come from the code being timed (reference.py),
outside the timed region.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Operations that raise or fail their check are counted in "failed" and make
"correct" false.  The exit status is 0 when every metric was measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPANS_DIR = ROOT / ".bench_out"

# fresh interpreters timed per run for setup_s, half before the workloads
# and half after them; the fastest is reported
SETUP_REPEATS = 32
SETUP_TEXT = "A sub B\n? A sub B\n"
# the worker is killed if it is still running this long after its budget
CHILD_GRACE_S = 90

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)


def per_layer_units() -> list[tuple[str, str]]:
    import tracing
    out = [(name, "s") for name in tracing.SELF_TIMES]
    out += [("interpolate.verify_s", "s"), ("pipeline.unattributed_s", "s"),
            ("traced_wall_s", "s"), ("cli.startup_s", "s")]
    out += [(name, "count") for name in tracing.COUNTS]
    out += [("hornsat.derived_ratio", "ratio"), ("hornsat.fired_ratio", "ratio"),
            ("trace_overhead_ratio", "ratio")]
    return out


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    # fixed string hashing: set iteration order, and with it every work
    # counter, repeats from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def fix_string_hashing() -> None:
    """Re-run this process with PYTHONHASHSEED=0 unless it has it already.
    randgen iterates over sets of strings, so without a fixed string hash
    one seed would give different inputs in different processes."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], _env())


def _time_command(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=60)
    return time.perf_counter() - t0, proc


class SetupTimer:
    """Times `python -m loctame.cli check` on a one-axiom file in fresh
    interpreters, and with trace also a bare interpreter.  Start-up does
    the same work every time, so the fastest of many starts, spread over
    the run, is the one least slowed by other tenants of the host; on a
    shared 2-vCPU host it varied half as much from run to run as the
    median did."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.cli: list[float] = []
        self.bare: list[float] = []
        self.failed = 0

    def sample(self, repeats: int) -> None:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
            path = Path(tmp) / "one.lt"
            path.write_text(SETUP_TEXT)
            for _ in range(repeats):
                dt, proc = _time_command([sys.executable, "-m", "loctame.cli",
                                          "check", str(path)])
                if proc.returncode != 0 or "subsumed" not in proc.stdout:
                    self.failed += 1
                    print(f"FAIL setup: loctame check exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-200:]}", file=sys.stderr)
                self.cli.append(dt)
                if self.trace:
                    self.bare.append(_time_command([sys.executable, "-c", "pass"])[0])

    def metrics(self) -> dict:
        out = {"setup_s": min(self.cli)}
        if self.trace:
            out["cli.startup_s"] = out["setup_s"] - min(self.bare)
        return out


def run_worker(ops, seconds: float, trace: bool, op_limit_s: float,
               spans: Path | None) -> dict:
    job = {"ops": [op.job() for op in ops], "seconds": seconds,
           "trace": int(trace), "op_limit_s": op_limit_s,
           "spans": str(spans) if spans else None}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(job), cwd=ROOT, env=_env(),
                          capture_output=True, text=True,
                          timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _nearest_rank(sorted_values: list[float], p: float) -> float:
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def end_to_end_metrics(result: dict, setup: dict) -> dict:
    import workloads
    passes = [sorted(lat) for lat in result["pass_latencies"]]
    p = workloads.tail_percentile(len(result["outcomes"]))
    tails = [_nearest_rank(lat, p) if p else lat[-1] for lat in passes]
    return {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(result["pass_walls"]),
        "latency_p50_ms": 1000 * statistics.median(x for lat in passes for x in lat),
        "latency_tail_ms": 1000 * statistics.median(tails),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer_metrics(result: dict, setup: dict) -> dict:
    import tracing
    traced = result["traced"]
    out = {name: traced["self_s"].get(name, 0.0) for name in tracing.SELF_TIMES}
    wall = sum(traced["pass_walls"]) / len(traced["pass_walls"])
    out["interpolate.verify_s"] = traced["verify_s"]
    out["pipeline.unattributed_s"] = wall - sum(out[n] for n in tracing.SELF_TIMES)
    out["traced_wall_s"] = wall
    out["cli.startup_s"] = setup["cli.startup_s"]
    counts = traced["pass_counts"][0]
    for name in tracing.COUNTS:
        out[name] = counts.get(name, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out["hornsat.derived_ratio"] = ratio(out["hornsat.atoms_derived"],
                                         out["hornsat.atoms_interned"])
    out["hornsat.fired_ratio"] = ratio(out["hornsat.fired_clauses"],
                                       out["hornsat.clauses"])
    out["trace_overhead_ratio"] = ratio(wall, statistics.median(result["pass_walls"]))
    return out


def check_outcomes(name: str, seed: int, ops, result: dict) -> tuple[int, int]:
    """Check every distinct verdict against its reference; returns the
    (attempted, failed) operation counts."""
    import reference
    attempted = failed = 0
    for i, (op, outcomes) in enumerate(zip(ops, result["outcomes"])):
        for key, count in outcomes.items():
            attempted += count
            reason = reference.check(op, json.loads(key))
            if reason is not None:
                failed += count
                print(f"FAIL workload={name} seed={seed} op={i} kind={op.kind} "
                      f"x{count}: {reason}", file=sys.stderr)
    for err in result["errors"]:
        print(f"ERROR workload={name} seed={seed} op={err['op']} "
              f"pass={err['pass']} {err['type']}: {err['message']}",
              file=sys.stderr)
    return attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, run and check one workload; returns its worker result
    (None when the worker itself failed) and its operation counts."""
    import workloads
    ops = workloads.build(name, seed)
    spans = None
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{name}-seed{seed}.json"
    try:
        result = run_worker(ops, seconds, trace, workloads.OP_LIMIT_S[name],
                            spans)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"FAIL workload={name} seed={seed}: {exc}", file=sys.stderr)
        return {"ops": ops, "result": None, "attempted": len(ops),
                "failed": len(ops)}
    attempted, failed = check_outcomes(name, seed, ops, result)
    return {"ops": ops, "result": result, "attempted": attempted,
            "failed": failed}


def report(name: str, seed: int, run: dict, setup: dict, trace: bool) -> dict:
    """Print one workload's metrics for a reader and return them with
    their units; empty when the worker failed."""
    import workloads
    result, ops = run["result"], run["ops"]
    if result is None:
        return {}
    if trace:
        values = per_layer_metrics(result, setup)
        units = dict(per_layer_units())
    else:
        values = end_to_end_metrics(result, setup)
        units = dict(END_TO_END)
    print(f"{name} seed={seed}: {len(result['pass_walls'])} untraced passes "
          f"of {len(ops)} operations; {run['failed']} of {run['attempted']} "
          f"operations failed (failed_ratio "
          f"{run['failed'] / run['attempted']:.4g})")
    if not trace:
        p = workloads.tail_percentile(len(ops))
        print(f"  latency_tail_ms is the median over passes of each pass's "
              f"{'p%g' % p if p else 'slowest operation'}; "
              f"{sum(map(len, result['pass_latencies']))} latencies in all")
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "loctame" / "__init__.py").is_file():
        print("error: no src/loctame here; run from the root of a loctame "
              "checkout", file=sys.stderr)
        return 2
    fix_string_hashing()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = tuple(w["name"] for w in spec["workloads"])
    elif args.workload in workloads.WORKLOADS:
        names = (args.workload,)
    else:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    trace = bool(args.trace)
    setup = SetupTimer(trace)
    setup.sample(SETUP_REPEATS // 2)
    runs = {n: run_workload(n, args.seed, args.seconds, trace) for n in names}
    setup.sample(SETUP_REPEATS - SETUP_REPEATS // 2)
    print(f"setup_s is the fastest of {len(setup.cli)} fresh `loctame.cli "
          f"check` calls, half before and half after the workloads")
    results = {n: report(n, args.seed, r, setup.metrics(), trace)
               for n, r in runs.items()}
    attempted = sum(r["attempted"] for r in runs.values()) + len(setup.cli)
    failed = sum(r["failed"] for r in runs.values()) + setup.failed
    if len(names) == 1:
        metrics = results[names[0]]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items()
                   for k, v in r.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
