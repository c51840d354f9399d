"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py     # from the root of the checkout
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from loctame.interpolate import interpolate_input  # noqa: E402
from loctame.syntax import LoctameError, parse_interpolation_input  # noqa: E402

# a short prefix of each workload keeps the test quick
SHORT = {"classify-scale": 1, "query-mix": 40, "interpolate": 30,
         "instantiate-ref": 10}


def _build(name: str, seed: int) -> list:
    """A workload's operations, generated in a process with the fixed
    string hashing that run.py uses, so that they match the recorded
    pools."""
    code = ("import pickle, sys, workloads; sys.stdout.buffer.write("
            f"pickle.dumps(workloads.build({name!r}, {seed})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=run._env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return pickle.loads(proc.stdout)


def _traced_run(ops) -> dict:
    job = {"ops": [op.job() for op in ops], "seconds": 0, "trace": 1,
           "op_limit_s": 60, "spans": None}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(job), cwd=ROOT, env=run._env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(SHORT))
def test_runs_of_one_seed_repeat_counters_and_verdicts(name):
    ops = _build(name, 7)[:SHORT[name]]
    first, second = _traced_run(ops), _traced_run(ops)
    assert first["traced"]["pass_counts"] == second["traced"]["pass_counts"]
    assert first["outcomes"] == second["outcomes"]
    # one untraced and one traced pass ran: a single verdict per operation
    # means tracing changed none of them
    for outcomes in first["outcomes"]:
        assert len(outcomes) == 1 and sum(outcomes.values()) == 2
    for op, outcomes in zip(ops, first["outcomes"]):
        verdict = json.loads(next(iter(outcomes)))
        assert reference.check(op, verdict) is None


def test_same_seed_same_inputs():
    for name in SHORT:
        a, b = _build(name, 3), _build(name, 3)
        assert [op.text for op in a] == [op.text for op in b]
    assert _build("query-mix", 3)[0].text != _build("query-mix", 4)[0].text


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_interpolant_check():
    split = parse_interpolation_input(
        "A: X sub exists r . Y\nA: Y sub S\n"
        "B: exists r . S sub Z\nB: X nsub Z\n")
    assert reference.check_interpolant(split, ["X sub exists r . S"]) is None
    assert reference.check_interpolant(
        split, ["X and S sub exists r . (S and top)"]) is not None
    assert "A side does not entail" in reference.check_interpolant(split, ["X sub S"])
    assert "one-sided" in reference.check_interpolant(split, ["X sub exists r . Y"])
    assert "does not refute" in reference.check_interpolant(split, [])


# split 384 of workloads.interpolation_pool(1): it has an interpolant, but
# interpolate gives up on it (see README.md, "Known failures").  Once the
# defect is fixed, the strict mark turns the pass into a failure: drop the
# mark then.
SPLIT_WITHOUT_SEPARATING_TERM = """\
role r o r sub r
A: exists r . G sub C
A: exists r . F sub C
A: D and G sub F
A: C and B sub G
B: E sub F
B: B sub D
B: exists r . E sub E
B: D sub exists r . G
B: B nsub F
"""


@pytest.mark.xfail(raises=LoctameError, strict=True,
                   reason="known defect: no separating term is found")
def test_known_interpolation_defect():
    split = parse_interpolation_input(SPLIT_WITHOUT_SEPARATING_TERM)
    assert reference.check_interpolant(
        split, ["B and exists r . G sub G", "D and G sub F"]) is None
    _, gcis = interpolate_input(split)
    assert reference.check_interpolant(split, [str(g) for g in gcis]) is None


# split 284 of workloads.interpolation_pool(13): interpolate does not end
# on it (see README.md, "Known failures")
ENDLESS_SPLIT = """\
role r sub r
role r o r sub r
A: exists r . B sub D
A: A sub exists r . B
A: exists r . B sub A
A: A and C sub D
A: A sub C
A: B sub exists r . C
B: B and C sub B
B: C sub A
B: B nsub D
"""


def test_an_operation_past_its_limit_fails_and_the_workload_goes_on():
    quick = "A: X sub Y\nB: Y sub Z\nB: X nsub Z\n"
    job = {"ops": [{"kind": "interpolate", "mode": "chase", "text": t}
                   for t in (ENDLESS_SPLIT, quick)],
           "seconds": 0, "trace": 0, "op_limit_s": 0.5, "spans": None}
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(job), cwd=ROOT, env=run._env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert [e["type"] for e in result["errors"]] == ["OperationTimeout"]
    assert result["outcomes"][0] == {'{"error": "OperationTimeout"}': 1}
    assert "error" not in next(iter(result["outcomes"][1]))
    assert 0.5 <= result["pass_latencies"][0][0] < 5


def test_refuses_to_run_outside_a_checkout():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                           "query-mix", "--seed", "1", "--seconds", "1"],
                          cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
