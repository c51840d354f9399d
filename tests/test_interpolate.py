"""Ground interpolants: algebra-level core and concept-level wrapping."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import loctame
from loctame import algebra as alg
from loctame import hornsat
from loctame import interpolate as itp
from loctame import randgen
from loctame import reduce as red
from loctame.algebra import Apply, Const, Leq, Meet
from loctame.syntax import (CheckError, LoctameError, parse_interpolation_input,
                            render_cbox)


def _sgc_problem() -> itp.InterpolationProblem:
    # two unary operators under the semi-Galois condition
    # x <= g(y) -> f(x) <= y, with monotonicity for both
    axioms = (
        alg.Mon("f", 1),
        alg.Mon("g", 1),
        alg.K3(alg.plain_template("f", 1), (alg.plain_template("g", 1),)),
    )
    a_atoms = (
        Leq(Const("d"), Apply("g", (Const("a"),))),
        Leq(Const("a"), Const("c")),
    )
    b_atoms = (Leq(Const("b"), Const("d")),)
    neg = Leq(Apply("f", (Const("b"),)), Const("c"))
    return itp.InterpolationProblem(axioms, a_atoms, b_atoms, neg)


def test_semi_galois_interpolant_is_the_operator_image_of_the_shared_constant():
    result = itp.interpolate(_sgc_problem())
    assert result.interpolant == (Leq(Apply("f", (Const("d"),)), Const("c")),)
    assert result.iterations == 2
    assert result.ops_shared
    assert {"c", "d"} <= set(result.shared_consts)
    assert "a" not in result.shared_consts
    assert "b" not in result.shared_consts
    assert Apply("f", (Const("d"),)) in result.defined.values()


def test_interpolant_verification_both_directions():
    problem = _sgc_problem()
    result = itp.interpolate(problem)
    # A entails every interpolant atom
    for atom in result.interpolant:
        assert itp.entails(problem.axioms, problem.a_atoms, atom)
    # the interpolant together with B refutes the negated atom
    assert itp.entails(problem.axioms,
                       tuple(result.interpolant) + problem.b_atoms,
                       problem.neg)


def test_concept_level_interpolant_for_the_split_text():
    from tests.conftest import SPLIT_TEXT
    inp = parse_interpolation_input(SPLIT_TEXT)
    result, gcis = itp.interpolate_input(inp)
    assert [str(g) for g in gcis] == ["exists r . D sub exists r . C"]
    assert result.ops_shared


def test_trivial_interpolant_is_empty_when_b_is_contradictory():
    inp = parse_interpolation_input("A: P sub Q\nB: X sub Y\nB: X nsub Y\n")
    result, gcis = itp.interpolate_input(inp)
    assert result.interpolant == ()
    assert gcis == []
    assert result.iterations == 1


def test_interpolant_when_a_alone_refutes_is_the_negated_atom():
    inp = parse_interpolation_input("A: X sub Y\nB: X nsub Y\n")
    result, gcis = itp.interpolate_input(inp)
    assert [str(g) for g in gcis] == ["X sub Y"]


def test_jointly_satisfiable_sides_raise():
    inp = parse_interpolation_input("A: X sub Y\nB: Z nsub W\n")
    with pytest.raises(itp.NotUnsat):
        itp.interpolate_input(inp)


# the first round's candidate interpolant already refutes the goal with B
FIRST_ROUND_SPLIT = """\
role r o s sub r
A: X sub exists r . Y
A: Y sub Z
B: W sub X
B: W nsub exists r . Z
"""


def _count_solver_runs(monkeypatch) -> tuple[list, list]:
    """The solvers the rounds build (hornsat.solve_problem calls) and the
    runs they make (HornSolver.solve calls); the verification's own runs
    are left out."""
    builds, runs, rounds = [], [], []
    run, build = itp._Attempt.run, hornsat.solve_problem
    solve = hornsat.HornSolver.solve

    def counted_run(self):
        rounds.append(self)
        try:
            return run(self)
        finally:
            rounds.pop()

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        if rounds:
            runs.append(args)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(itp._Attempt, "run", counted_run)
    monkeypatch.setattr(hornsat, "solve_problem", counted_build)
    monkeypatch.setattr(hornsat.HornSolver, "solve", counted_solve)
    return builds, runs


def test_first_round_split_skips_the_joint_run(monkeypatch):
    # the lattice theory, the A side resuming that run, and the B side
    # with the candidate: a refuting B run implies the joint refutation
    builds, runs = _count_solver_runs(monkeypatch)
    inp = parse_interpolation_input(FIRST_ROUND_SPLIT)
    result, gcis = itp.interpolate_input(inp)
    assert result.iterations == 1
    assert [str(g) for g in gcis] == ["X sub exists r . Z"]
    assert len(runs) == 3
    assert len(builds) == 2


def test_joint_run_after_a_failed_b_run_still_raises(monkeypatch):
    # the B run does not refute, so the joint run comes fourth, on a third
    # solver, and finds the sides jointly satisfiable
    builds, runs = _count_solver_runs(monkeypatch)
    inp = parse_interpolation_input(
        FIRST_ROUND_SPLIT.replace("nsub exists r", "nsub exists s"))
    with pytest.raises(itp.NotUnsat):
        itp.interpolate_input(inp)
    assert len(runs) == 4
    assert len(builds) == 3


def test_first_round_unfolds_no_constant(monkeypatch):
    problem = itp.from_input(parse_interpolation_input(FIRST_ROUND_SPLIT))
    attempt = itp._Attempt(problem, itp._vocabulary(problem), op_strict=True)

    def unfold(self, name):
        raise AssertionError(f"unfolded {name}")

    monkeypatch.setattr(red.PurifiedProblem, "unfold", unfold)
    keys, iterations = attempt.run()
    assert keys and iterations == 1


# randgen.interpolation_split(random.Random(156448)) under
# PYTHONHASHSEED=0; the split that seed draws depends on string hashing,
# so the text is pinned here
DEFECT_1_SPLIT = """\
role r sub r
role r o r sub r
role r o r sub r
A: C sub exists r . D
A: C and A sub F
A: exists r . B sub A
A: E sub F
A: D and F sub B
A: exists r . A sub B
B: C sub exists r . B
B: exists r . F sub E
B: D sub C
B: E sub exists r . E
B: exists r . B sub C
B: C nsub E
"""


@pytest.mark.xfail(raises=LoctameError, strict=True,
                   reason="known defect 1: no separating term is found "
                          "although an interpolant exists")
def test_known_defect_split_interpolates():
    itp.interpolate_input(parse_interpolation_input(DEFECT_1_SPLIT))


def test_nary_roles_are_rejected():
    inp = parse_interpolation_input(
        "decl role w : 3\nA: X sub exists w . (Y, Z)\nB: X nsub X\n")
    with pytest.raises(CheckError):
        itp.interpolate_input(inp)


def test_separating_term_first_orientation():
    t = itp.separating_term("x", "y", {("x", "s")}, {("s", "y")}, ["s"])
    assert t == Const("s")


def test_separating_term_second_orientation():
    t = itp.separating_term("x", "y", {("s", "y")}, {("x", "s")}, ["s"])
    assert t == Const("s")


def test_separating_term_meets_all_witnesses():
    a = {("x", "s"), ("x", "t")}
    b = {("s", "y"), ("t", "y")}
    t = itp.separating_term("x", "y", a, b, ["t", "s"])
    assert t == Meet((Const("s"), Const("t")))


def test_separating_term_excludes_the_endpoints_and_may_fail():
    assert itp.separating_term("x", "y", {("x", "x")}, {("x", "y")},
                               ["x", "y"]) is None
    assert itp.separating_term("x", "y", set(), set(), ["s"]) is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**7))
def test_random_splits_interpolate_and_verify(seed):
    rng = random.Random(seed)
    inp = randgen.interpolation_split(rng)
    if inp is None:
        return
    try:
        result, gcis = itp.interpolate_input(inp)   # re-checks both entailments
    except itp.NotUnsat:
        return
    for atom in result.interpolant:
        for side in (atom.lhs, atom.rhs):
            assert set(alg.constants_of(side)) <= set(result.shared_consts)


def test_one_sided_operator_can_leak_when_unavoidable():
    # f occurs only on the A side, so no interpolant over shared operators
    # exists; the fallback admits f-terms and flags the leak
    axioms = (alg.Mon("f", 1),)
    a_atoms = (
        Leq(Const("c"), Apply("f", (Const("p"),))),
        Leq(Apply("f", (Const("q"),)), Const("e")),
        Leq(Const("p"), Const("d")),
    )
    b_atoms = (Leq(Const("d"), Const("q")),)
    neg = Leq(Const("c"), Const("e"))
    problem = itp.InterpolationProblem(axioms, a_atoms, b_atoms, neg)
    result = itp.interpolate(problem)
    assert result.interpolant
    assert not result.ops_shared
    leaked = {t.op
              for atom in result.interpolant
              for side in (atom.lhs, atom.rhs)
              for t in alg.apply_subterms(side)}
    assert leaked == {"f"}


# derived in an order that string hashing used to decide: the interpolant
# had four atoms under some hash seeds and three under others
HASH_SENSITIVE_SPLIT = """\
role s o s sub r
role r sub r
role s sub s
A: A sub exists r . G
A: exists s . F sub D
A: E and G sub D
A: exists r . B sub B
A: G sub E
B: E sub exists s . D
B: E sub exists s . F
B: C sub exists s . B
B: D and E sub C
B: D and G sub C
B: C sub exists s . G
B: A nsub B
"""


# runs each argv through cli.main in one process and prints, per command,
# its exit code and its output as JSON
_CLI_SCRIPT = """\
import contextlib, io, json, sys
from loctame import cli
out = []
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append((argv, code, buf.getvalue()))
json.dump(out, sys.stdout)
"""


def _cli_in_child(hash_seed: str, argvs: list[list[str]]) -> list:
    src = str(Path(loctame.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_SCRIPT], input=json.dumps(argvs),
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = []
    for argv, code, text in json.loads(proc.stdout):
        if "--json" in argv:
            # timings differ from run to run
            body = json.loads(text)
            for report in body if isinstance(body, list) else [body]:
                del report["micros_per_stage"]
            text = json.dumps(body)
        out.append((argv, code, text))
    return out


def test_interpolant_does_not_depend_on_string_hashing(tmp_path):
    from tests.conftest import (ANATOMY_TEXT, DEFS_TEXT, FREIGHT_TEXT,
                                GUARDS_TEXT, ROUTES_TEXT, SPLIT_TEXT)
    argvs = []
    for name, text in [("defs", DEFS_TEXT), ("anatomy", ANATOMY_TEXT),
                       ("freight", FREIGHT_TEXT), ("routes", ROUTES_TEXT),
                       ("guards", GUARDS_TEXT)]:
        f = tmp_path / f"{name}.lt"
        f.write_text(text)
        argvs += [[cmd, str(f)] for cmd in ("check", "explain", "classify")]
        argvs += [["check", "--emit-reduction", f"--mode={mode}", str(f)]
                  for mode in ("chase", "instantiate")]
        argvs += [["classify", "--json", str(f)], ["explain", "--json", str(f)]]
    for name, text in [("hash", HASH_SENSITIVE_SPLIT), ("split", SPLIT_TEXT),
                       ("first", FIRST_ROUND_SPLIT)]:
        f = tmp_path / f"{name}.itp"
        f.write_text(text)
        argvs.append(["interpolate", str(f)])
    # generated inputs, drawn here so that both children read the same text
    for seed in range(12):
        rng = random.Random(15_000 + seed)
        for kind, make_cbox, make_query in (
                ("ext", randgen.extended_cbox, randgen.random_query),
                ("num", randgen.numeric_cbox, randgen.numeric_query)):
            cbox = make_cbox(rng)
            cbox = replace(cbox, queries=(make_query(rng, cbox),))
            f = tmp_path / f"{kind}{seed}.lt"
            f.write_text(render_cbox(cbox))
            argvs += [["check", str(f)], ["explain", str(f)],
                      ["explain", "--json", str(f)],
                      ["check", "--emit-reduction", str(f)]]
        f = tmp_path / f"normal{seed}.lt"
        f.write_text(render_cbox(randgen.normal_cbox(rng)))
        argvs += [["classify", str(f)], ["classify", "--json", str(f)],
                  ["classify", "--emit-reduction", str(f)]]
    runs = _cli_in_child("0", argvs)
    assert runs == _cli_in_child("1", argvs)
    assert all(code in (0, 1) for _, code, _ in runs)
