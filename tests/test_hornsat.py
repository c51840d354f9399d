"""Forward chaining: verdicts, the work bound, traces, model audits."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from loctame import hornsat
from loctame.syntax import LoctameError


def _problem(n_atoms: int, rng: random.Random):
    """A random ground Horn problem over pair atoms."""
    consts = [f"x{i}" for i in range(n_atoms)]
    atoms = [(a, b) for a in consts for b in consts]
    facts = [(rng.choice(atoms), f"f{i}") for i in range(rng.randint(1, 6))]
    clauses = []
    for i in range(rng.randint(0, 25)):
        prem = tuple(rng.choice(atoms)
                     for _ in range(rng.randint(1, 3)))
        clauses.append((prem, rng.choice(atoms), f"c{i}"))
    return facts, clauses, rng.choice(atoms)


def test_basic_chaining():
    facts = [(("a", "b"), "in")]
    clauses = [((("a", "b"),), ("b", "c"), "step1"),
               ((("a", "b"), ("b", "c")), ("a", "d"), "step2")]
    res = hornsat.HornSolver(facts, clauses).solve(("a", "d"))
    assert not res.sat
    assert res.holds(("b", "c"))


def test_goal_missing_is_sat():
    res = hornsat.HornSolver([(("a", "b"), "in")]).solve(("b", "a"))
    assert res.sat
    assert res.model() == {("a", "b")}


def test_transitive_closure_built_in():
    facts = [(("a", "b"), "in"), (("b", "c"), "in"), (("c", "d"), "in")]
    res = hornsat.solve_problem(facts, [], ("a", "d"))
    assert not res.sat


def test_clause_with_already_derived_premise():
    solver = hornsat.HornSolver([(("a", "b"), "in")])
    solver.solve()
    # the premise is settled before the clause arrives
    solver.add_clause((("a", "b"),), ("b", "c"), "late")
    res = solver.solve(("b", "c"))
    assert not res.sat
    assert res.stats.decrements <= res.stats.premise_occurrences


def test_resumable_solving():
    solver = hornsat.HornSolver([(("a", "b"), "in")])
    assert solver.solve(("a", "c")).sat
    solver.add_clause((("a", "b"),), ("a", "c"), "c0")
    assert not solver.solve(("a", "c")).sat


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6))
def test_work_bound(seed):
    rng = random.Random(seed)
    facts, clauses, goal = _problem(rng.randint(2, 5), rng)
    res = hornsat.HornSolver(facts, clauses,
                             transitive=rng.random() < 0.5).solve(goal)
    assert res.stats.decrements <= res.stats.premise_occurrences


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_model_check_on_sat_runs(seed):
    rng = random.Random(seed)
    facts, clauses, goal = _problem(rng.randint(2, 4), rng)
    res = hornsat.HornSolver(facts, clauses).solve(goal)
    if res.sat:
        hornsat.model_check(res, facts, clauses, goal)


def test_model_check_flags_violations():
    facts = [(("a", "b"), "in")]
    res = hornsat.HornSolver(facts).solve(("b", "a"))
    assert res.sat
    with pytest.raises(LoctameError):
        # a fact the model never saw
        hornsat.model_check(res, facts + [(("c", "d"), "in")], [], ("b", "a"))
    with pytest.raises(LoctameError):
        # a clause the model is not closed under
        hornsat.model_check(res, facts, [(((("a", "b")),), ("a", "c"), "c0")],
                            ("b", "a"))
    with pytest.raises(LoctameError):
        # a sat verdict whose goal is nevertheless in the model
        hornsat.model_check(res, facts, [], ("a", "b"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_chase_equals_materialized_transitivity(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    facts, clauses, goal = _problem(n, rng)
    consts = [f"x{i}" for i in range(n)]
    trans = [(((a, b), (b, c)), (a, c), "trans")
             for a in consts for b in consts for c in consts
             if a != b and b != c]
    chase = hornsat.solve_problem(facts, clauses, None)
    inst = hornsat.HornSolver(facts, clauses + trans).solve()
    for atom in [(a, b) for a in consts for b in consts]:
        assert chase.solver.has(atom) == inst.solver.has(atom)


def test_trace_is_well_founded():
    facts = [(("a", "b"), "in"), (("b", "c"), "in")]
    clauses = [((("a", "c"),), ("a", "d"), "c0")]
    res = hornsat.solve_problem(facts, clauses, ("a", "d"))
    assert not res.sat
    steps = res.solver.trace(("a", "d"))
    seen = set()
    for step in steps:
        for p in step.premises:
            assert p in seen, "premises must precede their conclusion"
        seen.add(step.atom)
    assert steps[-1].atom == ("a", "d")
    kinds = {s.kind for s in steps}
    assert kinds == {"fact", "trans", "clause"}


def test_trace_of_underived_atom_raises():
    res = hornsat.HornSolver([(("a", "b"), "in")]).solve()
    with pytest.raises(LoctameError):
        res.solver.trace(("b", "a"))
