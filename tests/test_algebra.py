"""Closure and instantiation: term counting, closure laws, dedup."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from loctame import algebra as alg
from loctame import randgen


def _apply(op, *args):
    return alg.Apply(op, tuple(alg.Const(a) if isinstance(a, str) else a
                               for a in args))


def test_subterms_and_constants():
    t = alg.Meet((_apply("f", _apply("g", "a")), alg.Const("b")))
    assert set(alg.constants_of(t)) == {"a", "b"}
    assert {x.op for x in alg.apply_subterms(t)} == {"f", "g"}


def test_template_match_and_build():
    tpl = alg.OpTemplate("f", (alg.VarSlot(0), alg.FixedSlot(alg.Const("c"))))
    hit = tpl.match(_apply("f", "a", "c"))
    assert hit == {0: alg.Const("a")}
    assert tpl.build(hit) == _apply("f", "a", "c")
    assert tpl.match(_apply("f", "a", "d")) is None
    assert tpl.match(_apply("g", "a", "c")) is None


def test_mon_instance_count_is_k_times_k_minus_one():
    # k closure terms per operator give k*(k-1) monotonicity instances,
    # one per ordered pair of distinct terms
    psi = [_apply("f", c) for c in "abc"]
    out = alg.instantiate([alg.Mon("f", 1)], psi)
    assert {i.tag for i in out} == {"Mon(f)"}
    assert len(out) == 3 * (3 - 1)
    assert [str(i) for i in out[:2]] == ["a <= b -> f(a) <= f(b)",
                                         "a <= c -> f(a) <= f(c)"]
    assert alg.instantiate([alg.Mon("f", 1)], psi[:1]) == []


def test_instantiate_dedups():
    psi = [_apply("f", "a"), _apply("f", "b")]
    once = alg.instantiate([alg.Mon("f", 1)], psi)
    twice = alg.instantiate([alg.Mon("f", 1), alg.Mon("f", 1)], psi)
    assert once == twice


def test_psi_closure_chains_heads():
    # g(x) <= h(x) pulls h(c) in whenever g(c) is present, transitively
    axioms = [alg.K1(alg.plain_template("g", 1), alg.plain_template("h", 1)),
              alg.K1(alg.plain_template("h", 1), alg.plain_template("k", 1))]
    seeds = [_apply("g", "a")]
    got = {str(t) for t in alg.psi_closure(seeds, axioms)}
    assert got == {"g(a)", "h(a)", "k(a)"}


def test_psi_closure_k2_head():
    # y <= g(x) -> f(y) <= h(x): g(c) in the seed forces h(c) in
    ax = alg.K2(alg.plain_template("f", 1), (alg.plain_template("g", 1),),
                alg.plain_template("h", 1))
    got = {str(t) for t in alg.psi_closure([_apply("g", "a")], [ax])}
    assert got == {"g(a)", "h(a)"}


def test_psi_equals_seed_without_inclusion_axioms():
    for seed in range(40):
        rng = random.Random(seed)
        axioms, seeds = randgen.algebra_problem(rng, allow_ri=False)
        assert sorted(alg.psi_closure(seeds, axioms), key=str) == \
            sorted(set(seeds), key=str)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_psi_idempotent(seed):
    axioms, seeds = randgen.algebra_problem(random.Random(seed))
    once = alg.psi_closure(seeds, axioms)
    assert set(alg.psi_closure(once, axioms)) == set(once)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_psi_monotone(seed):
    axioms, seeds = randgen.algebra_problem(random.Random(seed))
    sub = seeds[: len(seeds) // 2]
    small = set(alg.psi_closure(sub, axioms))
    big = set(alg.psi_closure(seeds, axioms))
    assert small <= big


def test_goal_seeds_are_operator_subterms():
    goal = alg.Goal(
        assumptions=(alg.Leq(alg.Const("a"), _apply("f", _apply("g", "b"))),),
        target=alg.Leq(_apply("h", "c"), alg.Const("d")))
    seeds = {str(t) for t in alg.goal_seeds(goal)}
    assert seeds == {"f(g(b))", "g(b)", "h(c)"}


def test_meet_needs_two_operands():
    with pytest.raises(ValueError):
        alg.Meet((alg.Const("a"),))


def test_k3_instantiation_binds_common_argument():
    # z <= g(y) -> f(z) <= y, instantiated over a closure containing
    # f(a) and g(b): the only candidate y is b
    ax = alg.K3(alg.plain_template("f", 1), (alg.plain_template("g", 1),))
    psi = [_apply("f", "a"), _apply("g", "b")]
    out = [i for i in alg.instantiate([ax], psi)
           if i.tag.startswith("K3")]
    assert len(out) == 1
    inst = out[0]
    assert str(inst.conclusion) == "f(a) <= b"
    assert [str(p) for p in inst.premises] == ["a <= g(b)"]
