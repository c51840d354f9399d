"""Closure and instantiation: term counting, closure laws, dedup."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loctame import algebra as alg
from loctame import randgen
from loctame.syntax import Interval


def _apply(op, *args):
    return alg.Apply(op, tuple(alg.Const(a) if isinstance(a, str) else a
                               for a in args))


def _closure(seeds, axioms):
    """psi_closure over a fresh term table, as terms."""
    table = alg.TermTable()
    ids = [table.intern(t) for t in seeds]
    return [table.unfold(t) for t in alg.psi_closure(table, ids, axioms)]


def _instantiate(axioms, psi):
    """instantiate over a fresh term table, each instance as its text."""
    table = alg.TermTable()
    ids = [table.intern(t) for t in psi]
    out = []
    for inst in alg.instantiate(table, axioms, ids):
        premises = " & ".join(str(table.leq(p)) for p in inst.premises)
        out.append((f"{premises} -> {table.leq(inst.conclusion)}", inst.tag))
    return out


def test_subterms_and_constants():
    t = alg.Meet((_apply("f", _apply("g", "a", "c")), alg.Const("b")))
    consts, ops, lit = alg.symbols([t, _apply("h", "d", "a")])
    # each term before its arguments, left to right
    assert list(consts) == ["a", "c", "b", "d"]
    assert ops == {"f", "g", "h"}
    assert not lit
    five = alg.Lit(Interval(Fraction(5), Fraction(5)))
    assert alg.symbols([alg.Meet((alg.Const("a"), five))])[2]


def test_template_match_and_build():
    table = alg.TermTable()
    tpl = alg.OpTemplate("f", (alg.VarSlot(0), alg.FixedSlot(alg.Const("c"))))
    pat = alg._Pattern(tpl, table)
    a, c, d = (table.intern(alg.Const(n)) for n in "acd")
    hit = pat.match((a, c))
    assert hit == (a,)
    assert table.unfold(pat.build(table, hit)) == _apply("f", "a", "c")
    assert pat.build(table, hit) == table.intern(_apply("f", "a", "c"))
    assert pat.match((a, d)) is None              # a fixed slot differs
    assert pat.match((a,)) is None                # the arity differs
    # a pattern sees only the terms of its operator: the closure hands it
    # the arguments of terms_by_op's list for that operator
    f_ac = table.intern(_apply("f", "a", "c"))
    g_ac = table.intern(_apply("g", "a", "c"))
    assert alg.terms_by_op(table, [f_ac, g_ac])[pat.op] == [f_ac]
    plain = alg._Pattern(alg.plain_template("g", 2), table)
    assert plain.match((a, d)) == (a, d)
    assert table.unfold(plain.build(table, (d, a))) == _apply("g", "d", "a")


def test_mon_instance_count_is_k_times_k_minus_one():
    # k closure terms per operator give k*(k-1) monotonicity instances,
    # one per ordered pair of distinct terms
    psi = [_apply("f", c) for c in "abc"]
    out = _instantiate([alg.Mon("f", 1)], psi)
    assert {tag for _, tag in out} == {"Mon(f)"}
    assert len(out) == 3 * (3 - 1)
    assert [text for text, _ in out[:2]] == ["a <= b -> f(a) <= f(b)",
                                             "a <= c -> f(a) <= f(c)"]
    assert _instantiate([alg.Mon("f", 1)], psi[:1]) == []


def test_instantiate_dedups():
    psi = [_apply("f", "a"), _apply("f", "b")]
    once = _instantiate([alg.Mon("f", 1)], psi)
    twice = _instantiate([alg.Mon("f", 1), alg.Mon("f", 1)], psi)
    assert once == twice


def test_psi_closure_chains_heads():
    # g(x) <= h(x) pulls h(c) in whenever g(c) is present, transitively
    axioms = [alg.K1(alg.plain_template("g", 1), alg.plain_template("h", 1)),
              alg.K1(alg.plain_template("h", 1), alg.plain_template("k", 1))]
    seeds = [_apply("g", "a")]
    got = {str(t) for t in _closure(seeds, axioms)}
    assert got == {"g(a)", "h(a)", "k(a)"}


def test_psi_closure_k2_head():
    # y <= g(x) -> f(y) <= h(x): g(c) in the seed forces h(c) in
    ax = alg.K2(alg.plain_template("f", 1), (alg.plain_template("g", 1),),
                alg.plain_template("h", 1))
    got = {str(t) for t in _closure([_apply("g", "a")], [ax])}
    assert got == {"g(a)", "h(a)"}


def test_psi_equals_seed_without_inclusion_axioms():
    for seed in range(40):
        rng = random.Random(seed)
        axioms, seeds = randgen.algebra_problem(rng, allow_ri=False)
        assert sorted(_closure(seeds, axioms), key=str) == \
            sorted(set(seeds), key=str)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_psi_idempotent(seed):
    axioms, seeds = randgen.algebra_problem(random.Random(seed))
    once = _closure(seeds, axioms)
    assert set(_closure(once, axioms)) == set(once)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_psi_monotone(seed):
    axioms, seeds = randgen.algebra_problem(random.Random(seed))
    sub = seeds[: len(seeds) // 2]
    small = set(_closure(sub, axioms))
    big = set(_closure(seeds, axioms))
    assert small <= big


def test_goal_seeds_are_operator_subterms():
    goal = alg.Goal(
        assumptions=(alg.Leq(alg.Const("a"), _apply("f", _apply("g", "b"))),),
        target=alg.Leq(_apply("h", "c"), alg.Const("d")))
    table = alg.TermTable()
    seeds = {str(table.unfold(t)) for t in alg.goal_seeds(
        table, map(table.atom, goal.all_atoms()))}
    assert seeds == {"f(g(b))", "g(b)", "h(c)"}


def test_meet_needs_two_operands():
    with pytest.raises(ValueError):
        alg.Meet((alg.Const("a"),))


def test_k3_instantiation_binds_common_argument():
    # z <= g(y) -> f(z) <= y, instantiated over a closure containing
    # f(a) and g(b): the only candidate y is b
    ax = alg.K3(alg.plain_template("f", 1), (alg.plain_template("g", 1),))
    psi = [_apply("f", "a"), _apply("g", "b")]
    out = [text for text, tag in _instantiate([ax], psi)
           if tag.startswith("K3")]
    assert out == ["a <= g(b) -> f(a) <= b"]
