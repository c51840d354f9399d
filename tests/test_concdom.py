"""Numeric entailment and the two-sorted combination loop."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loctame import algebra as alg
from loctame import concdom, oracle, pipeline, randgen
from loctame.syntax import Interval, parse_cbox


def _lit(lo, hi):
    return alg.Lit(Interval(None if lo is None else Fraction(lo),
                            None if hi is None else Fraction(hi)))


def test_convert_leq_cases():
    # [3,inf) <= [1,inf): lower bounds compare
    assert concdom.convert_leq(_lit(3, None), _lit(1, None)) == \
        [concdom.NumAtom(Fraction(1), Fraction(3))]
    # (-inf,2] <= (-inf,5]
    assert concdom.convert_leq(_lit(None, 2), _lit(None, 5)) == \
        [concdom.NumAtom(Fraction(2), Fraction(5))]
    # an unbounded side cannot fit under a bounded one
    assert concdom.convert_leq(_lit(None, None), _lit(1, None)) is None
    assert concdom.convert_leq(_lit(1, None), _lit(None, 5)) is None
    # anything fits under the unbounded interval
    assert concdom.convert_leq(_lit(2, 4), _lit(None, None)) == []
    # numeric bottom fits under anything and nothing fits under it
    bot = alg.Const(concdom.NUM_BOT)
    assert concdom.convert_leq(bot, _lit(1, 2)) == []
    assert concdom.convert_leq(_lit(1, 2), bot) is None
    with pytest.raises(concdom.UnsupportedAtom):
        concdom.convert_leq(alg.Const("x"), _lit(1, 2))


def test_num_entails_chain():
    a, b = "a", "b"
    facts = [concdom.NumAtom(a, Fraction(3)), concdom.NumAtom(Fraction(5), b)]
    assert concdom.num_entails(facts, concdom.NumAtom(a, b))
    assert not concdom.num_entails(facts, concdom.NumAtom(b, a))


def test_num_entails_vacuous_on_inconsistency():
    facts = [concdom.NumAtom(Fraction(7), "x"),
             concdom.NumAtom("x", Fraction(2))]
    # 7 <= x <= 2 is unsatisfiable, so everything follows
    assert concdom.num_entails(facts, concdom.NumAtom("p", "q"))


def test_num_entails_literal_order_is_free():
    assert concdom.num_entails([], concdom.NumAtom(Fraction(1), Fraction(2)))
    assert not concdom.num_entails([], concdom.NumAtom(Fraction(2), Fraction(1)))


def _random_num_problem(rng: random.Random):
    terms: list = [f"v{i}" for i in range(rng.randint(1, 4))]
    terms += [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
    facts = [concdom.NumAtom(rng.choice(terms), rng.choice(terms))
             for _ in range(rng.randint(0, 8))]
    query = concdom.NumAtom(rng.choice(terms), rng.choice(terms))
    return facts, query


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**7))
def test_num_entails_agrees_with_closure_mirror(seed):
    facts, query = _random_num_problem(random.Random(seed))
    assert concdom.num_entails(facts, query) == \
        oracle.num_entails_dbm(facts, query)


def test_split_problem_sorts_atoms(freight_cbox):
    q = freight_cbox.queries[0]
    from loctame import reduce as red
    prob = red.translate(freight_cbox, q)
    psi = alg.psi_closure(alg.goal_seeds(prob.goal), prob.axioms)
    purified = red.flatten_purify(alg.instantiate(prob.axioms, psi),
                                  prob.goal, prob)
    split = concdom.split_problem(purified)
    assert split.mixed, "monotonicity over numeric arguments must be mixed"
    for mc in split.mixed:
        assert mc.num_premises and mc.concl
    # no interval endpoint ever leaks into the concept-side problem
    for fact in split.concept.facts:
        assert not isinstance(fact.lhs, alg.Lit)
        assert not isinstance(fact.rhs, alg.Lit)


def test_split_problem_numeric_input_fact():
    cbox = parse_cbox("num up 5 sub num up 3\n? A sub A\n")
    from loctame import reduce as red
    prob = red.translate(cbox, cbox.queries[0])
    psi = alg.psi_closure(alg.goal_seeds(prob.goal), prob.axioms)
    purified = red.flatten_purify(alg.instantiate(prob.axioms, psi),
                                  prob.goal, prob)
    split = concdom.split_problem(purified)
    assert concdom.NumAtom(Fraction(3), Fraction(5)) in split.num_facts


def test_combine_solve_moves_monotonicity_conclusions(freight_cbox):
    report = pipeline.check_subsumption(freight_cbox, freight_cbox.queries[0])
    assert report.subsumed
    tags = [tag for tag, _ in report.combine.movements]
    assert tags == ["Mon(f_price)", "Mon(f_weight)"]
    assert report.combine.iterations >= 1


PLAINLY_TRUE_PREMISE = """\
decl role hw : (concept, concept, num)
A sub exists hw . (B, num up 4 and num down 3)
? A sub exists hw . (B, num up 9)
"""


@pytest.mark.parametrize("mode", ["chase", "instantiate"])
def test_a_plainly_true_numeric_premise_is_dropped(mode):
    # `num up 4 and num down 3` is the numeric bottom, which lies below
    # [9,+inf), so Mon(f_hw) needs only B <= B; the numeric premise it
    # drops must not reach the lattice layer
    cbox = parse_cbox(PLAINLY_TRUE_PREMISE)
    report, lines = pipeline.explain(cbox, cbox.queries[0], mode=mode)
    assert report.subsumed
    assert any("[Mon(f_hw): B <= B]" in line for line in lines)


NESTED_MOVEMENTS = """\
decl role hw : (concept, concept, num)
A sub exists hw . (exists hw . (B, num up 3), num up 5)
? A sub exists hw . (exists hw . (B, num up 1), num up 2)
"""


@pytest.mark.parametrize("mode", ["chase", "instantiate"])
def test_a_mixed_clause_waits_for_its_concept_premise(mode):
    # the outer Mon instance's numeric premise holds at once, but its
    # concept premise is the inner instance's conclusion, moved in round 1
    cbox = parse_cbox(NESTED_MOVEMENTS)
    report = pipeline.check_subsumption(cbox, cbox.queries[0], mode=mode)
    assert report.subsumed
    inner, outer = [report.purified.unfold(lhs)
                    for _, (lhs, _) in report.combine.movements]
    assert str(inner) == "f_hw(B, [3,+inf))"
    assert str(outer) == "f_hw(f_hw(B, [3,+inf)), [5,+inf))"
    assert report.combine.iterations == 3


def test_combine_vacuous_when_numeric_side_is_inconsistent():
    cbox = parse_cbox("num up 5 sub num down 3\n? A sub B\n")
    report = pipeline.check_subsumption(cbox, cbox.queries[0])
    assert report.subsumed
    assert report.combine.vacuous


def test_numeric_goal_decided_numerically():
    cbox = parse_cbox("num up 5 sub num up 4\n? num up 6 sub num up 2\n")
    report = pipeline.check_subsumption(cbox, cbox.queries[0])
    assert report.subsumed
    # the numeric side settles the goal: no lattice problem is ever built
    assert report.combine.result is None
    assert report.sl is None


def test_numeric_goal_refuted_numerically():
    cbox = parse_cbox("? num up 2 sub num up 6\n")
    report = pipeline.check_subsumption(cbox, cbox.queries[0])
    assert not report.subsumed
    assert report.sl is None


def test_unsupported_relation_rejected():
    with pytest.raises(concdom.UnsupportedAtom):
        concdom.num_entails([], concdom.NumAtom("a", "b", rel="lt"))


def test_numeric_premises_are_decided_once_per_mixed_clause(freight_cbox,
                                                            monkeypatch):
    queries = []
    real = concdom.num_entails

    def counting(facts, query):
        queries.append(query)
        return real(facts, query)

    monkeypatch.setattr(concdom, "num_entails", counting)
    # goal-free, so the exchange runs a second round after the movements
    report = pipeline.classify(freight_cbox).report
    assert report.combine.movements and report.combine.iterations > 1
    mixed = concdom.split_problem(report.purified).mixed
    decided = [q for q in queries if q != concdom.FALSE_ATOM]
    assert len(decided) <= sum(len(mc.num_premises) for mc in mixed)


def test_each_endpoint_atom_is_decided_once_per_problem(monkeypatch):
    decided: list[list] = []
    real = concdom.num_entails

    def counting(facts, query):
        decided[-1].append(query)
        return real(facts, query)

    monkeypatch.setattr(concdom, "num_entails", counting)
    # the numeric facts are fixed within a problem, and mixed clauses
    # share endpoint atoms
    for seed in range(60):
        rng = random.Random(13_000 + seed)
        cbox = randgen.numeric_cbox(rng)
        decided.append([])
        pipeline.check_subsumption(cbox, randgen.numeric_query(rng, cbox))
        assert len(decided[-1]) == len(set(decided[-1]))
    assert sum(map(len, decided)) > 60
