"""Numeric decisions at split time and the two-sorted combination loop."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loctame import algebra as alg
from loctame import concdom, oracle, pipeline, randgen
from loctame.syntax import CONCEPT, Interval, NUM, parse_cbox

from tests.conftest import purified_problem


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
    one, three, five = Fraction(1), Fraction(3), Fraction(5)
    facts = [concdom.NumAtom(one, three), concdom.NumAtom(three, five)]
    # consistent ground facts entail exactly the true comparisons
    assert concdom.num_entails(facts, concdom.NumAtom(one, five))
    assert not concdom.num_entails(facts, concdom.NumAtom(five, one))


def test_num_entails_vacuous_on_inconsistency():
    facts = [concdom.NumAtom(Fraction(1), Fraction(3)),
             concdom.NumAtom(Fraction(7), Fraction(2))]
    # 7 <= 2 is false, so everything follows
    assert concdom.num_entails(facts, concdom.NumAtom(Fraction(5), Fraction(1)))
    assert concdom.num_entails(facts[1:], concdom.FALSE_ATOM)


def test_num_entails_literal_order_is_free():
    assert concdom.num_entails([], concdom.NumAtom(Fraction(1), Fraction(2)))
    assert not concdom.num_entails([], concdom.NumAtom(Fraction(2), Fraction(1)))


@pytest.mark.parametrize("facts, query", [
    ([], concdom.NumAtom("x", Fraction(2))),
    ([], concdom.NumAtom(Fraction(2), "x")),
    # a named fact is rejected even where the query alone would decide
    ([concdom.NumAtom("x", Fraction(2))],
     concdom.NumAtom(Fraction(1), Fraction(2))),
])
def test_num_entails_rejects_a_named_endpoint(facts, query):
    # no input produces a named numeric term: every numeric position holds
    # an interval literal or the numeric bottom
    with pytest.raises(concdom.UnsupportedAtom):
        concdom.num_entails(facts, query)


def _random_num_problem(rng: random.Random):
    terms = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))]
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


def _is_numeric(atom, purified) -> bool:
    side = atom[0]
    return purified.is_lit(side) or purified.sorts[side] == NUM


def _numeric_premise_atoms(purified) -> list:
    """The endpoint atoms of every numeric premise of the clauses."""
    out = []
    for inst in purified.clauses:
        for p in inst.premises:
            if _is_numeric(p, purified):
                lhs, rhs = purified.leq(p).lhs, purified.leq(p).rhs
                out += concdom.convert_leq(lhs, rhs) or []
    return out


def test_split_problem_sorts_atoms(freight_cbox):
    q = freight_cbox.queries[0]
    from loctame import reduce as red
    purified = purified_problem(red.translate(freight_cbox, q))
    split = concdom.split_problem(purified)
    assert split.mixed, "monotonicity over numeric arguments must be mixed"
    numeric = {inst.tag for inst in purified.clauses
               if any(_is_numeric(p, purified) for p in inst.premises)}
    for mc in split.mixed:
        # what is left of a clause with numeric premises: concept atoms only
        assert mc.tag in numeric and mc.concl
        for a, b in (*mc.concept_premises, mc.concl):
            assert purified.sorts[a] == purified.sorts[b] == CONCEPT
    # no interval endpoint ever leaks into the concept-side problem
    for fact in split.concept.facts:
        assert not isinstance(purified.leq(fact).lhs, alg.Lit)
        assert not isinstance(purified.leq(fact).rhs, alg.Lit)


def test_split_problem_numeric_input_fact():
    cbox = parse_cbox("num up 5 sub num up 3\n? A sub A\n")
    from loctame import reduce as red
    purified = purified_problem(red.translate(cbox, cbox.queries[0]))
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
    assert queries and len(queries) == len(set(queries))
    assert len(queries) <= len(_numeric_premise_atoms(report.purified))


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


NUMERIC_SORT_INPUTS = [
    "num up 5 sub num up 3\n? A sub A\n",           # a fact that holds
    "num up 3 sub num up 5\n? A sub B\n",           # one that fails
    "num [1, 2] sub num down 0\n? A sub B\n",
    "num up 4 and num down 3 sub num up 9\n? A sub B\n",
    "? num up 6 sub num up 2\n",
    "? num up 2 sub num up 6\n",
    "? num up 4 and num down 3 sub num [1, 2]\n",
    "? num [1, 2] sub num up 4 and num down 3\n",
    PLAINLY_TRUE_PREMISE,
    NESTED_MOVEMENTS,
]


def _endpoints_seen(run) -> list:
    """Every endpoint the pipeline hands num_entails while run() runs."""
    seen = []
    real = concdom.num_entails

    def recording(facts, query):
        facts = list(facts)
        for atom in (*facts, query):
            seen.extend((atom.lhs, atom.rhs))
        return real(facts, query)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concdom, "num_entails", recording)
        run()
    return seen


@pytest.mark.parametrize("text", NUMERIC_SORT_INPUTS)
def test_numeric_sort_inclusions_reach_num_entails_as_rationals(text):
    cbox = parse_cbox(text)
    seen = _endpoints_seen(lambda: [
        pipeline.check_subsumption(cbox, cbox.queries[0], mode=mode)
        for mode in ("chase", "instantiate")])
    assert all(type(x) is Fraction for x in seen)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**7))
def test_random_numeric_inputs_reach_num_entails_as_rationals(seed):
    rng = random.Random(seed)
    cbox = randgen.numeric_cbox(rng)
    query = randgen.numeric_query(rng, cbox)
    seen = _endpoints_seen(lambda: (pipeline.check_subsumption(cbox, query),
                                    pipeline.classify(cbox)))
    assert all(type(x) is Fraction for x in seen)
