"""End-to-end checks of the full reduction pipeline on the worked examples."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loctame import algebra as alg
from loctame import interpolate as interp
from loctame import oracle, pipeline, randgen, syntax
from loctame import reduce as red
from loctame.syntax import parse_cbox


def _meet_args(t: alg.FlatTerm) -> frozenset:
    return frozenset(t.args) if isinstance(t, alg.Meet) else frozenset((t,))


def test_defs_query_is_subsumed_with_six_closure_terms(defs_cbox):
    report = pipeline.check_subsumption(defs_cbox, defs_cbox.queries[0])
    assert report.subsumed
    assert len(report.psi) == 6


def test_defs_reduction_contains_the_decisive_monotonicity_step(defs_cbox):
    report = pipeline.check_subsumption(defs_cbox, defs_cbox.queries[0])
    a = _meet_args(alg.Meet((alg.Const("A1"), alg.Const("A2"))))
    p = _meet_args(alg.Meet((alg.Const("P1"), alg.Const("P2"))))
    table = report.purified
    instances = [
        inst._replace(premises=tuple(map(table.leq, inst.premises)),
                      conclusion=table.leq(inst.conclusion))
        for inst in alg.instantiate(
            table, report.problem.axioms,
            alg.terms_by_op(table, report.psi_ids))]
    hits = [
        inst for inst in instances
        if inst.tag.startswith("Mon") and len(inst.premises) == 1
        and isinstance(inst.conclusion.lhs, alg.Apply)
        and inst.conclusion.lhs.op == "f_r1"
        and isinstance(inst.conclusion.rhs, alg.Apply)
        and inst.conclusion.rhs.op == "f_r1"
        and _meet_args(inst.premises[0].lhs) == a
        and _meet_args(inst.premises[0].rhs) == p
        and _meet_args(inst.conclusion.lhs.args[0]) == a
        and _meet_args(inst.conclusion.rhs.args[0]) == p
    ]
    assert hits, "the reduction must instantiate monotonicity on the two meets"


def test_anatomy_closure_is_exactly_the_eight_operator_terms(anatomy_cbox):
    report = pipeline.check_subsumption(anatomy_cbox, anatomy_cbox.queries[0])
    assert report.subsumed
    got = {str(t) for t in report.psi if isinstance(t, alg.Apply)}
    assert got == {
        "f_cont_in(Heart)",
        "f_cont_in(HeartValve)",
        "f_cont_in(HeartWall)",
        "f_has_loc(Endocard)",
        "f_has_loc(Heart)",
        "f_has_loc(HeartValve)",
        "f_has_loc(HeartWall)",
        "f_part_of(Heart)",
    }
    assert pipeline.emit_psi(report) == "\n".join(sorted(got)) + "\n"


def test_freight_movements_name_both_monotonicity_steps(freight_cbox):
    report = pipeline.check_subsumption(freight_cbox, freight_cbox.queries[0])
    assert report.subsumed
    assert [t for t, _ in report.combine.movements] == \
        ["Mon(f_price)", "Mon(f_weight)"]
    _, lines = pipeline.explain(freight_cbox, freight_cbox.queries[0])
    text = "\n".join(lines)
    assert "moved from the numeric side" in text
    assert "f_price((-inf,5]) <= f_price((-inf,7])" in text
    assert "f_weight([3,+inf)) <= f_weight([2,+inf))" in text


def test_routes_subsumption_holds_in_both_modes(routes_cbox):
    q = routes_cbox.queries[0]
    for mode in (red.CHASE, red.INSTANTIATE):
        assert pipeline.check_subsumption(routes_cbox, q, mode=mode).subsumed


def test_goal_without_support_is_refuted(defs_cbox):
    q = parse_cbox("? A3 sub P1\n").queries[0]
    report = pipeline.check_subsumption(defs_cbox, q)
    assert not report.subsumed


def test_json_report_schema(anatomy_cbox):
    report = pipeline.check_subsumption(anatomy_cbox, anatomy_cbox.queries[0])
    body = pipeline.json_report(report)
    assert set(body) == {"query", "verdict", "psi_size", "clause_count",
                         "micros_per_stage", "stats"}
    assert body["verdict"] == "subsumed"
    assert body["psi_size"] == 8
    assert body["clause_count"] > 0
    assert all(isinstance(v, int) for v in body["micros_per_stage"].values())
    assert set(body["stats"]) >= {"atoms_interned", "atoms_derived",
                                  "clauses_built", "rules_fired"}
    assert all(isinstance(v, int) for v in body["stats"].values())


def test_micros_split_the_solve_stage(anatomy_cbox, freight_cbox):
    report = pipeline.check_subsumption(anatomy_cbox, anatomy_cbox.queries[0])
    assert set(report.micros) == {"translate", "closure", "instantiate",
                                  "purify", "sl_instantiate", "build",
                                  "propagate"}
    # mixed clauses add the exchange with the numeric side
    report = pipeline.check_subsumption(freight_cbox, freight_cbox.queries[0])
    assert "exchange" in report.micros


def test_stats_count_the_solver_work(anatomy_cbox):
    report = pipeline.check_subsumption(anatomy_cbox, anatomy_cbox.queries[0])
    stats = report.stats
    solver = report.combine.result.solver
    assert stats["atoms_interned"] == len(solver.atom_keys)
    # the least model, with the unit facts the chase does not intern
    assert stats["atoms_derived"] == len(report.combine.result.model())
    assert 0 < len(solver.reasons) <= stats["atoms_interned"]
    assert len(solver.reasons) < stats["atoms_derived"]
    assert stats["clauses_built"] == len(report.combine.sl.clauses)
    # the chase fired Mon and meet introduction without materializing them
    assert stats["rules_fired"] > 0 and stats["trigger_probes"] > 0
    assert stats["decrements"] <= stats["premise_occurrences"]


def test_explain_names_a_clause_for_every_derivation_step(anatomy_cbox):
    report, lines = pipeline.explain(anatomy_cbox, anatomy_cbox.queries[0])
    assert report.subsumed
    steps = [ln for ln in lines if " <= " in ln]
    assert steps, "a subsumed verdict must come with derivation steps"
    for ln in steps:
        assert "[" in ln and ln.rstrip().endswith("]"), f"unlabeled step: {ln}"
    # the last step is the goal itself
    assert steps[-1].startswith("Endocarditis <= Heartdisease")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**7))
def test_classification_is_reflexive_and_transitive(seed):
    cbox = randgen.normal_cbox(random.Random(seed), max_names=8,
                               max_roles=3, max_axioms=14)
    cls = pipeline.classify(cbox)
    below = {a: {b for b in cls.names if cls.holds(a, b)} for a in cls.names}
    for a in cls.names:
        assert a in below[a]
        for b in below[a]:
            assert below[b] <= below[a]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**7))
def test_classification_matches_the_completion_oracle(seed):
    cbox = randgen.normal_cbox(random.Random(seed), max_names=8,
                               max_roles=3, max_axioms=14)
    cls = pipeline.classify(cbox)
    subs = oracle.completion_classify(cbox)
    for a in cls.names:
        for b in cls.names:
            expect = b in subs[a] or oracle.BOT_KEY in subs[a]
            assert cls.holds(a, b) == expect, (a, b)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**7))
def test_both_modes_agree_on_extended_inputs(seed):
    rng = random.Random(seed)
    cbox = randgen.extended_cbox(rng)
    query = randgen.random_query(rng, cbox)
    chase = pipeline.check_subsumption(cbox, query, mode=red.CHASE)
    inst = pipeline.check_subsumption(cbox, query, mode=red.INSTANTIATE)
    assert chase.subsumed == inst.subsumed


def test_emit_psi_is_sorted(defs_cbox):
    report = pipeline.check_subsumption(defs_cbox, defs_cbox.queries[0])
    lines = pipeline.emit_psi(report).splitlines()
    assert lines == sorted(lines)
    assert len(lines) == 6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**7))
def test_pairs_read_off_the_model_are_the_holding_pairs(seed):
    rng = random.Random(seed)
    cbox = (randgen.numeric_cbox(rng) if seed % 3 == 0
            else randgen.normal_cbox(rng, max_names=8, max_roles=3,
                                     max_axioms=14))
    cls = pipeline.classify(cbox)
    assert cls.pairs() == [(a, b) for a in cls.names for b in cls.names
                           if a != b and cls.holds(a, b)]


def test_pairs_of_a_vacuous_classification_are_all_pairs():
    cls = pipeline.classify(parse_cbox("num up 5 sub num down 3\nA sub B\nC sub A\n"))
    assert cls.report.combine.vacuous
    assert cls.pairs() == [(a, b) for a in cls.names for b in cls.names if a != b]


def test_every_name_subsumes_itself():
    # X occurs only in the query, so it is no constant of the reduction
    cbox = parse_cbox("A sub B\n? X sub A\n")
    cls = pipeline.classify(cbox)
    assert cls.holds("X", "X") and cls.holds("A", "A")
    assert not cls.holds("X", "A")
    assert cls.pairs() == [("A", "B")]
    query = syntax.Query(syntax.Name("X"), syntax.Name("X"))
    assert pipeline.subsumes(cbox, query)


CHAINS_TEXT = """\
role r o s o t sub u
role u o r o s sub t
A sub exists r . exists s . exists t . B
C sub exists u . exists r . exists s . D
? A sub exists u . B
? C sub exists t . D
? A sub C
"""


@pytest.mark.parametrize("mode", [red.CHASE, red.INSTANTIATE])
def test_the_queries_of_a_file_are_decided_as_one_by_one(mode):
    # check_queries validates the CBox once, and every report equals the
    # one-query report
    cbox = parse_cbox(CHAINS_TEXT)
    together = pipeline.check_queries(cbox, cbox.queries, mode=mode)
    alone = [pipeline.check_subsumption(cbox, q, mode=mode)
             for q in cbox.queries]
    assert [r.subsumed for r in together] == [True, True, False]
    for a, b in zip(together, alone):
        assert a.query == b.query and a.subsumed == b.subsumed
        assert pipeline.emit_psi(a) == pipeline.emit_psi(b)
        assert pipeline.emit_reduction(a) == pipeline.emit_reduction(b)


def test_a_query_the_cbox_lacks_is_sort_checked():
    cbox = parse_cbox("decl role price : (concept, num)\nA sub B\n")
    [query] = parse_cbox("decl role price : (concept, num)\n"
                         "? A sub exists price . B\n").queries
    with pytest.raises(syntax.CheckError, match="filler of 'price'"):
        pipeline.check_queries(cbox, (query,))


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_are_still_defined():
    # bench/tracing.py wraps each (owner, attr) it lists by looking it up
    # in owner.__dict__, so a rename breaks `bench/run.py --trace 1`
    tracing = _load_tracing()
    missing = [name for owner, attr, name, _ in tracing.WRAPPED
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_functions_are_still_reached():
    # a traced function that is defined but no longer called would leave
    # its layer reading zero without any error
    from tests.conftest import ANATOMY_TEXT, FREIGHT_TEXT, SPLIT_TEXT
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        freight = syntax.parse_cbox(FREIGHT_TEXT)
        pipeline.explain(freight, freight.queries[0])
        numeric = syntax.parse_cbox("num up 5 sub num up 4\n"
                                    "? num up 6 sub num up 2\n")
        pipeline.check_subsumption(numeric, numeric.queries[0])
        pipeline.classify(syntax.parse_cbox(ANATOMY_TEXT)).pairs()
        interp.interpolate_input(syntax.parse_interpolation_input(SPLIT_TEXT))
    finally:
        tracer.restore()
    recorded = {span[0] for span in tracer.spans}
    assert [name for _, _, name, _ in tracing.WRAPPED
            if name not in recorded] == []


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**7))
def test_clause_count_is_the_size_of_the_full_reduction(seed):
    rng = random.Random(seed)
    cbox = randgen.normal_cbox(rng, max_names=8, max_roles=3, max_axioms=14)
    reports = [pipeline.classify(cbox).report]
    for make_cbox, make_query in ((randgen.extended_cbox, randgen.random_query),
                                  (randgen.numeric_cbox, randgen.numeric_query)):
        cbox = make_cbox(rng)
        query = make_query(rng, cbox)
        reports += [pipeline.check_subsumption(cbox, query, mode=mode)
                    for mode in (red.CHASE, red.INSTANTIATE)]
    for report in reports:
        sl = report.sl
        assert report.clause_count == (len(sl.clauses) if sl else 0)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="known defect 4: no axiom puts an operator term "
                          "with an empty filler below bottom")
def test_bottom_under_an_existential_is_bottom():
    # an instance of A needs an r-successor in bot (or a p-value in an
    # empty interval), so A is empty under the standard semantics, and
    # the completion oracle agrees; the reduction has no f(..., bot, ...)
    # <= bot, so both modes answer `not subsumed`
    plain = parse_cbox("A sub exists r . bot\n? A sub bot\n")
    assert oracle.BOT_KEY in oracle.completion_classify(plain)["A"]
    numeric = parse_cbox("decl role p : (concept, num)\n"
                         "A sub exists p . (num up 3 and num down 1)\n"
                         "? A sub bot\n")
    assert [pipeline.subsumes(cbox, cbox.queries[0], mode)
            for cbox in (plain, numeric)
            for mode in (red.CHASE, red.INSTANTIATE)] == [True] * 4
