"""Acceptance gate: one test per shipping criterion, in order.

Each test is self-contained and prints one pass/fail line under
``pytest -v``.  The random corpora use fixed seeds, so every run checks
the same instances.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

from loctame import algebra as alg
from loctame import hornsat, oracle, pipeline, randgen
from loctame import interpolate as itp
from loctame import reduce as red
from loctame.algebra import Apply, Const, Leq
from loctame.oracle import BOT_KEY, bounded_model_search, completion_classify
from loctame.syntax import parse_cbox

from tests.conftest import ANATOMY_TEXT, DEFS_TEXT, FREIGHT_TEXT


def _unfold(defs: dict[str, alg.FlatTerm], name: str) -> alg.FlatTerm:
    term = defs.get(name)
    if term is None:
        return Const(name)
    if isinstance(term, Apply):
        return Apply(term.op, tuple(_unfold_t(defs, a) for a in term.args))
    if isinstance(term, alg.Meet):
        return alg.Meet(tuple(_unfold_t(defs, a) for a in term.args))
    return term


def _unfold_t(defs, t: alg.FlatTerm) -> alg.FlatTerm:
    return _unfold(defs, t.name) if isinstance(t, Const) else t


def _const_set(t: alg.FlatTerm) -> frozenset[str]:
    if isinstance(t, alg.Meet):
        return frozenset(a.name for a in t.args if isinstance(a, Const))
    if isinstance(t, Const):
        return frozenset((t.name,))
    return frozenset()


def test_criterion_01_defined_names_query_with_the_monotonicity_step():
    cbox = parse_cbox(DEFS_TEXT)
    start = time.perf_counter()
    report = pipeline.check_subsumption(cbox, cbox.queries[0])
    elapsed = time.perf_counter() - start
    assert report.subsumed
    assert elapsed < 0.1, f"took {elapsed * 1000:.1f} ms"

    # the emitted reduction must contain the monotonicity instance that
    # lifts (A1 & A2) <= (P1 & P2) to f_r1(A1 & A2) <= f_r1(P1 & P2)
    defs = report.purified.defs
    a_meet = frozenset(("A1", "A2"))
    p_meet = frozenset(("P1", "P2"))
    hits = []
    for premises, concl, tag in report.sl.clauses:
        if not tag.startswith("Mon(f_r1)") or len(premises) != 1:
            continue
        (px, py) = premises[0]
        cx, cy = concl
        ux, uy = _unfold(defs, px), _unfold(defs, py)
        fx, fy = _unfold(defs, cx), _unfold(defs, cy)
        if (_const_set(ux) == a_meet and _const_set(uy) == p_meet
                and isinstance(fx, Apply) and fx.op == "f_r1"
                and isinstance(fy, Apply) and fy.op == "f_r1"
                and _const_set(fx.args[0]) == a_meet
                and _const_set(fy.args[0]) == p_meet):
            hits.append((premises, concl, tag))
    assert hits, "reduction lacks the decisive monotonicity instance"
    rendered = red.render_reduction(report.sl)
    (premises, concl, _), = hits[:1]
    line = f"clause {premises[0][0]} <= {premises[0][1]} -> {concl[0]} <= {concl[1]}"
    assert line in rendered


def test_criterion_02_anatomy_query_with_the_exact_closure_set():
    cbox = parse_cbox(ANATOMY_TEXT)
    start = time.perf_counter()
    report = pipeline.check_subsumption(cbox, cbox.queries[0])
    elapsed = time.perf_counter() - start
    assert report.subsumed
    assert elapsed < 0.1, f"took {elapsed * 1000:.1f} ms"
    assert pipeline.emit_psi(report).splitlines() == [
        "f_cont_in(Heart)",
        "f_cont_in(HeartValve)",
        "f_cont_in(HeartWall)",
        "f_has_loc(Endocard)",
        "f_has_loc(Heart)",
        "f_has_loc(HeartValve)",
        "f_has_loc(HeartWall)",
        "f_part_of(Heart)",
    ]


def test_criterion_03_semi_galois_interpolant_verified_both_ways():
    axioms = (
        alg.Mon("f", 1),
        alg.Mon("g", 1),
        alg.K3(alg.plain_template("f", 1), (alg.plain_template("g", 1),)),
    )
    problem = itp.InterpolationProblem(
        axioms=axioms,
        a_atoms=(Leq(Const("d"), Apply("g", (Const("a"),))),
                 Leq(Const("a"), Const("c"))),
        b_atoms=(Leq(Const("b"), Const("d")),),
        neg=Leq(Apply("f", (Const("b"),)), Const("c")),
    )
    result = itp.interpolate(problem)    # re-derives both sides
    assert result.interpolant == (Leq(Apply("f", (Const("d"),)), Const("c")),)
    for atom in result.interpolant:
        assert itp.entails(problem.axioms, problem.a_atoms, atom)
    assert itp.entails(problem.axioms,
                       tuple(result.interpolant) + problem.b_atoms,
                       problem.neg)


def test_criterion_04_two_sorted_query_via_the_combination_loop():
    cbox = parse_cbox(FREIGHT_TEXT)
    report, lines = pipeline.explain(cbox, cbox.queries[0])
    assert report.subsumed
    assert [tag for tag, _ in report.combine.movements] == \
        ["Mon(f_price)", "Mon(f_weight)"]
    log = "\n".join(lines)
    assert ("moved from the numeric side [Mon(f_price)]: "
            "f_price((-inf,5]) <= f_price((-inf,7])") in log
    assert ("moved from the numeric side [Mon(f_weight)]: "
            "f_weight([3,+inf)) <= f_weight([2,+inf))") in log


def _corpus_seeds(count: int, base: int) -> list[int]:
    return [base + i for i in range(count)]


def test_criterion_05_verdicts_match_the_completion_oracle():
    start = time.perf_counter()
    pairs = disagreements = 0
    for seed in _corpus_seeds(1000, 1_000_000):
        cbox = randgen.normal_cbox(random.Random(seed), max_names=12,
                                   max_roles=4, max_axioms=30)
        cls = pipeline.classify(cbox)
        subs = completion_classify(cbox)
        for a in cls.names:
            below = subs[a]
            inconsistent = BOT_KEY in below
            for b in cls.names:
                pairs += 1
                if cls.holds(a, b) != (b in below or inconsistent):
                    disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert pairs >= 1000
    assert elapsed < 60, f"took {elapsed:.1f} s"


def test_criterion_06_instantiate_and_chase_modes_agree():
    for seed in _corpus_seeds(1000, 1_000_000):
        cbox = randgen.normal_cbox(random.Random(seed), max_names=12,
                                   max_roles=4, max_axioms=30)
        chase = pipeline.classify(cbox, mode=red.CHASE)
        inst = pipeline.classify(cbox, mode=red.INSTANTIATE)
        for a in chase.names:
            for b in chase.names:
                assert chase.holds(a, b) == inst.holds(a, b), (seed, a, b)
    extended = 0
    for seed in _corpus_seeds(200, 7_000_000):
        rng = random.Random(seed)
        cbox = randgen.extended_cbox(rng)
        query = randgen.random_query(rng, cbox)
        lhs = pipeline.check_subsumption(cbox, query, mode=red.CHASE)
        rhs = pipeline.check_subsumption(cbox, query, mode=red.INSTANTIATE)
        assert lhs.subsumed == rhs.subsumed, seed
        extended += 1
    assert extended >= 200


def test_criterion_07_instantiated_clause_count_grows_cubically():
    sizes = (50, 100, 200, 400)
    counts: dict[int, int] = {}
    for n in sizes:
        cbox = randgen.scaling_family(n)
        prob = red.translate(cbox, None)
        psi = alg.psi_closure(alg.goal_seeds(prob.goal), prob.axioms)
        purified = red.flatten_purify(
            alg.instantiate(prob.axioms, psi), prob.goal, prob)
        counts[n] = red.sl_clause_count(purified)
    coeffs = [counts[n] / n**3 for n in sizes]
    assert max(coeffs) <= 2 * min(coeffs), coeffs
    for n in sizes[:-1]:
        ratio = counts[2 * n] / counts[n]
        assert ratio <= 9, (n, ratio)


def test_criterion_08_premise_counter_work_is_bounded_by_occurrences():
    audited = 0
    for seed in _corpus_seeds(200, 3_000_000):
        rng = random.Random(seed)
        cbox = randgen.normal_cbox(rng, max_names=8, max_roles=3,
                                   max_axioms=16)
        query = randgen.random_query(rng, cbox)
        report = pipeline.check_subsumption(cbox, query)
        result = report.combine.result
        if result is None:
            continue
        stats = result.stats
        assert stats.decrements <= stats.premise_occurrences, seed
        audited += 1
    for seed in _corpus_seeds(100, 4_000_000):
        rng = random.Random(seed)
        cbox = randgen.extended_cbox(rng)
        query = randgen.random_query(rng, cbox)
        report = pipeline.check_subsumption(cbox, query, mode=red.INSTANTIATE)
        result = report.combine.result
        if result is None:
            continue
        stats = result.stats
        assert stats.decrements <= stats.premise_occurrences, seed
        audited += 1
    assert audited >= 250


def test_criterion_09_closure_is_idempotent_monotone_and_tight():
    checked = tight = 0
    for i, seed in enumerate(_corpus_seeds(500, 5_000_000)):
        rng = random.Random(seed)
        allow_ri = i % 2 == 0
        axioms, seeds = randgen.algebra_problem(rng, allow_ri=allow_ri)
        closure = alg.psi_closure(seeds, axioms)
        # idempotence: closing the closure adds nothing
        assert set(alg.psi_closure(closure, axioms)) == set(closure), seed
        # monotonicity: a seed subset closes inside the full closure
        sub = [t for t in seeds if rng.random() < 0.5]
        assert set(alg.psi_closure(sub, axioms)) <= set(closure), seed
        checked += 1
        if all(isinstance(ax, alg.Mon) for ax in axioms):
            assert set(closure) == set(seeds), seed
            tight += 1
    assert checked == 500
    assert tight >= 200


def test_criterion_10_no_countermodel_ever_refutes_a_subsumed_verdict():
    searched = subsumed = 0
    for seed in _corpus_seeds(500, 6_000_000):
        rng = random.Random(seed)
        cbox = randgen.extended_cbox(rng)
        query = randgen.random_query(rng, cbox)
        report = pipeline.check_subsumption(cbox, query)
        searched += 1
        if not report.subsumed:
            continue
        subsumed += 1
        probe = replace(cbox, queries=(query,))
        model = bounded_model_search(probe, query, max_size=3)
        assert model is None, (seed, str(model))
    assert searched >= 500
    assert subsumed >= 50


def test_criterion_11_every_satisfiable_verdict_passes_the_model_audit():
    audited = 0
    for seed in _corpus_seeds(250, 8_000_000):
        rng = random.Random(seed)
        cbox = randgen.normal_cbox(rng, max_names=10, max_roles=3,
                                   max_axioms=20)
        query = randgen.random_query(rng, cbox)
        for mode in (red.CHASE, red.INSTANTIATE):
            report = pipeline.check_subsumption(cbox, query, mode=mode)
            result = report.combine.result
            if result is None or not result.sat or report.sl is None:
                continue
            hornsat.model_check(result, report.sl.facts,
                                report.sl.clauses, report.sl.goal)
            audited += 1
    for seed in _corpus_seeds(100, 9_000_000):
        rng = random.Random(seed)
        cbox = randgen.extended_cbox(rng)
        query = randgen.random_query(rng, cbox)
        report = pipeline.check_subsumption(cbox, query)
        result = report.combine.result
        if result is None or not result.sat or report.sl is None:
            continue
        hornsat.model_check(result, report.sl.facts,
                            report.sl.clauses, report.sl.goal)
        audited += 1
    assert audited >= 100
