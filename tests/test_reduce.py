"""Translation, purification, and lattice-theory unrolling."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from loctame import algebra as alg
from loctame import interpolate as itp, pipeline, randgen
from loctame import reduce as red
from loctame.syntax import parse_cbox

from tests.conftest import purified_problem


def test_translate_names_and_operators(defs_cbox):
    prob = red.translate(defs_cbox, defs_cbox.queries[0])
    assert set(prob.ops) == {"f_r1", "f_r2"}
    # each operator renders back as the role it interprets
    assert {itp._concept_of(alg.Apply(op, (alg.Const("A"),))).role
            for op in prob.ops} == {"r1", "r2"}
    # one assumption per concept axiom, in axiom order, plus the target
    assert len(prob.goal.assumptions) == len(defs_cbox.gcis)
    assert prob.goal.target is not None
    assert str(prob.goal.target.rhs) == "A3"


def test_translate_compositions_become_k2(anatomy_cbox):
    prob = red.translate(anatomy_cbox, anatomy_cbox.queries[0])
    kinds = {type(ax).__name__ for ax in prob.axioms}
    assert kinds == {"Mon", "K1", "K2"}
    # part_of sub cont_in is an unguarded K1
    k1 = [ax for ax in prob.axioms if isinstance(ax, alg.K1)]
    assert any(ax.g.op == "f_part_of" and ax.h.op == "f_cont_in"
               for ax in k1)


def test_long_chain_introduces_helper_operator():
    cbox = parse_cbox("role r o s o t sub u\nA sub B\n? A sub B\n")
    prob = red.translate(cbox, cbox.queries[0])
    helpers = [op for op in prob.ops if op.startswith("f_" + red.CHAIN_ROLE_PREFIX)]
    assert helpers, "a length-3 composition needs an intermediate operator"


def test_flatten_purify_definitions_unfold(defs_cbox):
    q = defs_cbox.queries[0]
    prob = red.translate(defs_cbox, q)
    purified = purified_problem(prob)
    # every proxy unfolds back to a term over the original constants
    proxies = [c for c, name in purified.names.items()
               if name in purified.defs]
    assert len(proxies) == len(purified.defs)
    for proxy in proxies:
        unfolded = purified.unfold(proxy)
        assert all(not c.startswith("_t") for c in alg.symbols([unfolded])[0])
    # facts follow assumption order
    assert len(purified.facts) == len(prob.goal.assumptions)
    assert purified.target is not None


def test_purified_atoms_are_flat(defs_cbox):
    q = defs_cbox.queries[0]
    prob = red.translate(defs_cbox, q)
    purified = purified_problem(prob)
    # each side is a constant (a name or a proxy) or a literal
    for atom in purified.facts + [purified.target]:
        for side in atom:
            assert side in purified.names or purified.is_lit(side)


def _purified(cbox, query):
    return purified_problem(red.translate(cbox, query))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_clause_count_matches_materialization(seed):
    rng = random.Random(seed)
    cbox = randgen.normal_cbox(rng, max_names=6, max_axioms=10)
    purified = _purified(cbox, randgen.random_query(rng, cbox))
    sl = red.sl_instantiate(purified, red.INSTANTIATE)
    assert red.sl_clause_count(purified) == len(sl.clauses)


def test_clause_count_subtracts_a_clause_that_is_a_transitivity_instance():
    # the K2 instance C <= f_s(f_r(C)); f_r(C) <= C -> f_r(C) <= f_s(f_r(C))
    # is also the transitivity instance through C, and is listed once
    cbox = parse_cbox("role r o s sub s guard C\nA sub exists r . C\n"
                      "B sub exists s . exists r . C\n? A sub B\n")
    purified = _purified(cbox, cbox.queries[0])
    sl = red.sl_instantiate(purified, red.INSTANTIATE)
    m = len(red.lattice_of(purified).universe)
    assert m == 7
    assert sum(1 for *_, tag in sl.clauses if tag == "trans") \
        == m * (m - 1) * (m - 2) - 1
    (premises, concl), = [(p, c) for p, c, tag in sl.clauses if tag == "K2"]
    show = lambda atom: pipeline.render_atom(purified, atom)  # noqa: E731
    assert sorted(map(show, premises)) == ["C <= f_s(f_r(C))", "f_r(C) <= C"]
    assert show(concl) == "f_r(C) <= f_s(f_r(C))"
    assert red.sl_clause_count(purified) == len(sl.clauses)


def test_numeric_conjunction_intersects_to_one_literal():
    cbox = parse_cbox("decl role hw : (concept, num)\n"
                      "A sub exists hw . (num [1, 2] and num up 0)\n")
    prob = red.translate(cbox)
    rhs = prob.goal.assumptions[0].rhs
    assert isinstance(rhs, alg.Apply)
    assert str(rhs.args[0]) == "[1,2]"


def test_unfold_keeps_shared_subterms_shared():
    # each meet's operands are the previous constant twice: unfolded as a
    # tree the term doubles in size with every level
    table = red.PurifiedProblem()
    c = table.leaf(alg.Const("c0"))
    for _ in range(12):
        c = table.define(table.compound(alg.MEET, (c, c)))
    u = table.unfold(c)
    assert u.args[0] is u.args[1]
    assert table.unfold(c) is u


def test_sl_instantiate_fact_labels(anatomy_cbox):
    purified = _purified(anatomy_cbox, anatomy_cbox.queries[0])
    sl = red.sl_instantiate(purified, red.CHASE)
    labels = {lbl.split(":")[0] for _, lbl in sl.facts}
    assert labels == {"input", "refl", "bound", "meet-below"}
    universe = red.lattice_of(purified).universe
    assert {alg.TOP_CONST, alg.BOT_CONST} <= {sl.names[x] for x in universe}
    for x in universe:
        assert ((x, x)) in {a for a, _ in sl.facts}


def test_instantiate_mode_materializes_transitivity(anatomy_cbox):
    purified = _purified(anatomy_cbox, anatomy_cbox.queries[0])
    chase = red.sl_instantiate(purified, red.CHASE)
    inst = red.sl_instantiate(purified, red.INSTANTIATE)
    tags_chase = {t for _, _, t in chase.clauses}
    tags_inst = {t for _, _, t in inst.clauses}
    assert "trans" not in tags_chase
    assert "trans" in tags_inst
    m = len(red.lattice_of(purified).universe)
    n_trans = sum(1 for _, _, t in inst.clauses if t == "trans")
    # all ordered triples, minus instances colliding with purified clauses
    assert n_trans <= m * (m - 1) * (m - 2)
    assert n_trans > (m - 2) * (m - 1) * (m - 2) // 2


def test_reduction_text_round_trip(anatomy_cbox):
    purified = _purified(anatomy_cbox, anatomy_cbox.queries[0])
    sl = red.sl_instantiate(purified, red.CHASE)
    back = red.parse_reduction(red.render_reduction(sl))
    name = lambda atom: tuple(map(sl.names.__getitem__, atom))  # noqa: E731
    assert {a for a, _ in back.facts} == {name(a) for a, _ in sl.facts}
    assert {(p, c) for p, c, _ in back.clauses} == \
        {(tuple(map(name, p)), name(c)) for p, c, _ in sl.clauses}
    assert back.goal == (name(sl.goal) if sl.goal is not None else None)


def test_parse_reduction_rejects_garbage():
    import pytest
    from loctame.syntax import CheckError
    for bad in ["fact a < b", "clause a <= b", "goal a <= b\ngoal c <= d",
                "lemma a <= b"]:
        with pytest.raises(CheckError):
            red.parse_reduction(bad + "\n")


def test_numeric_atoms_stay_off_the_lattice(freight_cbox):
    report = pipeline.check_subsumption(freight_cbox, freight_cbox.queries[0])
    sl = report.sl
    assert sl is not None
    for atom, _ in sl.facts:
        a, b = (sl.names[c] for c in atom)
        assert not a.startswith("(") and not b.startswith("(")


def test_purify_walks_each_term_object_once(monkeypatch):
    # every mention of a term object purified before is answered from the
    # memo; re-walking the whole subterm on each mention made about a
    # million calls here (60 per atom side), growing with the depth
    depth = 40
    deep = "exists r . (B and " * depth + "A" + ")" * depth
    cbox = parse_cbox(f"X sub {deep}\n? X sub {deep}\n")
    report = pipeline.check_subsumption(cbox, cbox.queries[0])
    calls = 0
    purify = red.PurifiedProblem.purify

    def counting(self, t):
        nonlocal calls
        calls += 1
        return purify(self, t)

    monkeypatch.setattr(red.PurifiedProblem, "purify", counting)
    purified = purified_problem(report.problem)
    sides = 2 * (len(purified.facts) + 1
                 + sum(len(i.premises) + 1 for i in purified.clauses))
    # one call per atom side, plus one per argument of each term walked
    assert calls < sides + 6 * len(purified.defs)
