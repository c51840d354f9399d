"""Independent deciders: completion saturation and bounded model search."""

from __future__ import annotations

import pytest

from loctame import oracle
from loctame.oracle import (BOT_KEY, TOP_KEY, UnsupportedConstruct,
                            bounded_model_search, completion_classify,
                            concept_extension)
from loctame.syntax import parse_cbox, resolve_roles


def test_completion_follows_a_chain():
    cbox = parse_cbox(
        "A sub B\nB sub C\nA sub exists r . D\nexists r . D sub E\n")
    subs = completion_classify(cbox)
    assert {"B", "C", "E"} <= subs["A"]
    assert "A" not in subs["B"]


def test_completion_conjunction_rule():
    cbox = parse_cbox("A sub B1\nA sub B2\nB1 and B2 sub C\n")
    subs = completion_classify(cbox)
    assert "C" in subs["A"]
    assert "C" not in subs["B1"]


def test_completion_role_composition():
    cbox = parse_cbox(
        "role r o s sub t\n"
        "A sub exists r . B\nB sub exists s . C\nexists t . C sub D\n")
    subs = completion_classify(cbox)
    assert "D" in subs["A"]


def test_completion_role_inclusion():
    cbox = parse_cbox("role r sub s\nA sub exists r . B\nexists s . B sub C\n")
    assert "C" in completion_classify(cbox)["A"]


def test_completion_bottom_makes_everything_hold():
    subs = completion_classify(parse_cbox("A sub bot\n"))
    assert BOT_KEY in subs["A"]
    assert BOT_KEY not in subs[TOP_KEY]


def test_completion_keys_cover_all_names():
    subs = completion_classify(parse_cbox("A sub B\nexists r . B sub C\n"))
    assert {"A", "B", "C", TOP_KEY, BOT_KEY} <= set(subs)


def test_completion_rejects_non_normal_input(defs_cbox):
    with pytest.raises(UnsupportedConstruct):
        completion_classify(defs_cbox)          # nested existentials


def test_completion_rejects_restrictions(routes_cbox):
    with pytest.raises(UnsupportedConstruct):
        completion_classify(routes_cbox)


def test_completion_rejects_tuple_fillers(freight_cbox):
    with pytest.raises(UnsupportedConstruct):
        completion_classify(freight_cbox)


def test_search_size_bound_is_validated():
    cbox = parse_cbox("? A sub B\n")
    for bad in (0, 5, -1):
        with pytest.raises(ValueError):
            bounded_model_search(cbox, cbox.queries[0], max_size=bad)


def test_trivial_countermodel_has_one_element():
    cbox = parse_cbox("? A sub B\n")
    model = bounded_model_search(cbox, cbox.queries[0], max_size=3)
    assert model is not None
    assert model.size == 1
    assert 0 in model.concepts.get("A", frozenset())
    assert 0 not in model.concepts.get("B", frozenset())


def test_countermodel_respects_role_inclusions():
    cbox = parse_cbox("role r sub s\nA sub exists r . B\n? A sub exists s . C\n")
    q = cbox.queries[0]
    model = bounded_model_search(cbox, q, max_size=3)
    assert model is not None
    assert model.roles.get("r", frozenset()) <= model.roles.get("s", frozenset())
    env = resolve_roles(cbox)
    assert 0 in concept_extension(q.lhs, model, env)
    assert 0 not in concept_extension(q.rhs, model, env)


def test_no_countermodel_for_anatomy_subsumption(anatomy_cbox):
    assert bounded_model_search(anatomy_cbox, anatomy_cbox.queries[0],
                                max_size=3) is None


def test_no_countermodel_for_ternary_route(routes_cbox):
    assert bounded_model_search(routes_cbox, routes_cbox.queries[0],
                                max_size=3) is None


def test_countermodel_for_unguarded_ternary_route(routes_cbox):
    # dropping the guard requirement is not enough: without the restriction
    # axiom the binary projection is not forced
    from dataclasses import replace
    weakened = replace(routes_cbox, restrictions=(),
                       role_incls=tuple(
                           ri for ri in routes_cbox.role_incls
                           if "rp" not in (ri.rhs, *ri.chain)))
    q = routes_cbox.queries[0]
    model = bounded_model_search(weakened, q, max_size=3)
    assert model is not None
    env = resolve_roles(weakened)
    assert 0 not in concept_extension(q.rhs, model, env)


def test_num_entails_dbm_rejects_odd_relations():
    from loctame.concdom import NumAtom
    with pytest.raises(UnsupportedConstruct):
        oracle.num_entails_dbm([], NumAtom("a", "b", rel="lt"))


def test_a_wide_role_cuts_the_search_before_encoding_it():
    # 2^30 tuples of w at size 2: encoding them would exhaust memory, so
    # the search is cut there; size 1 (one tuple) is still searched
    fillers = ", ".join(["B"] * 28)
    cbox = parse_cbox("decl role w : 30\nrole v = restrict w at 1 to B\n"
                      f"A sub exists v . ({fillers})\nA sub B\n? A sub B\n")
    sigs = resolve_roles(cbox).sigs
    assert (len(sigs["w"]), len(sigs["v"])) == (30, 29)
    with pytest.raises(oracle.SearchCut) as cut:
        bounded_model_search(cbox, cbox.queries[0], max_size=3)
    assert cut.value.size == 2
