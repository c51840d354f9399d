"""Parser and renderer: round-trips, precedence, rejection of malformed input."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loctame import randgen
from loctame.syntax import (And, CheckError, Exists, GCI, Interval,
                            MAX_NESTING, Name, ParseError, Query,
                            RoleInclusion, Top, check_cbox,
                            concept_sort,
                            parse_cbox, parse_concept,
                            parse_interpolation_input, render_cbox,
                            resolve_roles)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_render_parse_round_trip_normal(seed):
    cbox = randgen.normal_cbox(random.Random(seed))
    assert parse_cbox(render_cbox(cbox)) == cbox


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_render_parse_round_trip_extended(seed):
    cbox = randgen.extended_cbox(random.Random(seed))
    assert parse_cbox(render_cbox(cbox)) == cbox


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_render_parse_round_trip_numeric(seed):
    cbox = randgen.numeric_cbox(random.Random(seed))
    assert parse_cbox(render_cbox(cbox)) == cbox


def test_conjunction_binds_loosest():
    got = parse_concept("A and exists r . B and C")
    assert got == And((Name("A"), Exists("r", (Name("B"),)), Name("C")))


def test_parenthesized_filler_keeps_conjunction():
    got = parse_concept("exists r . (B and C)")
    assert got == Exists("r", (And((Name("B"), Name("C"))),))


def test_nary_filler_tuple():
    got = parse_concept("exists w . (A, B and top)")
    assert got == Exists("w", (Name("A"), And((Name("B"), Top()))))


def test_intervals_parse_and_render():
    for text, want in [("num up 3", Interval(Fraction(3), None)),
                       ("num down 7/2", Interval(None, Fraction(7, 2))),
                       ("num [1, 2]", Interval(Fraction(1), Fraction(2)))]:
        got = parse_concept(text)
        assert got == want
        assert parse_concept(str(got)) == got


def test_empty_interval_rejected():
    with pytest.raises(ParseError):
        parse_concept("num [3, 1]")


def test_statements(defs_cbox):
    assert len(defs_cbox.gcis) == 6
    assert len(defs_cbox.queries) == 1
    q = defs_cbox.queries[0]
    assert isinstance(q, Query) and q.rhs == Name("A3")


def test_comments_and_blank_lines():
    cbox = parse_cbox("# a comment\n\nA sub B  # trailing\n")
    assert cbox.gcis == (GCI(Name("A"), Name("B")),)


def test_parse_errors():
    for bad in ["A sub", "sub B", "? A", "role", "A and sub B",
                "decl role r : 1", "exists r B sub C",
                "role r = restrict w at 0 to C"]:
        with pytest.raises(ParseError):
            parse_cbox(bad + "\n")


def test_underscore_names_reserved():
    with pytest.raises(ParseError):
        parse_cbox("_x sub B\n")


def test_role_arity_checks(routes_cbox):
    env = resolve_roles(routes_cbox)
    assert env.sigs["r_interm"] == ("concept", "concept", "concept")
    assert env.sigs["rp"] == ("concept", "concept")
    # restricting away the only filler leaves no slots
    with pytest.raises(CheckError):
        check_cbox(parse_cbox(
            "role p = restrict r at 1 to C\nA sub exists p . B\n"))


def test_top_and_bot_are_polymorphic_fillers():
    box = parse_cbox("decl role p : (concept, num)\n"
                     "decl role w : (concept, concept, num)\n")
    env = check_cbox(box)
    for text in ("exists p . top", "exists p . bot",
                 "exists p . (num up 3 and top)", "exists w . (B, top)",
                 "exists w . (top, bot)"):
        assert concept_sort(parse_concept(text), env) == "concept"
    # a concept filler in the numeric position is still rejected
    with pytest.raises(CheckError, match="expected num"):
        concept_sort(parse_concept("exists p . B"), env)


def test_composition_needs_binary_prefix():
    bad = parse_cbox("decl role w : 3\nrole w o w sub w\n")
    with pytest.raises(CheckError):
        check_cbox(bad)


def test_interpolation_input_parses():
    inp = parse_interpolation_input(
        "role r o s sub r\n"
        "A: D sub exists s . Ax\n"
        "B: Bx sub D\n"
        "B: exists r . Bx nsub exists r . C\n")
    assert len(inp.a_gcis) == 1
    assert len(inp.b_gcis) == 1
    assert inp.neg.lhs == Exists("r", (Name("Bx"),))
    assert inp.cbox.role_incls == (RoleInclusion(("r", "s"), "r"),)


def test_interpolation_input_rejects_misplaced_lines():
    with pytest.raises(ParseError):
        parse_interpolation_input("A: X nsub Y\nB: X sub Y\n")
    with pytest.raises(ParseError):
        parse_interpolation_input("A: X sub Y\n")  # no negated query
    with pytest.raises(ParseError):
        parse_interpolation_input(
            "A: X sub Y\nB: X nsub Y\nB: Y nsub X\n")  # two of them
    with pytest.raises(ParseError):
        parse_interpolation_input("X sub Y\nB: X nsub Y\n")  # untagged GCI


@pytest.mark.parametrize("text, line, col", [
    # the fourth line of the file, not the third A-side line
    ("role r o s sub r\nA: D sub exists s . Ax\nA: Ax sub C\nA: E sub\n"
     "B: exists r . Ax nsub exists r . C\n", 4, 9),
    ("A: X sub Y\n  B:  X nsub (Y and\n", 2, 20),
    ("A: X sub Y\nB: X nsub Y\nB: Z sub $\n", 3, 10),
    ("A: X sub Y\n\nB: X nsub Y\nrole r sub $\n", 4, 12),
    # a rejected statement, not the first line of its part
    ("role r sub s\nA: X sub Y\nB: X nsub Y\n  A: decl role t : 2\n", 4, 3),
    ("role r sub s\nB: X nsub Y\nX sub Y\n", 3, 1),
    ("A: X sub Y\nB: X nsub Y\n B: Y nsub X\n", 3, 2),
], ids=["side", "negated", "other-side", "untagged", "tagged-decl",
        "untagged-inclusion", "second-nsub"])
def test_interpolation_parse_errors_carry_file_positions(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_interpolation_input(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("deep", [
    "(" * 330 + "A" + ")" * 330,
    "exists r . " * 330 + "A",
    "exists r . (" * 201 + "A" + ")" * 201,
])
def test_nesting_past_the_bound_is_a_parse_error(deep):
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_cbox(f"{deep} sub B\n")


def test_nesting_at_the_bound_parses_and_renders():
    for deep in ("(" * MAX_NESTING + "A" + ")" * MAX_NESTING,
                 "exists r . (B and " * (MAX_NESTING // 2) + "A"
                 + ")" * (MAX_NESTING // 2)):
        cbox = parse_cbox(f"{deep} sub B\n")
        assert parse_cbox(render_cbox(cbox)) == cbox
