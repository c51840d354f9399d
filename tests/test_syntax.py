"""Parser and renderer: round-trips, precedence, rejection of malformed input."""

from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loctame import randgen, syntax
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


@pytest.mark.parametrize("text, line, col", [
    pytest.param("A sub $", 1, 7, id="unexpected-character"),
    pytest.param("A sub\nB sub $", 2, 7, id="scanned-before-parsing"),
    pytest.param("A sub -B", 1, 7, id="minus-without-digit"),
    pytest.param("A sub num up 1/0", 1, 14, id="bad-number"),
    pytest.param("A sub num up B", 1, 14, id="no-number"),
    pytest.param("A sub num B", 1, 7, id="after-num"),
    pytest.param("A sub exists to . B", 1, 14, id="keyword-as-name"),
    pytest.param("sub B", 1, 1, id="keyword-as-concept"),
    pytest.param("A and sub B", 1, 7, id="keyword-after-and"),
    pytest.param("A sub ,", 1, 7, id="no-name"),
    pytest.param("A sub _x", 1, 7, id="underscore-name"),
    pytest.param("(" * 201 + "A" + ")" * 201 + " sub B", 1, 201,
                 id="nesting-bound"),
    pytest.param("A sub num [3, 1]", 1, 16, id="empty-interval"),
    pytest.param("exists r B sub C", 1, 10, id="no-filler-dot"),
    pytest.param("A sub", 1, 6, id="end-of-line"),
    pytest.param("A sub B C", 1, 9, id="no-end-of-line"),
    pytest.param("A nsub B", 1, 3, id="nsub-outside-interpolation"),
    pytest.param("? A", 1, 4, id="query-without-sub"),
    pytest.param("decl role r : 1", 1, 15, id="arity-1"),
    pytest.param("decl role r : 3/2", 1, 15, id="bad-arity"),
    pytest.param("decl role r : (concept)", 1, 23, id="one-sort"),
    pytest.param("decl role r : (num, concept)", 1, 28, id="numeric-subject"),
    pytest.param("decl role r : (concept, int)", 1, 25, id="unknown-sort"),
    pytest.param("decl role r : 2\ndecl role r : 3", 2, 13,
                 id="declared-twice"),
    pytest.param("role", 1, 5, id="role-without-name"),
    pytest.param("role p = restrict w at 0 to C", 1, 24, id="position-0"),
    pytest.param("role p = restrict w at 1/2 to C", 1, 24, id="bad-position"),
    pytest.param("role r o s o (t, u) sub v", 1, 15, id="tuple-after-chain"),
    pytest.param("role r sub id", 1, 12, id="id-with-one-role"),
    # str.isalpha/isdigit/isspace decide the classes, not regex \w and \d
    pytest.param("\u00bd sub B", 1, 1, id="one-half"),
    pytest.param("\u216b sub B", 1, 1, id="roman-twelve"),
    pytest.param("\u00b2 sub B", 1, 1, id="superscript-two"),
    pytest.param("A sub\n\u00b2", 1, 6, id="superscript-is-a-number"),
    pytest.param("decl role r : 3\u00b2", 1, 15, id="superscript-ends-a-number"),
    pytest.param("Gr\u00f6\u00dfe sub \u00bd", 1, 11, id="letters-beyond-ascii"),
    pytest.param("A sub B\x0bC sub $", 2, 7, id="vertical-tab-breaks-lines"),
    pytest.param("A sub B\u2028C sub \u00bd", 2, 7,
                 id="line-separator-breaks-lines"),
])
def test_parse_errors(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_cbox(text + "\n")
    assert (exc.value.line, exc.value.col) == (line, col)


def test_number_characters_are_those_of_str_isdigit():
    digit = re.compile(syntax._DIGIT)
    chars = list(map(chr, range(sys.maxunicode + 1)))
    assert [c for c in chars if digit.fullmatch(c)] == \
        [c for c in chars if c.isdigit()]


@pytest.mark.parametrize("text, line, col", [
    ("A B", 1, 3), ("A\nB", 2, 1), ("", 1, 1), ("# nothing\n", 1, 1),
], ids=["trailing-input", "second-line", "empty", "comment-only"])
def test_concept_parse_errors(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_concept(text)
    assert (exc.value.line, exc.value.col) == (line, col)


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
