"""Every input gets a verdict or a usage/parse error, never a crash.

Raw bytes, and statements of each input grammar with a token sometimes
dropped or replaced, go through the command line for `check`, `solve`
and `interpolate`; the exit status must be 0, 1 or 2 (3 is an internal
error, a fault in loctame).  The reduction dump of each fixture reads
back as the same problem.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loctame import cli, pipeline
from loctame import reduce as red
from loctame.syntax import parse_cbox
from tests.conftest import (ANATOMY_TEXT, DEFS_TEXT, FREIGHT_TEXT,
                            GUARDS_TEXT, ROUTES_TEXT)

COMMANDS = ("check", "solve", "interpolate")

_TOKENS = (
    "A", "B", "C", "r", "s", "w", "sub", "nsub", "equiv", "and", "exists",
    ".", "(", ")", ",", ":", "?", "role", "o", "id", "decl", "restrict",
    "at", "to", "guard", "top", "bot", "num", "up", "down", "[", "]", "2",
    "3/2", "-1", "concept", "A:", "B:", "fact", "clause", "goal", "<=",
    "->", "_t0", "#",
    # the edges of the scanner's character classes: a numeric character
    # that is no digit, a digit that is not decimal, a letter beyond
    # ASCII, a blank, and a line break that splitlines honours
    "\u00bd", "\u00b2", "\u00e9", "\t", "\u2028",
)

_NAME = st.sampled_from(("A", "B", "C", "D", "top", "bot"))
_ROLE = st.sampled_from(("r", "s", "t"))
_CONCEPT = st.recursive(
    _NAME,
    lambda inner: st.one_of(
        st.tuples(_ROLE, inner).map(lambda p: f"exists {p[0]} . {p[1]}"),
        st.tuples(inner, inner).map(lambda p: f"{p[0]} and {p[1]}"),
        inner.map(lambda c: f"({c})")),
    max_leaves=4)
_GCI = st.tuples(_CONCEPT, st.sampled_from(("sub", "equiv")), _CONCEPT).map(
    " ".join)
_ROLE_AXIOM = st.one_of(
    st.tuples(_ROLE, _ROLE).map(lambda p: f"role {p[0]} sub {p[1]}"),
    st.tuples(_ROLE, _ROLE, st.one_of(_ROLE, st.just("id"))).map(
        lambda p: f"role {p[0]} o {p[1]} sub {p[2]}"),
    st.tuples(_ROLE, _ROLE, _ROLE, _NAME).map(
        lambda p: f"role {p[0]} o {p[1]} sub {p[2]} guard {p[3]}"))
_QUERY = st.tuples(_CONCEPT, _CONCEPT).map(lambda p: f"? {p[0]} sub {p[1]}")
_ATOM = st.tuples(_NAME, _NAME).map(lambda p: f"{p[0]} <= {p[1]}")
_DUMP_LINE = st.one_of(
    _ATOM.map("fact {}".format),
    st.tuples(st.lists(_ATOM, max_size=3), _ATOM).map(
        lambda p: f"clause {', '.join(p[0])} -> {p[1]}"),
    _ATOM.map("goal {}".format))
_NEG = st.tuples(_CONCEPT, _CONCEPT).map(lambda p: f"B: {p[0]} nsub {p[1]}")
_SIDE_GCI = st.tuples(st.sampled_from(("A:", "B:")), _GCI).map(" ".join)

# well-formed statements of each command's input language
_STATEMENTS = {
    "check": st.one_of(_GCI, _ROLE_AXIOM, _QUERY),
    "solve": _DUMP_LINE,
    "interpolate": st.one_of(_SIDE_GCI, _ROLE_AXIOM, _NEG),
}


@st.composite
def _grammar_text(draw, command: str) -> str:
    """A few statements, their tokens sometimes dropped or replaced."""
    lines = draw(st.lists(_STATEMENTS[command], min_size=1, max_size=6))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        j = draw(st.integers(0, len(tokens) - 1))
        tokens[j:j + 1] = draw(st.lists(st.sampled_from(_TOKENS), max_size=1))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _exit_status(command: str, data: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.lt"
        path.write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            status = cli.main([command, str(path)])
    assert status in (0, 1, 2), err.getvalue()
    return status


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMMANDS), st.binary(max_size=64))
def test_raw_bytes_get_a_verdict_or_an_error(command, data):
    _exit_status(command, data)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMMANDS).flatmap(
    lambda command: st.tuples(st.just(command), _grammar_text(command))))
def test_grammar_token_text_gets_a_verdict_or_an_error(case):
    command, text = case
    _exit_status(command, text.encode())


FIXTURES = {"defs": DEFS_TEXT, "anatomy": ANATOMY_TEXT,
            "freight": FREIGHT_TEXT, "routes": ROUTES_TEXT,
            "guards": GUARDS_TEXT}


@pytest.mark.parametrize("mode", [red.CHASE, red.INSTANTIATE])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_reduction_dump_reads_back_as_the_same_problem(name, mode):
    cbox = parse_cbox(FIXTURES[name])
    sl = pipeline.check_subsumption(cbox, cbox.queries[0], mode=mode).sl
    back = red.parse_reduction(red.render_reduction(sl))
    name = lambda atom: tuple(map(sl.names.__getitem__, atom))  # noqa: E731
    assert [a for a, _ in back.facts] == [name(a) for a, _ in sl.facts]
    assert [c[:2] for c in back.clauses] == \
        [(tuple(map(name, p)), name(c)) for p, c, _ in sl.clauses]
    assert back.goal == name(sl.goal)
    assert red.render_reduction(back) == red.render_reduction(sl)
