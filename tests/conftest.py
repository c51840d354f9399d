"""Shared worked examples used across the test modules."""

from __future__ import annotations

import pytest

from loctame import algebra as alg
from loctame import reduce as red
from loctame.syntax import parse_cbox

# a definitional TBox: three mutually recursive defined names; the query
# below is subsumed, and the refutation hinges on one monotonicity step
DEFS_TEXT = """\
A1 sub P1 and A2 and exists r1 . exists r2 . A3
P1 and A2 and exists r1 . exists r2 . A3 sub A1
A2 sub P2 and A3 and exists r2 . exists r1 . A1
P2 and A3 and exists r2 . exists r1 . A1 sub A2
A3 sub P3 and A2 and exists r1 . (P1 and P2)
P3 and A2 and exists r1 . (P1 and P2) sub A3
? P3 and A2 and exists r1 . (A1 and A2) sub A3
"""

# an anatomy-style CBox with role compositions; the closure of the query
# terms has exactly eight operator terms
ANATOMY_TEXT = """\
role part_of o part_of sub part_of
role part_of sub cont_in
role has_loc o cont_in sub has_loc
Endocard sub Tissue and exists cont_in . HeartWall and exists cont_in . HeartValve
HeartWall sub exists part_of . Heart
HeartValve sub exists part_of . Heart
Endocarditis sub Inflammation and exists has_loc . Endocard
Inflammation sub Disease
Heartdisease sub Disease and exists has_loc . Heart
Disease and exists has_loc . Heart sub Heartdisease
? Endocarditis sub Heartdisease
"""

# a two-sorted CBox: proving the query requires moving two monotonicity
# conclusions from the numeric sort into the concept sort
FREIGHT_TEXT = """\
decl role price : (concept, num)
decl role weight : (concept, num)
decl role hwp : (concept, num, num)
exists price . num down 7 sub Affordable
exists weight . num up 2 and Car sub Truck
exists hwp . (num up 3, num down 5) sub exists price . num down 5 and exists weight . num up 3
C sub Car
C sub exists hwp . (num up 3, num down 5)
? C sub Affordable and Truck
"""

# a ternary role restricted at its second filler position, then included
# in a binary role
ROUTES_TEXT = """\
decl role r_interm : 3
role rp = restrict r_interm at 2 to C3
role rp sub r
Town sub exists r_interm . (Hub, C3)
? Town sub exists r . Hub
"""

# guarded compositions: a sequential one (K2), an identity (K3) and a
# parallel one whose tails bind two variables
GUARDS_TEXT = """\
decl role w : 3
decl role both : 3
role r o s sub t guard G
role p o q sub id guard H
role w o (l, m) sub both guard G
A sub exists r . exists s . B
B sub G
D sub exists p . exists q . E
E sub H
K sub exists w . (exists l . B, exists m . G)
? A and D and K sub exists t . B and E and exists both . (B, G)
"""

# an unsatisfiable two-sided split whose interpolant needs a defined term
SPLIT_TEXT = """\
role r o s sub r
A: D sub exists s . Ax
A: Ax sub C
B: Bx sub D
B: exists r . Bx nsub exists r . C
"""


def closure_terms(seeds, axioms) -> list:
    """alg.psi_closure of seed terms over a fresh term table, as terms."""
    table = alg.TermTable()
    ids = [table.intern(t) for t in seeds]
    return [table.unfold(t) for t in alg.psi_closure(table, ids, axioms)]


def purified_problem(problem) -> red.PurifiedProblem:
    """The purified problem with every closure-local instance
    materialized, as `instantiate` mode builds it."""
    table = red.PurifiedProblem.of(problem)
    psi = alg.psi_closure(table, alg.goal_seeds(table, table.goal_atoms()),
                          problem.axioms)
    return red.flatten_purify(
        table, alg.instantiate(table, problem.axioms, psi), problem.axioms)


@pytest.fixture
def defs_cbox():
    return parse_cbox(DEFS_TEXT)


@pytest.fixture
def anatomy_cbox():
    return parse_cbox(ANATOMY_TEXT)


@pytest.fixture
def freight_cbox():
    return parse_cbox(FREIGHT_TEXT)


@pytest.fixture
def routes_cbox():
    return parse_cbox(ROUTES_TEXT)


@pytest.fixture
def guards_cbox():
    return parse_cbox(GUARDS_TEXT)
