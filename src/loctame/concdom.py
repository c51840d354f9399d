"""Numeric intervals as a concrete domain.

Interval literals are ordered by inclusion, and inclusion between literals
reduces to endpoint comparisons:

    (lo1, hi1) <= (lo2, hi2)   iff   lo2 <= lo1  and  hi1 <= hi2

with None standing for the missing bound.  An inequality atom between
numeric terms therefore converts to zero, one or two endpoint atoms - or
to falsity when a bounded end would have to cover an unbounded one.

Every numeric position holds an interval literal or the numeric bottom,
which convert_leq resolves, so every endpoint atom compares two
rationals: the numeric base theory is ground.  split_problem decides each
endpoint atom once, by comparison (num_entails): a failing numeric fact
makes the problem vacuous, a numeric goal is settled outright, and a
mixed clause with a failing numeric premise is dropped.  What remains of
a mixed clause is its concept premises and its concept conclusion.

combine_solve runs the lattice solver on the concept part of the problem
and moves in the conclusions of the mixed clauses whose concept premises
hold, round by round, until nothing moves.  In `chase` mode the solver
fires the K2/K3 instances over concept atoms, monotonicity of the
concept-only operators and meet introduction from its trigger index
instead of from materialized clauses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import hornsat, reduce as red
from .algebra import Const, FlatTerm, Lit
from .hornsat import AtomKey, HornSolver
from .reduce import NUM_BOT, PurifiedProblem
from .syntax import Interval, LoctameError, NUM

# re-exported: the parser's interval type is this module's domain element
__all__ = ["Interval", "NumAtom", "FALSE_ATOM", "UnsupportedAtom",
           "convert_leq", "num_entails", "split_problem", "combine_solve",
           "CombineResult"]

NumTerm = Union[Fraction, str]


@dataclass(frozen=True)
class NumAtom:
    """A comparison of two numeric endpoints."""
    lhs: NumTerm
    rhs: NumTerm
    rel: str = "le"

    def __str__(self) -> str:
        op = {"le": "<="}.get(self.rel, self.rel)
        return f"{self.lhs} {op} {self.rhs}"


FALSE_ATOM = NumAtom(Fraction(1), Fraction(0))


class UnsupportedAtom(LoctameError):
    pass


def convert_leq(lhs: FlatTerm, rhs: FlatTerm) -> Optional[list[NumAtom]]:
    """Endpoint atoms equivalent to lhs <= rhs, or None when it is plainly
    false.  An empty list means plainly true."""
    if isinstance(lhs, Const) and lhs.name == NUM_BOT:
        return []
    if isinstance(rhs, Const) and rhs.name == NUM_BOT:
        return None
    if not isinstance(lhs, Lit) or not isinstance(rhs, Lit):
        raise UnsupportedAtom(f"not a numeric literal atom: {lhs} <= {rhs}")
    lo1, hi1 = lhs.interval.lo, lhs.interval.hi
    lo2, hi2 = rhs.interval.lo, rhs.interval.hi
    atoms: list[NumAtom] = []
    if lo2 is not None:
        if lo1 is None:
            return None
        atoms.append(NumAtom(lo2, lo1))
    if hi1 is not None:
        if hi2 is not None:
            atoms.append(NumAtom(hi1, hi2))
    elif hi2 is not None:
        return None
    return atoms


def _compare(atom: NumAtom) -> bool:
    """The truth of an endpoint atom between two rationals."""
    if atom.rel != "le":
        raise UnsupportedAtom(f"unsupported numeric relation {atom.rel!r}")
    if not isinstance(atom.lhs, Fraction) or not isinstance(atom.rhs, Fraction):
        raise UnsupportedAtom(f"not an atom between rationals: {atom}")
    return atom.lhs <= atom.rhs


def num_entails(facts: Iterable[NumAtom], query: NumAtom) -> bool:
    """Does the conjunction of the facts entail the query over the ordered
    rationals?  Every endpoint must be a rational, so each atom is a
    comparison: a false fact makes everything entailed, and otherwise the
    query's own comparison decides."""
    consistent = all([_compare(f) for f in facts])
    return _compare(query) or not consistent


# ---------------------------------------------------------------------------
# splitting a purified problem by sort
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedClause:
    """A clause whose numeric premises all hold: what is left of it."""
    concept_premises: tuple[AtomKey, ...]
    concl: AtomKey
    tag: str


@dataclass
class SplitProblem:
    """A purified problem split by sort, its numeric atoms decided."""
    concept: PurifiedProblem          # numeric atoms stripped
    num_facts: list[NumAtom]
    mixed: list[MixedClause]
    vacuous: bool = False             # a numeric fact fails
    num_verdict: Optional[bool] = None    # set when the goal is numeric


def split_problem(purified: PurifiedProblem) -> SplitProblem:
    """Separate the numeric atoms from the concept atoms and decide each
    numeric one, every endpoint atom once."""
    sorts, leaves = purified.sorts, purified.leaves
    verdicts: dict[NumAtom, bool] = {}

    def sort(t: int) -> str:
        s = sorts.get(t)
        if s is not None:
            return s
        if isinstance(leaves[t], Lit):
            return NUM
        raise LoctameError(f"unpurified term {purified.unfold(t)}")

    def numeric(a: AtomKey) -> bool:
        ls, rs = sort(a[0]), sort(a[1])
        if ls != rs:
            raise LoctameError(f"atom mixes sorts: {purified.leq(a)}")
        return ls == NUM

    def convert(a: AtomKey) -> Optional[list[NumAtom]]:
        return convert_leq(leaves[a[0]], leaves[a[1]])

    def holds(atoms: Optional[list[NumAtom]]) -> bool:
        if atoms is None:
            return False
        for a in atoms:
            verdict = verdicts.get(a)
            if verdict is None:
                verdict = verdicts[a] = num_entails((), a)
            if not verdict:
                return False
        return True

    concept_facts: list[AtomKey] = []
    num_facts: list[NumAtom] = []
    for a in purified.facts:
        if numeric(a):
            conv = convert(a)
            num_facts.extend(conv if conv is not None else [FALSE_ATOM])
        else:
            concept_facts.append(a)
    vacuous = not holds(num_facts)

    concept_clauses = []
    mixed: list[MixedClause] = []
    for inst in purified.clauses:
        if numeric(inst.conclusion):
            raise LoctameError("numeric conclusion not supported: "
                               f"{purified.leq(inst.conclusion)}")
        cprem: list[AtomKey] = []
        endpoint_atoms = 0
        for p in inst.premises:
            if not numeric(p):
                cprem.append(p)
                continue
            conv = convert(p)
            if not holds(conv):       # the clause can never fire
                break
            endpoint_atoms += len(conv)
        else:
            if endpoint_atoms:
                mixed.append(MixedClause(tuple(cprem), inst.conclusion,
                                         inst.tag))
            elif len(cprem) == len(inst.premises):
                concept_clauses.append(inst)
            else:                      # its numeric premises plainly hold
                concept_clauses.append(inst._replace(premises=tuple(cprem)))

    num_verdict: Optional[bool] = None
    target = purified.target
    if target is not None and numeric(target):
        num_verdict = holds(convert(target))
        target = None

    # the concept side shares the term table
    concept = replace(purified, facts=concept_facts, target=target,
                      clauses=concept_clauses)
    return SplitProblem(concept, num_facts, mixed, vacuous, num_verdict)


# ---------------------------------------------------------------------------
# combined solving
# ---------------------------------------------------------------------------

@dataclass
class CombineResult:
    """The verdict of the combined numeric and lattice decision."""
    subsumed: bool
    result: Optional[hornsat.Result]        # the concept-side run, if any
    movements: list[tuple[str, AtomKey]] = field(default_factory=list)
    iterations: int = 0
    vacuous: bool = False                   # inconsistent numeric facts
    # the problem the solver was built from; in `chase` mode it lacks the
    # clause families the solver fires from its trigger index
    sl: Optional[red.SLProblem] = None
    # the mixed clauses whose numeric premises hold
    mixed: list[MixedClause] = field(default_factory=list)
    # microseconds per stage: sl_instantiate (split by sort and unroll the
    # lattice theory), build, propagate, and exchange when there are mixed
    # clauses; numeric alone when the numeric side decides the goal
    micros: dict[str, int] = field(default_factory=dict)


def _now() -> int:
    return time.perf_counter_ns() // 1000


def _build_solver(concept: PurifiedProblem, sl: red.SLProblem,
                  mode: str) -> HornSolver:
    if mode != red.CHASE:
        return HornSolver(sl.facts, sl.clauses)
    # the solver takes in the lattice sl_instantiate left out; a family's
    # block is its axiom's index, as for the materialized clauses, so
    # ranks follow the materialized clause list
    lattice = red.lattice_of(concept)
    triggers = hornsat.Triggers(list(concept.triggered.items()), lattice)
    return HornSolver(sl.facts, sl.clauses, sl.blocks, transitive=True,
                      triggers=triggers, lattice=lattice)


def combine_solve(purified: PurifiedProblem, mode: str = red.CHASE) -> CombineResult:
    """Decide the purified problem: the numeric side settles what it can,
    then the lattice solver runs, taking in the conclusions of the mixed
    clauses whose concept premises hold until nothing moves."""
    micros: dict[str, int] = {}
    t = _now()
    split = split_problem(purified)
    if split.vacuous or split.num_verdict is not None:
        return CombineResult(subsumed=split.vacuous or split.num_verdict,
                             result=None, vacuous=split.vacuous,
                             micros={"numeric": _now() - t})

    sl = red.sl_instantiate(split.concept, mode,
                            triggered=(mode != red.CHASE))
    micros["sl_instantiate"] = _now() - t
    t = _now()
    solver = _build_solver(split.concept, sl, mode)
    micros["build"] = _now() - t
    micros["propagate"] = 0
    if split.mixed:
        micros["exchange"] = 0

    out = CombineResult(subsumed=False, result=None, sl=sl, mixed=split.mixed,
                        micros=micros)
    pending = split.mixed
    while True:
        out.iterations += 1
        if out.iterations > len(split.mixed) + 1:
            raise LoctameError("combination loop failed to terminate")
        t = _now()
        res = solver.solve(sl.goal)
        micros["propagate"] += _now() - t
        out.result = res
        if not res.sat:
            out.subsumed = True
            return out
        t = _now()
        waiting = []
        for mc in pending:
            if all(solver.has(p) for p in mc.concept_premises):
                solver.add_fact(mc.concl, f"moved:{mc.tag}")
                out.movements.append((mc.tag, mc.concl))
            else:
                waiting.append(mc)
        if split.mixed:
            micros["exchange"] += _now() - t
        if len(waiting) == len(pending):
            return out
        pending = waiting
