"""Numeric intervals as a concrete domain.

Interval literals are ordered by inclusion, and inclusion between literals
reduces to endpoint comparisons:

    (lo1, hi1) <= (lo2, hi2)   iff   lo2 <= lo1  and  hi1 <= hi2

with None standing for the missing bound.  An inequality atom between
numeric terms therefore converts to zero, one or two endpoint atoms - or
to falsity when a bounded end would have to cover an unbounded one.

num_entails decides endpoint atoms by reachability over the known
endpoints, with the numeric order between literal endpoints folded in as
edges.  A contradictory fact set entails everything.

combine_solve runs the lattice solver on the concept part of a purified
problem and feeds it conclusions of mixed clauses whose numeric premises
hold, until nothing moves; each endpoint atom is decided once per
problem.  In `chase` mode the solver fires the K2/K3 instances over
concept atoms, monotonicity of the concept-only operators and meet
introduction from its trigger index instead of from materialized
clauses.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import hornsat, reduce as red
from .algebra import Const, FlatTerm, Leq, Lit
from .hornsat import AtomKey, HornSolver
from .reduce import NUM_BOT, PurifiedProblem
from .syntax import CONCEPT, Interval, LoctameError, NUM

# re-exported: the parser's interval type is this module's domain element
__all__ = ["Interval", "NumAtom", "FALSE_ATOM", "UnsupportedAtom",
           "convert_leq", "num_entails", "split_problem", "combine_solve",
           "CombineResult"]

NumTerm = Union[Fraction, str]


@dataclass(frozen=True)
class NumAtom:
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


def _check_rel(atom: NumAtom) -> None:
    if atom.rel != "le":
        raise UnsupportedAtom(f"unsupported numeric relation {atom.rel!r}")


def num_entails(facts: Iterable[NumAtom], query: NumAtom) -> bool:
    """Does the conjunction of the facts entail the query over the ordered
    rationals?  Entailment is reachability along fact edges and the
    numeric order between literals; an inconsistent fact set (some q
    reaching some p < q) entails everything."""
    _check_rel(query)
    edges: dict[NumTerm, set[NumTerm]] = {}
    nodes: set[NumTerm] = {query.lhs, query.rhs}
    for f in facts:
        _check_rel(f)
        edges.setdefault(f.lhs, set()).add(f.rhs)
        nodes.add(f.lhs)
        nodes.add(f.rhs)
    literals = sorted(n for n in nodes if isinstance(n, Fraction))

    def reachable(src: NumTerm, dst: NumTerm) -> bool:
        if src == dst:
            return True
        seen = {src}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            succs = set(edges.get(x, ()))
            if isinstance(x, Fraction):
                succs.update(q for q in literals if x <= q)
            for y in succs:
                if y == dst:
                    return True
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    if (isinstance(query.lhs, Fraction) and isinstance(query.rhs, Fraction)
            and query.lhs <= query.rhs):
        return True
    if reachable(query.lhs, query.rhs):
        return True
    # vacuous truth: the facts force q <= p for literals with p < q
    for i, p in enumerate(literals):
        for q in literals[i + 1:]:
            if reachable(q, p):
                return True
    return False


# ---------------------------------------------------------------------------
# splitting a purified problem by sort
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixedClause:
    concept_premises: tuple[AtomKey, ...]
    num_premises: tuple[NumAtom, ...]
    concl: AtomKey
    tag: str


@dataclass
class SplitProblem:
    concept: PurifiedProblem          # numeric atoms stripped
    num_facts: list[NumAtom]
    mixed: list[MixedClause]
    num_target: Optional[list[NumAtom]] = None   # set when the goal is numeric
    num_target_false: bool = False


def _atom_sort(a: Leq, consts: dict[str, str]) -> str:
    def side(t: FlatTerm) -> str:
        if isinstance(t, Lit):
            return NUM
        if isinstance(t, Const):
            return consts[t.name]
        raise LoctameError(f"unpurified term {t}")

    ls, rs = side(a.lhs), side(a.rhs)
    if ls != rs:
        raise LoctameError(f"atom mixes sorts: {a}")
    return ls


def split_problem(purified: PurifiedProblem) -> SplitProblem:
    consts = purified.consts
    concept_facts: list[Leq] = []
    num_facts: list[NumAtom] = []
    for a in purified.facts:
        if _atom_sort(a, consts) == NUM:
            conv = convert_leq(a.lhs, a.rhs)
            num_facts.extend(conv if conv is not None else [FALSE_ATOM])
        else:
            concept_facts.append(a)

    concept_clauses = []
    mixed: list[MixedClause] = []
    for inst in purified.clauses:
        if _atom_sort(inst.conclusion, consts) != CONCEPT:
            raise LoctameError(f"numeric conclusion not supported: {inst}")
        cprem: list[Leq] = []
        nprem: list[NumAtom] = []
        dropped = False
        for p in inst.premises:
            if _atom_sort(p, consts) == NUM:
                conv = convert_leq(p.lhs, p.rhs)
                if conv is None:       # an unsatisfiable premise
                    dropped = True
                    break
                nprem.extend(conv)
            else:
                cprem.append(p)
        if dropped:
            continue
        if nprem:
            mixed.append(MixedClause(
                tuple(red._atom_key(p) for p in cprem), tuple(nprem),
                red._atom_key(inst.conclusion), inst.tag))
        elif len(cprem) == len(inst.premises):
            concept_clauses.append(inst)
        else:                          # its numeric premises plainly hold
            concept_clauses.append(replace(inst, premises=tuple(cprem)))

    num_target: Optional[list[NumAtom]] = None
    num_target_false = False
    target = purified.target
    if target is not None and _atom_sort(target, consts) == NUM:
        conv = convert_leq(target.lhs, target.rhs)
        if conv is None:
            num_target, num_target_false = [], True
        else:
            num_target = conv
        target = None

    # the concept side shares the term table
    concept = replace(purified, facts=concept_facts, target=target,
                      clauses=concept_clauses)
    return SplitProblem(concept, num_facts, mixed, num_target, num_target_false)


# ---------------------------------------------------------------------------
# combined solving
# ---------------------------------------------------------------------------

@dataclass
class CombineResult:
    subsumed: bool
    result: Optional[hornsat.Result]        # the concept-side run, if any
    movements: list[tuple[str, AtomKey]] = field(default_factory=list)
    iterations: int = 0
    vacuous: bool = False                   # inconsistent numeric facts
    # the problem the solver was built from; in `chase` mode it lacks the
    # clause families the solver fires from its trigger index
    sl: Optional[red.SLProblem] = None
    # microseconds per stage: sl_instantiate (split by sort and unroll the
    # lattice theory), build, propagate, and exchange when there are mixed
    # clauses; numeric alone when the numeric side decides the goal
    micros: dict[str, int] = field(default_factory=dict)


def _now() -> int:
    return time.perf_counter_ns() // 1000


def _build_solver(concept: PurifiedProblem, sl: red.SLProblem) -> HornSolver:
    chase = sl.mode == red.CHASE
    triggers = None
    if chase:
        # a family's block is its axiom's index, as for the materialized
        # clauses, so ranks follow the materialized clause list; meet
        # introduction comes after every axiom instance
        blocks = [*concept.triggered, *sl.blocks]
        triggers = hornsat.Triggers(
            list(concept.triggered.items()), concept.meets,
            meet_block=1 + max(blocks, default=0), universe=sl.universe)
    solver = HornSolver(transitive=chase, triggers=triggers)
    for atom, label in sl.facts:
        solver.add_fact(atom, label)
    for (premises, concl, tag), block in zip(sl.clauses, sl.blocks, strict=True):
        solver.add_clause(premises, concl, tag, block)
    solver.end_build()
    return solver


def combine_solve(purified: PurifiedProblem, mode: str = red.CHASE) -> CombineResult:
    """Decide the purified problem, exchanging facts between the numeric
    and the lattice side until a fixpoint."""
    micros: dict[str, int] = {}
    t = _now()
    split = split_problem(purified)
    num_facts = split.num_facts
    # the numeric facts never change, so each endpoint atom is decided once
    verdicts: dict[NumAtom, bool] = {}

    def entailed(atom: NumAtom) -> bool:
        verdict = verdicts.get(atom)
        if verdict is None:
            verdict = verdicts[atom] = num_entails(num_facts, atom)
        return verdict

    if num_facts and entailed(FALSE_ATOM):
        return CombineResult(subsumed=True, result=None, vacuous=True,
                             micros={"numeric": _now() - t})

    if split.num_target is not None:
        ok = not split.num_target_false and all(
            entailed(a) for a in split.num_target)
        return CombineResult(subsumed=ok, result=None,
                             micros={"numeric": _now() - t})

    sl = red.sl_instantiate(split.concept, mode,
                            meet_intro=(mode != red.CHASE))
    micros["sl_instantiate"] = _now() - t
    t = _now()
    solver = _build_solver(split.concept, sl)
    micros["build"] = _now() - t
    micros["propagate"] = 0
    if split.mixed:
        micros["exchange"] = 0

    out = CombineResult(subsumed=False, result=None, sl=sl, micros=micros)
    # a clause whose numeric premises fail is dropped for good
    pending = list(range(len(split.mixed)))
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
        moved = False
        waiting = []
        for i in pending:
            mc = split.mixed[i]
            if not all(entailed(a) for a in mc.num_premises):
                continue
            if all(solver.has(p) for p in mc.concept_premises):
                solver.add_fact(mc.concl, f"moved:{mc.tag}")
                out.movements.append((mc.tag, mc.concl))
                moved = True
            else:
                waiting.append(i)
        pending = waiting
        if split.mixed:
            micros["exchange"] += _now() - t
        if not moved:
            return out
