"""Ground interpolants for refutable two-sided problems over semilattices
with monotone unary operators.

The input is a pair of conjunctions of ground atoms s <= t -- the A side
and the B side, the B side refuting one extra atom -- together with the
operator axioms.  When A and B are jointly inconsistent, the output is a
conjunction I of ground atoms such that A entails I, I together with B is
inconsistent, and I mentions only constants occurring on both sides (or
belonging to the axioms).

The construction is hierarchical.  Both sides are instantiated over the
closure of their terms, purified, and chained in the base semilattice,
with every clause instance assigned to the side whose local constants it
mentions.  Each round solves the A side, takes as candidate interpolant
the atoms of its model over exportable constants that the lattice theory
alone does not give, and solves the B side with them.  If that refutes
the goal, the candidate atoms used are the interpolant.  Only otherwise is
the joint problem solved: to tell jointly satisfiable sides apart, and to
find the instances whose premise is entailed only jointly.  Each is split
at a separating term over shared constants: a monotonicity step on one
side, the same axiom applied to the separating term on the other, linked
by a fresh defined constant (the c_{f(t)} of the underlying method).  An
instance with no separating term is left whole; a round that splits
nothing stalls the attempt.

The reduction is the subsumption pipeline's own: flatten_purify names the
terms in the purified problem's term table, separation names its defined
constants in that same table (whose unfold renders them), and each round
unrolls the lattice theory over the table with reduce.sl_instantiate,
meet introduction materialized.  The A side resumes the run of the theory
alone.  `entails`, the verification gate, is pipeline.decide in chase
mode.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

from . import algebra as alg
from . import hornsat, pipeline
from . import reduce as red
from .algebra import (AlgAxiom, Apply, Const, FlatTerm, Goal, K2, K3, Leq,
                      Meet, Mon, axiom_ops, axiom_templates, symbols)
from .hornsat import AtomKey
from .syntax import (And, Bot, CBox, CheckError, Concept, CONCEPT, Exists,
                     GCI, InterpolationInput, LoctameError, Name, Top)

_CAP = 64

# the prefix of the defined constants separation adds to the term table
DEFINED_PREFIX = "_i"


class NotUnsat(LoctameError):
    """The two sides are jointly satisfiable; no interpolant exists."""


class _Stalled(Exception):
    """Internal: the current vocabulary policy cannot separate the proof."""


# ---------------------------------------------------------------------------
# problems and results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationProblem:
    """Axioms plus the two sides; `neg` is the single refuted atom and
    belongs to the B side."""

    axioms: tuple[AlgAxiom, ...]
    a_atoms: tuple[Leq, ...]
    b_atoms: tuple[Leq, ...]
    neg: Leq
    # operator name -> role it interprets, for rendering only
    op_role: dict[str, str] = field(default_factory=dict, hash=False, compare=False)


@dataclass
class InterpolationResult:
    interpolant: tuple[Leq, ...]       # empty tuple reads as "top"
    shared_consts: frozenset[str]
    shared_ops: frozenset[str]
    iterations: int
    # fresh defined constants introduced by separation, with their terms
    defined: dict[str, FlatTerm] = field(default_factory=dict)
    # whether every interpolant operator is shared under the axiom relation
    ops_shared: bool = True
    # microseconds per stage: attempt (building the attempts' reductions),
    # rounds and verification
    micros: dict[str, int] = field(default_factory=dict)
    # rounds run, solver runs in them, and entailment checks made by the
    # verification
    stats: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def _union_find_classes(axioms: Iterable[AlgAxiom], ops: Iterable[str]) -> dict[str, str]:
    parent: dict[str, str] = {op: op for op in ops}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ax in axioms:
        group = sorted(axiom_ops(ax))
        for a, b in zip(group, group[1:]):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return {op: find(op) for op in parent}


def _sides(atoms: Iterable[Leq]) -> list[FlatTerm]:
    """Each atom's left side, then its right side."""
    return [t for a in atoms for t in (a.lhs, a.rhs)]


def _axiom_ground_terms(axioms: Iterable[AlgAxiom]) -> list[FlatTerm]:
    """Guards and fixed slots: the ground terms baked into the axioms."""
    out: list[FlatTerm] = []
    for ax in axioms:
        guard = getattr(ax, "guard", None)
        if guard is not None:
            out.append(guard)
        for tpl in axiom_templates(ax):
            for slot in tpl.slots:
                if isinstance(slot, alg.FixedSlot):
                    out.append(slot.term)
    return out


def _algebraic_problem(axioms: tuple[AlgAxiom, ...], goal: Goal,
                       op_role: dict[str, str]) -> alg.AlgebraicProblem:
    """The problem the reduction runs on: constants from the atoms and the
    axioms' ground terms, operators from the Mon axioms (so the chase
    fires their monotonicity from its trigger index)."""
    consts = dict.fromkeys(symbols(_sides(goal.all_atoms()))[0], CONCEPT)
    for name in symbols(_axiom_ground_terms(axioms))[0]:
        consts.setdefault(name, CONCEPT)
    ops = {ax.op: (CONCEPT,) * ax.arity
           for ax in axioms if isinstance(ax, Mon)}
    return alg.AlgebraicProblem(axioms=axioms, goal=goal, ops=ops,
                                consts=consts, op_role=dict(op_role))


@dataclass
class _Vocabulary:
    shared_consts: frozenset[str]
    a_local: frozenset[str]
    b_local: frozenset[str]
    shared_ops: frozenset[str]

    def const_color(self, name: str) -> str:
        if name in self.a_local:
            return "A"
        if name in self.b_local:
            return "B"
        return "S"


def _vocabulary(problem: InterpolationProblem) -> _Vocabulary:
    a_consts, ops_a, _ = symbols(_sides(problem.a_atoms))
    b_consts, ops_b, _ = symbols(_sides(problem.b_atoms + (problem.neg,)))
    theory = {alg.TOP_CONST, alg.BOT_CONST}
    theory.update(symbols(_axiom_ground_terms(problem.axioms))[0])
    shared = (a_consts.keys() & b_consts.keys()) | theory
    all_ops = ops_a | ops_b
    for ax in problem.axioms:
        all_ops |= axiom_ops(ax)
    roots = _union_find_classes(problem.axioms, all_ops)
    by_class: dict[str, set[str]] = {}
    for op, root in roots.items():
        by_class.setdefault(root, set()).add(op)
    shared_ops = {op for op, root in roots.items()
                  if by_class[root] & ops_a and by_class[root] & ops_b}
    return _Vocabulary(
        shared_consts=frozenset(shared),
        a_local=frozenset(a_consts.keys() - shared),
        b_local=frozenset(b_consts.keys() - shared),
        shared_ops=frozenset(shared_ops),
    )


def _validate(problem: InterpolationProblem) -> None:
    for ax in problem.axioms:
        if isinstance(ax, Mon):
            if ax.arity != 1:
                raise CheckError(
                    f"interpolation supports unary operators only: {ax}")
            continue
        if isinstance(ax, (K2, K3)) and len(ax.gs) != 1:
            raise CheckError(
                f"interpolation supports single-tail compositions only: {ax}")
        for tpl in axiom_templates(ax):
            if len(tpl.slots) != 1 or tpl.nvars != 1:
                raise CheckError(
                    f"interpolation supports unary operators only: {ax}")
    if symbols(_sides(problem.a_atoms + problem.b_atoms + (problem.neg,)))[2]:
        raise CheckError("interpolation over the numeric sort is not supported")


# ---------------------------------------------------------------------------
# separating terms
# ---------------------------------------------------------------------------

def separating_term(lhs: int, rhs: int,
                    a_model: set[AtomKey], b_model: set[AtomKey],
                    candidates: Sequence[int],
                    name: Callable[[int], str]) -> list[int]:
    """The constants among the candidates whose meet splits a jointly
    entailed atom lhs <= rhs: one side entails lhs <= t, the other
    t <= rhs.

    Witnesses of one orientation are collected, in the order of their
    names (the meet of witnesses is again a witness in a semilattice);
    none when neither orientation has a witness.
    """
    w1 = sorted((s for s in candidates if s not in (lhs, rhs)
                 and (lhs, s) in a_model and (s, rhs) in b_model), key=name)
    w2 = sorted((s for s in candidates if s not in (lhs, rhs)
                 and (lhs, s) in b_model and (s, rhs) in a_model), key=name)
    return w1 or w2


# ---------------------------------------------------------------------------
# the working state of one interpolation attempt
# ---------------------------------------------------------------------------

@dataclass
class _Inst:
    premises: tuple[AtomKey, ...]
    concl: AtomKey
    tag: str
    color: str                         # "A" | "B" | "S" | "X"


_INSTANCE_TAGS = ("Mon(", "K1", "K2", "K3")


class _Attempt:
    """One run of the layered procedure under a fixed vocabulary policy.

    op_strict asks for the ideal vocabulary (operators shared under the
    axiom relation); when that stalls the caller retries without the
    operator restriction, which the hard constant condition still bounds.
    """

    def __init__(self, problem: InterpolationProblem, vocab: _Vocabulary,
                 op_strict: bool):
        self.problem = problem
        self.vocab = vocab
        self.op_strict = op_strict
        self.rounds = 0
        self.solver_runs = 0

        goal = Goal(problem.a_atoms + problem.b_atoms, problem.neg)
        # the term table: separation names its defined constants here too
        table = red.PurifiedProblem.of(
            _algebraic_problem(problem.axioms, goal, problem.op_role))
        psi = alg.psi_closure(table, alg.goal_seeds(table, table.goal_atoms()),
                              problem.axioms)
        instances = alg.instantiate(table, problem.axioms,
                                    alg.terms_by_op(table, psi))
        self.purified = purified = red.flatten_purify(table, instances)
        if purified.target is None:
            raise LoctameError("the refuted atom was lost in purification")

        n_a = len(problem.a_atoms)
        self.a_facts = [(a, "A") for a in purified.facts[:n_a]]
        self.b_facts = [(a, "B") for a in purified.facts[n_a:]]
        self.goal = purified.target

        self._color_memo: dict[int, str] = {}
        self._export_memo: dict[int, bool] = {}
        self.instances: list[_Inst] = []
        self._inst_seen: set[tuple[frozenset[AtomKey], AtomKey]] = set()
        for inst in purified.clauses:
            self._add_instance(inst.premises, inst.conclusion, inst.tag)
        self._split_done: set[tuple] = set()

    # -- colors ----------------------------------------------------------------

    def color(self, c: int) -> str:
        memo = self._color_memo.get(c)
        if memo is not None:
            return memo
        table = self.purified
        if table.ops[c] is None:
            out = self.vocab.const_color(table.names[c])
        else:
            colors = {self.color(a) for a in table.args[c]}
            if "A" in colors and "B" in colors:
                raise LoctameError("term mixes both sides' constants: "
                                   f"{table.definition(c)}")
            out = "A" if "A" in colors else "B" if "B" in colors else "S"
        self._color_memo[c] = out
        return out

    def exportable(self, c: int) -> bool:
        """May this constant appear in an interpolant atom?  An undefined
        one if it is shared; a defined one if its arguments may and, under
        op_strict, its operator is shared."""
        memo = self._export_memo.get(c)
        if memo is not None:
            return memo
        table = self.purified
        op = table.ops[c]
        if op is None:
            out = self.vocab.const_color(table.names[c]) == "S"
        else:
            out = all(self.exportable(a) for a in table.args[c])
            if out and self.op_strict and op != alg.MEET:
                out = op in self.vocab.shared_ops
        self._export_memo[c] = out
        return out

    def _inst_color(self, atoms: list[AtomKey]) -> str:
        colors = {self.color(n) for a in atoms for n in a}
        if "A" in colors and "B" in colors:
            return "X"
        if "A" in colors:
            return "A"
        if "B" in colors:
            return "B"
        return "S"

    def _add_instance(self, premises: tuple[AtomKey, ...], concl: AtomKey,
                      tag: str) -> None:
        key = (frozenset(premises), concl)
        if key in self._inst_seen:
            return
        self._inst_seen.add(key)
        self.instances.append(_Inst(
            premises, concl, tag,
            self._inst_color(list(premises) + [concl])))

    # -- solver runs -------------------------------------------------------------

    def _side_clauses(self, colors: tuple[str, ...]):
        return [(i.premises, i.concl, i.tag)
                for i in self.instances if i.color in colors]

    def run(self) -> tuple[list[AtomKey], int]:
        """The layered loop; returns the purified interpolant atoms.

        The joint problem is solved only when the B side with the candidate
        interpolant does not refute the goal.  A refuting B run implies a
        joint refutation: the candidate atoms are A-side consequences, and
        the B side's clauses are among the joint ones.  The A side resumes
        the run of the theory alone: both models are least models, so they
        are the ones separate runs would give."""
        for iteration in range(1, _CAP + 1):
            self.rounds += 1
            self.solver_runs += 3
            theory = red.sl_instantiate(replace(
                self.purified, facts=[], target=None, clauses=[]))
            solver = hornsat.solve_problem(theory.facts, theory.clauses,
                                           None).solver
            # the atoms derived from here on are those the A side adds
            # to the theory's model
            theory_size = len(solver.reasons)
            for atom, label in self.a_facts:
                solver.add_fact(atom, label)
            for premises, concl, tag in self._side_clauses(("A", "S")):
                solver.add_clause(premises, concl, tag)
            ma = solver.solve()
            names, keys = self.purified.names, solver.atom_keys
            itp = sorted(
                ((x, y) for x, y in map(keys.__getitem__, itertools.islice(
                    solver.reasons, theory_size, None))
                 if self.exportable(x) and self.exportable(y)),
                key=lambda a: (names[a[0]], names[a[1]]))

            mb = hornsat.solve_problem(
                [*self.b_facts, *theory.facts, *((a, "itp") for a in itp)],
                theory.clauses + self._side_clauses(("B", "S")), self.goal)
            if not mb.sat:
                atoms = [s.atom for s in mb.solver.trace(self.goal)
                         if s.kind == "fact" and s.label == "itp"]
                return list(dict.fromkeys(atoms)), iteration

            self.solver_runs += 1
            joint = hornsat.solve_problem(
                [*self.a_facts, *self.b_facts, *theory.facts],
                theory.clauses + self._side_clauses(("A", "B", "S", "X")),
                self.goal)
            if joint.sat:
                if iteration == 1:
                    raise NotUnsat("the two sides are jointly satisfiable")
                raise LoctameError("separation lost the refutation")
            if not self._separate(joint, ma.model(), mb.model()):
                raise _Stalled
        raise LoctameError("interpolation did not converge")

    # -- separation --------------------------------------------------------------

    def _separate(self, joint: hornsat.Result, ma_model: set[AtomKey],
                  mb_model: set[AtomKey]) -> bool:
        trace = joint.solver.trace(self.goal)
        progress = False
        for step in trace:
            if step.kind != "clause" or not step.label.startswith(_INSTANCE_TAGS):
                continue
            if step.label.startswith("K1"):
                continue
            for prem in step.premises:
                if prem in ma_model or prem in mb_model:
                    continue
                if self._split(step, prem, ma_model, mb_model):
                    progress = True
        return progress

    def _split(self, step: hornsat.TraceStep, prem: AtomKey,
               ma_model: set[AtomKey], mb_model: set[AtomKey]) -> bool:
        """Replace one use of an instance whose premise crosses the sides
        by a monotonicity half and a same-axiom half through a fresh
        defined term."""
        table = self.purified
        f = step.atom[0]
        op = table.ops[f]
        if op is None or op == alg.MEET or len(table.args[f]) != 1:
            return False
        if table.args[f][0] != prem[0]:
            return False          # a guard premise, not the operator premise
        if sum(1 for p in step.premises if p[0] == prem[0]) != 1:
            return False          # ambiguous binding; leave untouched

        candidates = [c for c in table.sorts if self.exportable(c)]
        wit = separating_term(prem[0], prem[1], ma_model, mb_model,
                              candidates, table.names.__getitem__)
        if not wit:
            return False
        t = (wit[0] if len(wit) == 1 else
             table.define(table.compound(alg.MEET, tuple(wit)),
                          DEFINED_PREFIX))

        done_key = (step.atom, frozenset(step.premises), prem, t)
        if done_key in self._split_done:
            return False
        self._split_done.add(done_key)

        linked = table.define(table.compound(op, (t,)), DEFINED_PREFIX)
        rest = tuple(p for p in step.premises if p != prem)
        self._add_instance(((prem[0], t),), (step.atom[0], linked),
                           f"Mon({op})")
        self._add_instance(((t, prem[1]),) + rest,
                           (linked, step.atom[1]), step.label)
        return True


# ---------------------------------------------------------------------------
# entailment (used by the verification gate and by tests)
# ---------------------------------------------------------------------------

def entails(axioms: Iterable[AlgAxiom], facts: Iterable[Leq], target: Leq) -> bool:
    """Does the conjunction of facts entail the target over the axioms?
    Decided by the subsumption pipeline's own reduction, in chase mode."""
    goal = Goal(tuple(facts), target)
    problem = _algebraic_problem(tuple(axioms), goal, {})
    return pipeline.decide(problem, red.CHASE).subsumed


# ---------------------------------------------------------------------------
# the operation
# ---------------------------------------------------------------------------

def interpolate(problem: InterpolationProblem) -> InterpolationResult:
    """Compute a ground interpolant; raises NotUnsat when the sides are
    jointly satisfiable.

    Both defining entailments are re-checked through the standard
    reduction before the result is returned.
    """
    _validate(problem)
    vocab = _vocabulary(problem)
    micros = {"attempt": 0, "rounds": 0, "verification": 0}
    attempts: list[_Attempt] = []

    def run(op_strict: bool) -> tuple[list[AtomKey], int]:
        t = _now()
        attempts.append(_Attempt(problem, vocab, op_strict))
        micros["attempt"] += _now() - t
        t = _now()
        try:
            return attempts[-1].run()
        finally:
            micros["rounds"] += _now() - t

    try:
        keys, iterations = run(op_strict=True)
    except _Stalled:
        try:
            keys, iterations = run(op_strict=False)
        except _Stalled:
            raise LoctameError(
                "no separating term over the shared constants") from None
    attempt = attempts[-1]

    table = attempt.purified
    interpolant = tuple(map(table.leq, keys))
    consts, ops, _ = symbols(_sides(interpolant))
    for name in consts:
        if name not in vocab.shared_consts:
            raise LoctameError(
                f"interpolant leaks a one-sided constant: {name}")

    result = InterpolationResult(
        interpolant=interpolant,
        shared_consts=vocab.shared_consts,
        shared_ops=vocab.shared_ops,
        iterations=iterations,
        defined={name: table.unfold(c) for c, name in table.names.items()
                 if table.ops[c] is not None
                 and name.startswith(DEFINED_PREFIX)},
        ops_shared=ops <= vocab.shared_ops,
        micros=micros,
    )
    t = _now()
    entails_calls = _verify(problem, result)
    micros["verification"] = _now() - t
    result.stats = {
        "rounds": sum(a.rounds for a in attempts),
        "solver_runs": sum(a.solver_runs for a in attempts),
        "entails_calls": entails_calls,
    }
    return result


def _now() -> int:
    return time.perf_counter_ns() // 1000


def _verify(problem: InterpolationProblem, result: InterpolationResult) -> int:
    """Check both entailments through the standard reduction: one entails
    call per interpolant atom, then one for the B side.  Returns the
    number of entails calls made."""
    calls = 0
    for atom in result.interpolant:
        calls += 1
        if not entails(problem.axioms, problem.a_atoms, atom):
            raise LoctameError(
                f"interpolant atom is not entailed by the A side: {atom}")
    calls += 1
    if not entails(problem.axioms,
                   tuple(result.interpolant) + problem.b_atoms, problem.neg):
        raise LoctameError(
            "interpolant joined with the B side fails to refute the goal")
    return calls


# ---------------------------------------------------------------------------
# concept-level wrapping
# ---------------------------------------------------------------------------

def from_input(inp: InterpolationInput) -> InterpolationProblem:
    """Translate a two-sided concept-level problem to the algebraic one.

    Role axioms -- shared or side-tagged -- become background axioms; the
    sides' inclusions become the ground atoms.
    """
    full = CBox(
        roles=dict(inp.cbox.roles),
        restrictions=inp.cbox.restrictions,
        gcis=inp.a_gcis + inp.b_gcis,
        role_incls=(inp.cbox.role_incls + inp.a_role_incls
                    + inp.b_role_incls),
        queries=(inp.neg,),
    )
    prob = red.translate(full, inp.neg)
    if any(sorts != (CONCEPT,) for sorts in prob.ops.values()):
        raise CheckError("interpolation supports plain binary roles only")
    n_a = len(inp.a_gcis)
    if prob.goal.target is None:
        raise LoctameError("the negated inclusion did not translate")
    return InterpolationProblem(
        axioms=prob.axioms,
        a_atoms=prob.goal.assumptions[:n_a],
        b_atoms=prob.goal.assumptions[n_a:],
        neg=prob.goal.target,
        op_role=dict(prob.op_role),
    )


def _concept_of(t: FlatTerm, op_role: dict[str, str]) -> Concept:
    if isinstance(t, Const):
        if t.name == alg.TOP_CONST:
            return Top()
        if t.name == alg.BOT_CONST:
            return Bot()
        return Name(t.name)
    if isinstance(t, Apply):
        role = op_role.get(t.op)
        if role is None:
            role = t.op[2:] if t.op.startswith("f_") else t.op
        return Exists(role, tuple(_concept_of(a, op_role) for a in t.args))
    if isinstance(t, Meet):
        return And(tuple(_concept_of(a, op_role) for a in t.args))
    raise LoctameError(f"cannot render {t!r} as a concept")


def interpolant_gcis(result: InterpolationResult,
                     op_role: dict[str, str]) -> list[GCI]:
    """The interpolant as concept inclusions (empty list: top holds)."""
    return [GCI(_concept_of(a.lhs, op_role), _concept_of(a.rhs, op_role))
            for a in result.interpolant]


def interpolate_input(inp: InterpolationInput
                      ) -> tuple[InterpolationResult, list[GCI]]:
    problem = from_input(inp)
    result = interpolate(problem)
    return result, interpolant_gcis(result, problem.op_role)
