"""From concept boxes to ground Horn problems over a semilattice.

Three steps live here:

  translate       inclusions between concepts become inequations between
                  ground terms (names as constants, conjunction as meet,
                  existentials as monotone operators), role axioms become
                  the Horn axiom shapes of `algebra`;
  flatten_purify  every functional/meet term in the instantiated clause
                  set is replaced by a definitional proxy constant;
  sl_instantiate  the semilattice theory itself is unrolled over the
                  occurring constants (reflexivity, bounds, meet bounds,
                  meet introduction; in `instantiate` mode also explicit
                  transitivity, which `chase` mode delegates to the
                  solver).

PurifiedProblem is the one table of defined constants: `define` names a
one-level term (purification's proxies _t0, _t1, ... and the defined
constants c_{f(t)} that interpolation's separation adds, _i0, _i1, ...),
and `unfold` renders a constant back as a term, each defined constant
once, so shared subterms stay shared.

sl_instantiate is the one builder of the semilattice theory: the
pipeline unrolls it over a purified problem, and interpolation over its
term table alone, once per round, as separation adds defined constants.

In `chase` mode two kinds of rules are not materialized at all but fired
by the solver's trigger index (hornsat.Triggers): the instances of the
Mon/K2/K3 axioms whose premises are all concept atoms (monotonicity of
the operators whose arguments are all concepts, and the role
compositions), and meet introduction.  flatten_purify still names their
terms in the order the materialized instances would have (walking, per
axiom, the first head with every choice and each later head with its
first choice, which is linear in the closure terms involved), so the
proxies, the dumped reduction and every derivation read the same in both
forms.  To show the full reduction, sl_instantiate writes those rules
out from the same table: each family in its axiom's place among the
instances (hornsat.Family.rules), then meet introduction.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Iterable, Optional

from . import algebra as alg, hornsat
from .algebra import (Apply, Const, FixedSlot, FlatTerm, Goal, Instance, K1,
                      K2, K3, Leq, Lit, Meet, Mon, OpTemplate, VarSlot)
from .syntax import (CBox, CheckError, CONCEPT, Concept, Interval, NUM,
                     Query, RoleEnv, RoleInclusion, And, Bot, Exists, Name,
                     Top, check_cbox)

NUM_BOT = "__nbot"
NUM_TOP_LIT = Lit(Interval(None, None))

CHAIN_ROLE_PREFIX = "_chain"


def op_name(role: str) -> str:
    return f"f_{role}"


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

class _Translator:
    def __init__(self, cbox: CBox, env: Optional[RoleEnv] = None):
        self.cbox = cbox
        self.env = env if env is not None else check_cbox(cbox)
        self.ops: dict[str, tuple[str, ...]] = {}
        self.op_role: dict[str, str] = {}
        self.consts: dict[str, str] = {}
        self.chain_counter = 0

    def const(self, name: str, sort: str) -> Const:
        have = self.consts.setdefault(name, sort)
        if have != sort:
            raise CheckError(f"{name!r} used with sorts {have} and {sort}")
        return Const(name)

    def register_op(self, role: str) -> str:
        op = op_name(role)
        if op not in self.ops:
            self.ops[op] = self.env.fillers(role)
            self.op_role[op] = role
        return op

    def role_apply(self, role: str, args: list[FlatTerm]) -> Apply:
        """Apply a role's operator, expanding restriction chains."""
        exp = self.env.expansions.get(role)
        if exp is None:
            return Apply(self.register_op(role), tuple(args))
        base, pos, concept = exp
        plugged = self.term(concept, self.env.sigs[base][pos])
        return self.role_apply(base, args[:pos - 1] + [plugged] + args[pos - 1:])

    def term(self, c: Concept, sort: str) -> FlatTerm:
        if isinstance(c, Top):
            return NUM_TOP_LIT if sort == NUM else self.const(alg.TOP_CONST, CONCEPT)
        if isinstance(c, Bot):
            return self.const(NUM_BOT, NUM) if sort == NUM else self.const(alg.BOT_CONST, CONCEPT)
        if sort == NUM:
            return self.num_term(c)
        if isinstance(c, Name):
            return self.const(c.name, CONCEPT)
        if isinstance(c, Interval):
            raise CheckError(f"interval in a concept position: {c}")
        if isinstance(c, And):
            return Meet(tuple(self.term(a, CONCEPT) for a in c.args))
        if isinstance(c, Exists):
            fillers = self.env.fillers(c.role)
            args = [self.term(f, s) for f, s in zip(c.fillers, fillers)]
            return self.role_apply(c.role, args)
        raise CheckError(f"cannot translate {c!r}")

    def num_term(self, c: Concept) -> FlatTerm:
        """Numeric positions hold interval literals; meets intersect eagerly."""
        if isinstance(c, Interval):
            return Lit(c)
        if isinstance(c, Top):
            return NUM_TOP_LIT
        if isinstance(c, Bot):
            return self.const(NUM_BOT, NUM)
        if isinstance(c, And):
            lo, hi = None, None
            for a in c.args:
                t = self.num_term(a)
                if isinstance(t, Const):  # numeric bottom absorbs
                    return t
                iv = t.interval
                if iv.lo is not None and (lo is None or iv.lo > lo):
                    lo = iv.lo
                if iv.hi is not None and (hi is None or iv.hi < hi):
                    hi = iv.hi
            if lo is not None and hi is not None and lo > hi:
                return self.const(NUM_BOT, NUM)
            return Lit(Interval(lo, hi))
        raise CheckError(f"only intervals may appear in numeric positions: {c}")

    # -- role inclusion templates -------------------------------------------

    def raw_slots(self, role: str) -> tuple[str, list]:
        """The underlying operator of a (possibly restricted) role and its
        slot skeleton: None for an open filler, a ground term where a
        restriction fixed one."""
        exp = self.env.expansions.get(role)
        if exp is None:
            op = self.register_op(role)
            return op, [None] * len(self.env.fillers(role))
        base, pos, concept = exp
        op, slots = self.raw_slots(base)
        open_positions = [i for i, s in enumerate(slots) if s is None]
        idx = open_positions[pos - 1]
        slots[idx] = self.term(concept, self.env.sigs[base][pos])
        return op, slots

    def template(self, role: str, start: int) -> tuple[OpTemplate, int]:
        """Template over variables start.. ; returns it and the next index."""
        op, slots = self.raw_slots(role)
        out = []
        k = start
        for s in slots:
            if s is None:
                out.append(VarSlot(k))
                k += 1
            else:
                out.append(FixedSlot(s))
        return OpTemplate(op, tuple(out)), k

    def fresh_chain_role(self) -> str:
        name = f"{CHAIN_ROLE_PREFIX}{self.chain_counter}"
        self.chain_counter += 1
        self.env.sigs[name] = (CONCEPT, CONCEPT)
        return name

    def role_incl_axiom(self, ri: RoleInclusion) -> alg.AlgAxiom:
        guard = self.term(ri.guard, CONCEPT) if ri.guard is not None else None
        head, tails = ri.chain[0], ri.chain[1:]
        if not tails:
            g, n = self.template(head, 0)
            h, n2 = self.template(ri.rhs, 0)
            if n != n2:
                raise CheckError(f"{ri}: the two sides have different arities")
            return K1(g, h, guard)
        f, _ = self.template(head, 0)
        gs = []
        start = 0
        for t in tails:
            g, start = self.template(t, start)
            gs.append(g)
        if ri.rhs is None:
            # identity: all tails are unary over the same variable
            shared = [OpTemplate(g.op, tuple(
                FixedSlot(s.term) if isinstance(s, FixedSlot) else VarSlot(0)
                for s in g.slots)) for g in gs]
            return K3(f, tuple(shared), guard)
        h, end = self.template(ri.rhs, 0)
        if end != start:
            raise CheckError(f"{ri}: the chain and the right-hand side "
                             "have different arities")
        return K2(f, tuple(gs), h, guard)


def translate(cbox: CBox, query: Optional[Query] = None,
              env: Optional[RoleEnv] = None) -> alg.AlgebraicProblem:
    """Build the algebraic problem for a CBox and (optionally) one query."""
    if env is None and query is not None and query not in cbox.queries:
        # the query's roles resolve exactly like the CBox's own
        env = check_cbox(replace(cbox, queries=cbox.queries + (query,)))
    tr = _Translator(cbox, env)

    axioms: list[alg.AlgAxiom] = []
    for ri in cbox.role_incls:
        for step in ri.split_chain(tr.fresh_chain_role):
            axioms.append(tr.role_incl_axiom(step))

    assumptions = []
    for g in cbox.gcis:
        sort = _incl_sort(g.lhs, g.rhs, tr.env)
        assumptions.append(Leq(tr.term(g.lhs, sort), tr.term(g.rhs, sort)))
    target = None
    if query is not None:
        sort = _incl_sort(query.lhs, query.rhs, tr.env)
        target = Leq(tr.term(query.lhs, sort), tr.term(query.rhs, sort))

    for op in tr.ops:
        axioms.append(Mon(op, len(tr.ops[op])))

    return alg.AlgebraicProblem(
        axioms=tuple(axioms),
        goal=Goal(tuple(assumptions), target),
        ops=tr.ops,
        consts=tr.consts,
        op_role=tr.op_role,
    )


def _incl_sort(lhs: Concept, rhs: Concept, env: RoleEnv) -> str:
    from .syntax import concept_sort
    for side in (lhs, rhs):
        if not isinstance(side, (Top, Bot)):
            return concept_sort(side, env)
    return CONCEPT


# ---------------------------------------------------------------------------
# flatten / purify
# ---------------------------------------------------------------------------

@dataclass
class PurifiedProblem:
    """Ground Horn problem whose atoms relate constants and literals only,
    and the one table of the constants that name terms: purification's
    proxies and the defined constants interpolation adds."""

    facts: list[Leq] = field(default_factory=list)
    target: Optional[Leq] = None
    clauses: list[Instance] = field(default_factory=list)
    # proxy constant -> the (one-level) term it stands for
    defs: dict[str, FlatTerm] = field(default_factory=dict)
    # meet proxies -> operand constant names
    meets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # every constant in play -> sort
    consts: dict[str, str] = field(default_factory=dict)
    # axiom index -> the rules of the axioms whose instances `clauses`
    # leaves out, because the chase fires them from the solver's trigger
    # index
    triggered: dict[int, hornsat.Family] = field(default_factory=dict)
    # the inverse of defs
    by_term: dict[FlatTerm, Const] = field(default_factory=dict)
    # proxy prefix -> how many constants it has numbered
    numbered: dict[str, int] = field(default_factory=dict)
    # defined constant -> its unfolded term, filled by unfold
    unfolded: dict[str, FlatTerm] = field(default_factory=dict)

    def define(self, term: FlatTerm, prefix: str = "_t") -> Const:
        """The constant naming a one-level operator/meet term: the one
        already naming it, else the next fresh `prefix` constant."""
        proxy = self.by_term.get(term)
        if proxy is not None:
            return proxy
        meet = isinstance(term, Meet)
        if meet and not all(isinstance(a, Const) for a in term.args):
            raise CheckError(f"numeric meet reached purification: {term}")
        n = self.numbered.get(prefix, 0)
        self.numbered[prefix] = n + 1
        proxy = self.by_term[term] = Const(f"{prefix}{n}")
        self.defs[proxy.name] = term
        self.consts[proxy.name] = CONCEPT
        if meet:
            self.meets[proxy.name] = tuple(a.name for a in term.args)
        return proxy

    def unfold(self, name: str) -> FlatTerm:
        """Resolve a constant back to the operator/meet term it names.
        Each defined constant is unfolded once, so shared subterms stay
        shared."""
        out = self.unfolded.get(name)
        if out is not None:
            return out
        t = self.defs.get(name)
        if t is None:
            return Const(name)
        args = tuple(self.unfold(a.name) if isinstance(a, Const) else a
                     for a in t.args)
        out = self.unfolded[name] = (Apply(t.op, args) if isinstance(t, Apply)
                                     else Meet(args))
        return out


class _Purifier:
    """The tree walk of purification; the table names what it meets."""

    def __init__(self, table: PurifiedProblem):
        self.table = table
        # id of a term object already purified -> (the term, its proxy);
        # holding the term keeps its id from being reused
        self.by_id: dict[int, tuple[FlatTerm, Const]] = {}

    def purify(self, t: FlatTerm) -> FlatTerm:
        if isinstance(t, (Const, Lit)):
            return t
        seen = self.by_id.get(id(t))
        if seen is not None:
            return seen[1]
        flat = (Apply(t.op, tuple(self.purify(a) for a in t.args))
                if isinstance(t, Apply)
                else Meet(tuple(self.purify(a) for a in t.args)))
        proxy = self.table.define(flat)
        self.by_id[id(t)] = (t, proxy)
        return proxy

    def atom(self, a: Leq) -> Leq:
        return Leq(self.purify(a.lhs), self.purify(a.rhs))

    def name(self, t: FlatTerm) -> str:
        return self.purify(t).name


def triggered_axioms(problem: alg.AlgebraicProblem) -> list[int]:
    """The axioms whose instances the chase fires from the solver's trigger
    index: Mon over the operators whose arguments are all concepts, and
    the K2/K3 axioms whose premises are all concept atoms (every guarded
    argument is a concept).  The rest stay materialized: a numeric premise
    of Mon is decided when concdom splits the problem by sort, and a guard
    on a numeric position makes an atom that mixes sorts."""
    def concept_args(op: str, positions) -> bool:
        sorts = problem.ops.get(op)
        return sorts is not None and all(sorts[j] == CONCEPT for j in positions)

    out = []
    for i, ax in enumerate(problem.axioms):
        if isinstance(ax, Mon):
            ok = concept_args(ax.op, range(ax.arity))
        elif isinstance(ax, K2):
            ok = ax.guard is None or concept_args(ax.h.op, [
                j for j, s in enumerate(ax.h.slots) if isinstance(s, VarSlot)])
        else:
            ok = isinstance(ax, K3)
        if ok:
            out.append(i)
    return out


def flatten_purify(instances: Iterable[Instance], goal: Goal,
                   problem: alg.AlgebraicProblem,
                   triggered: Optional[dict[int, alg.Composition]] = None
                   ) -> PurifiedProblem:
    """Name every operator/meet term with a proxy constant.

    Proxies are handed out in first-encounter order walking the goal, then
    the instances; the definition map is a bijection between proxies and
    the one-level terms they abbreviate.

    triggered maps the indices of the axioms whose instances were left out
    of `instances` to their alg.composition.  Their terms are named where
    their instances would have been walked (in axiom order), so the
    proxies come out as if they were there.
    """
    table = PurifiedProblem(consts=dict(problem.consts))
    table.consts.setdefault(alg.BOT_CONST, CONCEPT)
    table.consts.setdefault(alg.TOP_CONST, CONCEPT)
    pur = _Purifier(table)

    table.facts = [pur.atom(a) for a in goal.assumptions]
    if goal.target is not None:
        table.target = pur.atom(goal.target)

    triggered = triggered or {}
    pending = sorted(triggered)

    def walk(i: int) -> None:
        # instantiate joins each head with every choice, head-major; after
        # a head's first instance its terms have proxies, and after the
        # first head every choice's, so a later head stops at its first
        ax = problem.axioms[i]
        heads, choices = triggered[i]
        walked = False
        for n, head in enumerate(heads):
            for choice in choices:
                inst = alg.composed(ax, head, choice)
                if inst is None:
                    continue
                premises, conclusion = inst
                for p in premises:
                    pur.atom(p)
                pur.atom(conclusion)
                walked = True
                if n:
                    break
        if not walked:
            return
        name = pur.name
        table.triggered[i] = hornsat.Family(
            alg.instance_tag(ax),
            tuple((name(t), tuple(map(name, zs))) for t, zs in heads),
            tuple((tuple(map(name, tails)),
                   tuple(map(name, guarded)) if ax.guard is not None else (),
                   name(rhs)) for tails, guarded, rhs in choices),
            name(ax.guard) if ax.guard is not None else None)

    for inst in instances:
        while pending and pending[0] < inst.axiom:
            walk(pending.pop(0))
        table.clauses.append(Instance(
            tuple(pur.atom(p) for p in inst.premises),
            pur.atom(inst.conclusion), inst.tag, inst.axiom))
    for i in pending:
        walk(i)
    return table


# ---------------------------------------------------------------------------
# semilattice instantiation
# ---------------------------------------------------------------------------

AtomKey = tuple[str, str]

INSTANTIATE = "instantiate"
CHASE = "chase"


@dataclass
class SLProblem:
    """Ground Horn problem over constant names, ready for the solver."""

    facts: list[tuple[AtomKey, str]]          # (atom, label)
    clauses: list[tuple[tuple[AtomKey, ...], AtomKey, str]]
    goal: Optional[AtomKey]
    universe: list[str]
    mode: str
    # per clause, the index of the axiom it instantiates (0 for the
    # lattice theory's clauses); the chase ranks clauses by it
    blocks: list[int] = field(default_factory=list)


def _atom_key(a: Leq) -> AtomKey:
    if not isinstance(a.lhs, Const) or not isinstance(a.rhs, Const):
        raise CheckError(f"numeric atom reached the lattice layer: {a}")
    return (a.lhs.name, a.rhs.name)


def sl_instantiate(purified: PurifiedProblem, mode: str = CHASE,
                   triggered: bool = True) -> SLProblem:
    """Unroll the lattice theory over the concept constants of a purified
    problem; the one builder of the theory.

    Facts: the inputs, then reflexivity, the bottom/top bounds and each
    meet below its operands.  Clauses: the purified axiom instances with
    each family of purified.triggered in its axiom's place, then meet
    introduction (S4); with triggered off, the chase solver fires those
    two from its trigger index instead.  In `instantiate` mode,
    transitivity over all ordered triples is materialized too; in `chase`
    mode the solver's built-in transitive closure covers it.  Facts and
    clauses are deduplicated, the first label or tag winning, so inputs
    and axiom instances keep their own.
    """
    if mode not in (INSTANTIATE, CHASE):
        raise ValueError(f"unknown mode {mode!r}")
    facts: dict[AtomKey, str] = {}
    clauses: list[tuple[tuple[AtomKey, ...], AtomKey, str]] = []
    blocks: list[int] = []
    seen: set[tuple[frozenset[AtomKey], AtomKey]] = set()

    def add_clause(premises: Iterable[AtomKey], concl: AtomKey, tag: str,
                   block: int = 0) -> None:
        prem = tuple(dict.fromkeys(premises))
        key = (frozenset(prem), concl)
        if key not in seen:
            seen.add(key)
            clauses.append((prem, concl, tag))
            blocks.append(block)

    add_fact = facts.setdefault
    for i, a in enumerate(purified.facts):
        add_fact(_atom_key(a), f"input:{i}")
    # both in axiom order, and no axiom has both instances and a family
    instances = (([_atom_key(p) for p in inst.premises],
                  _atom_key(inst.conclusion), inst.tag, inst.axiom)
                 for inst in purified.clauses)
    families = sorted(purified.triggered.items()) if triggered else []
    written = ((premises, concl, fam.tag, i) for i, fam in families
               for _, premises, concl in fam.rules())
    for clause in heapq.merge(instances, written, key=itemgetter(3)):
        add_clause(*clause)
    universe = [c for c, s in purified.consts.items() if s == CONCEPT]
    for x in universe:
        add_fact((x, x), "refl")
    for x in universe:
        add_fact((alg.BOT_CONST, x), "bound")
        add_fact((x, alg.TOP_CONST), "bound")
    for m, operands in purified.meets.items():
        for o in operands:
            add_fact((m, o), "meet-below")
    if triggered:
        for m, operands in purified.meets.items():
            for z in universe:
                if z != m:
                    add_clause([(z, o) for o in operands], (z, m),
                               "meet-intro")
    if mode == INSTANTIATE:
        for x, y, z in itertools.permutations(universe, 3):
            add_clause([(x, y), (y, z)], (x, z), "trans")

    goal = _atom_key(purified.target) if purified.target is not None else None
    return SLProblem(facts=list(facts.items()), clauses=clauses, goal=goal,
                     universe=universe, mode=mode, blocks=blocks)


def sl_clause_count(purified: PurifiedProblem) -> int:
    """The exact clause count of sl_instantiate in `instantiate` mode
    without materializing the transitivity instances (which grow cubically
    in the universe)."""
    sl = sl_instantiate(purified, CHASE)
    m = len(sl.universe)
    s1_total = m * (m - 1) * (m - 2)
    collisions = 0
    for prem, (a, c), _ in sl.clauses:
        if len(prem) != 2 or a == c:
            continue
        # the premise pair of the matching transitivity instance is
        # {(a,b),(b,c)} for some b distinct from both
        for (p1, p2) in (prem, prem[::-1]):
            if p1[0] == a and p2[1] == c and p1[1] == p2[0]:
                b = p1[1]
                if b != a and b != c:
                    collisions += 1
                break
    return len(sl.clauses) + s1_total - collisions


# ---------------------------------------------------------------------------
# reduction text format
# ---------------------------------------------------------------------------

def render_reduction(sl: SLProblem) -> str:
    """Serialize as one fact/clause/goal per line (parse_reduction reads it)."""
    lines = []
    for (a, b), _ in sl.facts:
        lines.append(f"fact {a} <= {b}")
    for premises, (a, b), _ in sl.clauses:
        prem = ", ".join(f"{x} <= {y}" for x, y in premises)
        lines.append(f"clause {prem} -> {a} <= {b}")
    if sl.goal is not None:
        lines.append(f"goal {sl.goal[0]} <= {sl.goal[1]}")
    return "\n".join(lines) + "\n"


def parse_reduction(text: str) -> SLProblem:
    facts: list[tuple[AtomKey, str]] = []
    clauses: list[tuple[tuple[AtomKey, ...], AtomKey, str]] = []
    goal: Optional[AtomKey] = None
    names: dict[str, None] = {}

    def atom(s: str, lineno: int) -> AtomKey:
        parts = s.split("<=")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise CheckError(f"line {lineno}: bad atom {s.strip()!r}")
        a, b = parts[0].strip(), parts[1].strip()
        names.setdefault(a, None)
        names.setdefault(b, None)
        return (a, b)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("fact "):
            facts.append((atom(line[5:], lineno), f"line:{lineno}"))
        elif line.startswith("clause "):
            body = line[7:]
            if "->" not in body:
                raise CheckError(f"line {lineno}: a clause needs '->'")
            lhs, rhs = body.split("->", 1)
            premises = tuple(atom(p, lineno) for p in lhs.split(",") if p.strip())
            clauses.append((premises, atom(rhs, lineno), f"line:{lineno}"))
        elif line.startswith("goal "):
            if goal is not None:
                raise CheckError(f"line {lineno}: more than one goal")
            goal = atom(line[5:], lineno)
        else:
            raise CheckError(f"line {lineno}: expected fact/clause/goal")
    return SLProblem(facts=facts, clauses=clauses, goal=goal,
                     universe=list(names), mode=CHASE)
