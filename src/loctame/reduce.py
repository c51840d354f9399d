"""From concept boxes to ground Horn problems over a semilattice.

Three steps live here:

  translate       inclusions between concepts become inequations between
                  ground terms (names as constants, conjunction as meet,
                  existentials as monotone operators), role axioms become
                  the Horn axiom shapes of `algebra`;
  flatten_purify  every functional/meet term of the goal and the
                  instantiated clause set is named by a definitional
                  proxy constant;
  sl_instantiate  the semilattice theory itself is unrolled over the
                  occurring constants (reflexivity, bounds, meet bounds,
                  meet introduction; in `instantiate` mode also explicit
                  transitivity, which `chase` mode delegates to the
                  solver).

PurifiedProblem is the operation's one term table (an algebra.TermTable):
every term is numbered once, the closure and the instances are built
over the numbers, and an atom is a pair of them.  `define` names a term
(purification's proxies _t0, _t1, ... and the defined constants c_{f(t)}
that interpolation's separation adds, _i0, _i1, ...), and `unfold`
renders one back as a term object, each id once, so shared subterms stay
shared.

sl_instantiate is the one builder of the semilattice theory: the
pipeline unrolls it over a purified problem, and interpolation over its
term table alone, once per round, as separation adds defined constants.

The instances of the Mon/K2/K3 axioms whose premises are all concept
atoms (monotonicity of the operators whose arguments are all concepts,
and the role compositions) reach purification as rule families
(algebra.Family), in both modes.  flatten_purify names their terms in
the order the written-out instances would have (walking, per axiom, the
first head with every choice and each later head with its first choice,
which is linear in the closure terms involved), so the proxies, the
dumped reduction and every derivation read the same in both modes.
sl_instantiate writes the families out (each in its axiom's place among
the instances, then meet introduction) for `instantiate` mode's solver
and for the full reduction a report shows; the `chase` solver fires them
and meet introduction from its trigger index (hornsat.Triggers) instead.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Optional

from . import algebra as alg
from .algebra import (Apply, Const, FixedSlot, FlatTerm, Goal, Instance, K1,
                      K2, K3, Leq, Lit, Meet, Mon, OpTemplate, VarSlot)
from .syntax import (CBox, CheckError, CONCEPT, Concept, Interval, NUM,
                     Query, RoleEnv, RoleInclusion, And, Bot, Exists, Name,
                     Top, check_cbox, concept_sort)

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

    def restrictions(self, role: str) -> tuple[str, list[tuple]]:
        """The unrestricted role under a chain of restrictions, and the
        chain's links (base, position, concept), the role's own first."""
        links = []
        exp = self.env.expansions.get(role)
        while exp is not None:
            links.append(exp)
            role = exp[0]
            exp = self.env.expansions.get(role)
        return role, links

    def role_apply(self, role: str, args: list[FlatTerm]) -> Apply:
        """Apply a role's operator, plugging in its restriction chain's
        concepts, the role's own first."""
        root, links = self.restrictions(role)
        args = list(args)
        for base, pos, concept in links:
            args.insert(pos - 1, self.term(concept, self.env.sigs[base][pos]))
        return Apply(self.register_op(root), tuple(args))

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
        restriction fixed one, the innermost restriction's first."""
        root, links = self.restrictions(role)
        op = self.register_op(root)
        slots: list = [None] * len(self.env.fillers(root))
        for base, pos, concept in reversed(links):
            open_positions = [i for i, s in enumerate(slots) if s is None]
            slots[open_positions[pos - 1]] = self.term(
                concept, self.env.sigs[base][pos])
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
    for side in (lhs, rhs):
        if not isinstance(side, (Top, Bot)):
            return concept_sort(side, env)
    return CONCEPT


# ---------------------------------------------------------------------------
# flatten / purify
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class PurifiedProblem(alg.TermTable):
    """Ground Horn problem whose atoms relate constants and literals only,
    and the one term table of its operation.

    Every term is an id of the table.  A constant is a name, or an
    operator/meet term that purification (or interpolation's separation)
    has named with a proxy: _t0, _t1, ... and _i0, _i1, ....  Atoms are
    pairs of ids, so purification only names terms; it rewrites nothing.
    """

    facts: list[alg.Atom] = field(default_factory=list)
    target: Optional[alg.Atom] = None
    clauses: list[Instance] = field(default_factory=list)
    # every constant in play -> sort, names first, then proxies as named
    sorts: dict[int, str] = field(default_factory=dict)
    # constant -> its name
    names: dict[int, str] = field(default_factory=dict)
    # meet proxies -> operand constants
    meets: dict[int, tuple[int, ...]] = field(default_factory=dict)
    # axiom index -> the rule family of an axiom whose instances `clauses`
    # leaves out: the chase fires them from the solver's trigger index,
    # and sl_instantiate writes them out
    triggered: dict[int, alg.Family] = field(default_factory=dict)
    # proxy prefix -> how many constants it has numbered
    numbered: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, problem: alg.AlgebraicProblem) -> "PurifiedProblem":
        """The table of a problem: the goal's atoms as facts and target,
        and the sort of each of its constants, then of bottom and top."""
        table = cls()
        table.facts = [table.atom(a) for a in problem.goal.assumptions]
        if problem.goal.target is not None:
            table.target = table.atom(problem.goal.target)
        for name, sort in problem.consts.items():
            table.register(name, sort)
        table.register(alg.BOT_CONST, CONCEPT)
        table.register(alg.TOP_CONST, CONCEPT)
        return table

    def goal_atoms(self) -> list[alg.Atom]:
        return self.facts + ([self.target] if self.target is not None else [])

    def register(self, name: str, sort: str) -> int:
        i = self.ids.get(name)
        if i is None:
            i = self.leaf(Const(name))
        if i not in self.sorts:
            self.sorts[i] = sort
            self.names[i] = name
        return i

    @property
    def defs(self) -> dict[str, FlatTerm]:
        """Every proxy's name -> the one-level term it stands for."""
        names = self.names
        return {names[i]: self.definition(i) for i in names
                if self.ops[i] is not None}

    def definition(self, i: int) -> FlatTerm:
        """The one-level term a proxy stands for, over constants."""
        args = tuple(alg.Const(self.names[a]) if a in self.names
                     else self.leaves[a] for a in self.args[i])
        op = self.ops[i]
        return Meet(args) if op == alg.MEET else Apply(op, args)

    def define(self, i: int, prefix: str = "_t") -> int:
        """Name an operator/meet term whose arguments are constants or
        literals: keep its name, else give it the next `prefix` name."""
        if i in self.names:
            return i
        meet = self.ops[i] == alg.MEET
        if meet and any(isinstance(self.leaves[a], Lit) for a in self.args[i]):
            raise CheckError(
                f"numeric meet reached purification: {self.definition(i)}")
        n = self.numbered.get(prefix, 0)
        self.numbered[prefix] = n + 1
        self.names[i] = f"{prefix}{n}"
        self.sorts[i] = CONCEPT
        if meet:
            self.meets[i] = self.args[i]
        return i

    def purify(self, i: int) -> None:
        """Name a term and its operator/meet subterms, arguments first."""
        if i in self.names or self.ops[i] is None:
            return
        for a in self.args[i]:
            self.purify(a)
        self.define(i)

    def is_lit(self, i: int) -> bool:
        return isinstance(self.leaves[i], Lit)


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


def flatten_purify(table: PurifiedProblem, instances: list[Instance],
                   families: Optional[dict[int, alg.Family]] = None
                   ) -> PurifiedProblem:
    """Name every operator/meet term with a proxy constant, and take the
    instances as the table's clauses and the families that have an
    instance as its triggered ones.

    Proxies are handed out in first-encounter order walking the goal, then
    the instances, each term after its arguments.

    families maps the indices of the axioms whose instances were left out
    of `instances` to their rule families.  Their terms are named where
    their instances would have been walked (in axiom order), so the
    proxies come out as if they were there.
    """
    purify = table.purify

    def name(atoms) -> None:
        for x, y in atoms:
            purify(x)
            purify(y)

    name(table.goal_atoms())
    families = families or {}
    pending = sorted(families)

    def walk(i: int) -> None:
        # the instances run head-major; after a head's first instance its
        # terms have proxies, and after the first head every choice's
        # (Mon's own choice for it repeats that head's terms), so a later
        # head stops at its first.  A family without instances is not kept.
        fam = families[i]
        for hi in range(len(fam.heads)):
            for ci in range(len(fam.choices)):
                if fam.reflexive(hi, ci):
                    continue
                _, premises, conclusion = fam.rule(hi, ci)
                name((*premises, conclusion))
                table.triggered[i] = fam
                if hi:
                    break

    for inst in instances:
        while pending and pending[0] < inst.axiom:
            walk(pending.pop(0))
        name((*inst.premises, inst.conclusion))
    for i in pending:
        walk(i)
    table.clauses = instances
    return table


# ---------------------------------------------------------------------------
# semilattice instantiation
# ---------------------------------------------------------------------------

AtomKey = alg.Atom

INSTANTIATE = "instantiate"
CHASE = "chase"


@dataclass
class SLProblem:
    """Ground Horn problem over constants, ready for the solver."""

    facts: list[tuple[AtomKey, str]]          # (atom, label)
    clauses: list[tuple[tuple[AtomKey, ...], AtomKey, str]]
    goal: Optional[AtomKey]
    universe: list
    mode: str
    # per clause, the index of the axiom it instantiates (0 for the
    # lattice theory's clauses); the chase ranks clauses by it
    blocks: list[int] = field(default_factory=list)
    # constant -> its name, where the constants are table ids (None where
    # they are names already, as in a parsed dump)
    names: Optional[dict[int, str]] = None


def _concept_atom(table: PurifiedProblem, a: AtomKey) -> AtomKey:
    if table.is_lit(a[0]) or table.is_lit(a[1]):
        raise CheckError(
            f"numeric atom reached the lattice layer: {table.leq(a)}")
    return a


def sl_instantiate(purified: PurifiedProblem, mode: str = CHASE,
                   triggered: bool = True) -> SLProblem:
    """Unroll the lattice theory over the concept constants of a purified
    problem; the one builder of the theory.

    Facts: the inputs, then reflexivity, the bottom/top bounds and each
    meet below its operands.  Clauses: the purified axiom instances with
    each family of purified.triggered in its axiom's place, then meet
    introduction (S4).  With triggered off, the chase solver fires those
    two from its trigger index instead, and holds the unit facts x <= x,
    bot <= x and x <= top in its bitsets (hornsat.Lattice), so neither
    they nor a meet-below fact equal to one of them is written; an input
    equal to one stays, with its own label.  In `instantiate` mode,
    transitivity over all ordered triples is materialized too; in `chase`
    mode the solver's built-in transitive closure covers it.  Facts and
    clauses are deduplicated, the first label or tag winning, so inputs
    and axiom instances keep their own; the transitivity instances are
    distinct by construction and are only checked against the clauses
    before them.
    """
    if mode not in (INSTANTIATE, CHASE):
        raise ValueError(f"unknown mode {mode!r}")
    facts: dict[AtomKey, str] = {}
    clauses: list[tuple[tuple[AtomKey, ...], AtomKey, str]] = []
    blocks: list[int] = []
    seen: set[tuple[frozenset[AtomKey], AtomKey]] = set()

    def add_clause(premises: tuple[AtomKey, ...], concl: AtomKey, tag: str,
                   block: int = 0) -> None:
        key = (frozenset(premises), concl)
        if key not in seen:
            seen.add(key)
            clauses.append((premises, concl, tag))
            blocks.append(block)

    add_fact = facts.setdefault
    for i, a in enumerate(purified.facts):
        add_fact(_concept_atom(purified, a), f"input:{i}")
    # both in axiom order, and no axiom has both instances and a family
    families = sorted(purified.triggered.items()) if triggered else []
    written = ((premises, concl, fam.tag, i) for i, fam in families
               for _, premises, concl in fam.rules())
    for clause in heapq.merge(purified.clauses, written, key=itemgetter(3)):
        add_clause(*clause)
    universe = [c for c, s in purified.sorts.items() if s == CONCEPT]
    bot, top = purified.ids[alg.BOT_CONST], purified.ids[alg.TOP_CONST]
    if triggered:
        for x in universe:
            add_fact((x, x), "refl")
        for x in universe:
            add_fact((bot, x), "bound")
            add_fact((x, top), "bound")
    for m, operands in purified.meets.items():
        for o in operands:
            if triggered or not (m == o or m == bot or o == top):
                add_fact((m, o), "meet-below")
    if triggered:
        for m, operands in purified.meets.items():
            for z in universe:
                if z != m:
                    add_clause(tuple(dict.fromkeys((z, o) for o in operands)),
                               (z, m), "meet-intro")
    if mode == INSTANTIATE:
        taken = _transitivity_twins(clauses)
        for x, y, z in itertools.permutations(universe, 3):
            if (x, y, z) not in taken:
                clauses.append((((x, y), (y, z)), (x, z), "trans"))
        blocks.extend([0] * (len(clauses) - len(blocks)))

    goal = (_concept_atom(purified, purified.target)
            if purified.target is not None else None)
    return SLProblem(facts=list(facts.items()), clauses=clauses, goal=goal,
                     universe=universe, mode=mode, blocks=blocks,
                     names=purified.names)


def _transitivity_twins(clauses) -> set[tuple]:
    """The triples (a, b, c) of distinct constants whose transitivity
    instance a<=b, b<=c -> a<=c a clause has already: the same premises
    and conclusion."""
    taken = set()
    for prem, (a, c), _ in clauses:
        if len(prem) != 2 or a == c:
            continue
        for (p1, p2) in (prem, prem[::-1]):
            if p1[0] == a and p2[1] == c and p1[1] == p2[0]:
                b = p1[1]
                if b != a and b != c:
                    taken.add((a, b, c))
                break
    return taken


def sl_clause_count(purified: PurifiedProblem) -> int:
    """The exact clause count of sl_instantiate in `instantiate` mode
    without materializing the transitivity instances (which grow cubically
    in the universe)."""
    sl = sl_instantiate(purified, CHASE)
    m = len(sl.universe)
    return (len(sl.clauses) + m * (m - 1) * (m - 2)
            - len(_transitivity_twins(sl.clauses)))


# ---------------------------------------------------------------------------
# reduction text format
# ---------------------------------------------------------------------------

def render_reduction(sl: SLProblem) -> str:
    """Serialize as one fact/clause/goal per line (parse_reduction reads it)."""
    name = sl.names.__getitem__ if sl.names is not None else str
    lines = []
    for (a, b), _ in sl.facts:
        lines.append(f"fact {name(a)} <= {name(b)}")
    for premises, (a, b), _ in sl.clauses:
        prem = ", ".join(f"{name(x)} <= {name(y)}" for x, y in premises)
        lines.append(f"clause {prem} -> {name(a)} <= {name(b)}")
    if sl.goal is not None:
        lines.append(f"goal {name(sl.goal[0])} <= {name(sl.goal[1])}")
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
