"""Ground terms and Horn axiom shapes over semilattices with monotone
operators, the closure of a term set under the axiom heads, and the
instantiation of the axioms with closure terms.

Terms are constants, interval literals, meets, and operator applications.
The axiom shapes are:

    Mon(f):    x1<=y1 & ... & xn<=yn  ->  f(x)<=f(y)
    K1(g,h):   [guards]               ->  g(x)<=h(x)
    K2(f,g,h): z1<=g1(x1) & ... & zn<=gn(xn) [guards] -> f(z)<=h(x1..xn)
    K3(f,g):   z1<=g1(y) & ... & zn<=gn(y)   [guards] -> f(z)<=y

Operator argument positions in K1-K3 are slot templates: either a shared
variable or a fixed ground term (fixed slots arise when a role restriction
pins one argument to a concept).  Guards are ground terms; a guarded axiom
additionally requires x<=guard for every variable x of the conclusion's
right-hand side.

The closure and the instances are computed over a TermTable, which
numbers every distinct term once: a closure is a list of ids, and an
instance's atoms are pairs of ids.

The closure-local instances of a Mon/K2/K3 axiom have one form, a
Family of heads x choices: `instantiate` writes its rules out, and the
pipeline keeps it whole for the axioms over concept atoms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Container, Iterable, Iterator, NamedTuple, Optional, Union

from .syntax import Interval, LoctameError

BOT_CONST = "__bot"
TOP_CONST = "__top"


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    """A constant: a concept name, or a proxy that names a term."""
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Lit:
    """An interval literal used as a ground term of the numeric sort."""

    interval: Interval

    def __str__(self) -> str:
        lo, hi = self.interval.lo, self.interval.hi
        left = "(-inf" if lo is None else f"[{lo}"
        right = "+inf)" if hi is None else f"{hi}]"
        return f"{left},{right}"


@dataclass(frozen=True)
class Apply:
    """An operator applied to its argument terms."""
    op: str
    args: tuple["FlatTerm", ...]

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Meet:
    """The meet of two or more terms."""
    args: tuple["FlatTerm", ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("a meet needs at least two operands")

    def __str__(self) -> str:
        return "(" + " & ".join(str(a) for a in self.args) + ")"


FlatTerm = Union[Const, Lit, Apply, Meet]


@dataclass(frozen=True)
class Leq:
    """The atom `lhs <= rhs`."""
    lhs: FlatTerm
    rhs: FlatTerm

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


def symbols(terms: Iterable[FlatTerm]
            ) -> tuple[dict[str, None], set[str], bool]:
    """The constants of the terms in first-seen order (each term before
    its arguments, left to right), their operators, and whether a literal
    occurs."""
    consts: dict[str, None] = {}
    ops: set[str] = set()
    lit = False
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if isinstance(t, Const):
            consts[t.name] = None
        elif isinstance(t, Lit):
            lit = True
        else:
            if isinstance(t, Apply):
                ops.add(t.op)
            stack.extend(reversed(t.args))
    return consts, ops, lit


# ---------------------------------------------------------------------------
# axiom shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarSlot:
    """A template argument that is the variable x<index>."""
    index: int

    def __str__(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class FixedSlot:
    """A template argument fixed to a ground term."""
    term: FlatTerm

    def __str__(self) -> str:
        return str(self.term)


Slot = Union[VarSlot, FixedSlot]


@dataclass(frozen=True)
class OpTemplate:
    """An operator applied to a mix of variables and fixed ground terms.

    Variable indices appear at most once each and in increasing order.
    """

    op: str
    slots: tuple[Slot, ...]

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(s) for s in self.slots)})"

    @property
    def nvars(self) -> int:
        return sum(1 for s in self.slots if isinstance(s, VarSlot))

    def var_indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.slots if isinstance(s, VarSlot))


def plain_template(op: str, arity: int, start: int = 0) -> OpTemplate:
    return OpTemplate(op, tuple(VarSlot(start + i) for i in range(arity)))


@dataclass(frozen=True)
class Mon:
    """Monotonicity of an operator of the given arity."""
    op: str
    arity: int
    guard = None                    # never guarded, unlike K1-K3

    def __str__(self) -> str:
        return f"Mon({self.op}/{self.arity})"


@dataclass(frozen=True)
class K1:
    """g(x) <= h(x), optionally guarded."""
    g: OpTemplate
    h: OpTemplate
    guard: Optional[FlatTerm] = None

    def __post_init__(self):
        if self.g.var_indices() != self.h.var_indices():
            raise ValueError(f"template variables differ: {self.g} vs {self.h}")

    def __str__(self) -> str:
        s = f"{self.g} <= {self.h}"
        return s if self.guard is None else f"{s} [guard {self.guard}]"


@dataclass(frozen=True)
class K2:
    """z_i <= g_i(x_i) -> f(z) <= h(x_1...x_n).

    f's variable slots are the z_i in order, one per tail; the g_i use
    disjoint blocks of x-variables whose concatenation is h's variables.
    """

    f: OpTemplate
    gs: tuple[OpTemplate, ...]
    h: OpTemplate
    guard: Optional[FlatTerm] = None

    def __post_init__(self):
        if self.f.nvars != len(self.gs):
            raise ValueError("the outer operator needs one variable per tail")
        xs = tuple(i for g in self.gs for i in g.var_indices())
        if xs != self.h.var_indices():
            raise ValueError("tail variables must concatenate to the rhs variables")

    def __str__(self) -> str:
        prem = " & ".join(f"z{i} <= {g}" for i, g in enumerate(self.gs))
        f = _z_render(self.f)
        s = f"{prem} -> {f} <= {self.h}"
        return s if self.guard is None else f"{s} [guard {self.guard}]"


def _z_render(tpl: OpTemplate) -> str:
    parts = [f"z{s.index}" if isinstance(s, VarSlot) else str(s) for s in tpl.slots]
    return f"{tpl.op}({', '.join(parts)})"


@dataclass(frozen=True)
class K3:
    """z_i <= g_i(y) -> f(z) <= y, every g_i applied to the same variable."""

    f: OpTemplate
    gs: tuple[OpTemplate, ...]
    guard: Optional[FlatTerm] = None

    def __post_init__(self):
        if self.f.nvars != len(self.gs):
            raise ValueError("the outer operator needs one variable per tail")
        for g in self.gs:
            if g.nvars != 1:
                raise ValueError("identity compositions need unary tails")

    def __str__(self) -> str:
        prem = " & ".join(f"z{i} <= {g}" for i, g in enumerate(self.gs))
        s = f"{prem} -> {_z_render(self.f)} <= y"
        return s if self.guard is None else f"{s} [guard {self.guard}]"


AlgAxiom = Union[Mon, K1, K2, K3]


def axiom_templates(ax: AlgAxiom) -> list[OpTemplate]:
    """The operator templates an axiom is written with (Mon has none)."""
    if isinstance(ax, Mon):
        return []
    if isinstance(ax, K1):
        return [ax.g, ax.h]
    if isinstance(ax, K2):
        return [ax.f, *ax.gs, ax.h]
    return [ax.f, *ax.gs]


def axiom_ops(ax: AlgAxiom) -> set[str]:
    if isinstance(ax, Mon):
        return {ax.op}
    return {tpl.op for tpl in axiom_templates(ax)}


@dataclass(frozen=True)
class Goal:
    """Assumption atoms together with the single atom to refute.

    target None asks only for the least model of the assumptions (used for
    classification, where one goal-free run answers all name queries).
    """

    assumptions: tuple[Leq, ...]
    target: Optional[Leq]

    def all_atoms(self) -> tuple[Leq, ...]:
        if self.target is None:
            return self.assumptions
        return self.assumptions + (self.target,)


@dataclass
class AlgebraicProblem:
    """A translated CBox: its axioms, its goal and its signature."""
    axioms: tuple[AlgAxiom, ...]
    goal: Goal
    # operator name -> argument sorts (the result sort is always concept)
    ops: dict[str, tuple[str, ...]]
    # constant name -> sort
    consts: dict[str, str]


# ---------------------------------------------------------------------------
# the term table
# ---------------------------------------------------------------------------

MEET = "&"                          # the operator of a meet in a TermTable

# an atom over table ids: (lhs, rhs) read as lhs <= rhs
Atom = tuple[int, int]


@dataclass(eq=False)
class TermTable:
    """Numbers every distinct term once: a constant by its name, a literal
    by itself, an application or meet by its operator and argument ids.

    The closure, instantiation and purification work on the ids; `unfold`
    builds a term object back (each id once, so shared subterms stay
    shared) where output needs one.
    """

    ids: dict[object, int] = field(default_factory=dict)
    ops: list[Optional[str]] = field(default_factory=list)  # None: a leaf
    args: list[tuple[int, ...]] = field(default_factory=list)
    leaves: list[Union[Const, Lit, None]] = field(default_factory=list)
    unfolded: dict[int, FlatTerm] = field(default_factory=dict)
    # id of an axiom -> the axiom and its patterns over this table
    compiled: dict[int, tuple["AlgAxiom", "_Compiled"]] = field(
        default_factory=dict)

    def leaf(self, t: Union[Const, Lit]) -> int:
        key = t.name if isinstance(t, Const) else t
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.ops)
            self.ops.append(None)
            self.args.append(())
            self.leaves.append(t)
        return i

    def compound(self, op: str, args: tuple[int, ...]) -> int:
        key = (op, args)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.ops)
            self.ops.append(op)
            self.args.append(args)
            self.leaves.append(None)
        return i

    def intern(self, t: FlatTerm) -> int:
        if isinstance(t, (Const, Lit)):
            return self.leaf(t)
        args = tuple(self.intern(a) for a in t.args)
        return self.compound(MEET if isinstance(t, Meet) else t.op, args)

    def atom(self, a: Leq) -> Atom:
        return (self.intern(a.lhs), self.intern(a.rhs))

    def unfold(self, i: int) -> FlatTerm:
        """The term object of an id."""
        out = self.unfolded.get(i)
        if out is None:
            out = self.leaves[i]
            if out is None:
                args = tuple(self.unfold(a) for a in self.args[i])
                op = self.ops[i]
                out = Meet(args) if op == MEET else Apply(op, args)
            self.unfolded[i] = out
        return out

    def leq(self, atom: Atom) -> Leq:
        return Leq(self.unfold(atom[0]), self.unfold(atom[1]))

    def compile(self, ax: "AlgAxiom") -> "_Compiled":
        """An axiom's templates as patterns over this table, built once."""
        hit = self.compiled.get(id(ax))
        if hit is None:
            # the axiom is kept with its patterns, so its id stays its own
            hit = self.compiled[id(ax)] = (ax, _Compiled(ax, self))
        return hit[1]


class _Pattern:
    """An OpTemplate over table ids: its fixed slots interned."""

    __slots__ = ("op", "arity", "fixed", "var_pos")

    def __init__(self, tpl: OpTemplate, table: TermTable):
        self.op = tpl.op
        self.arity = len(tpl.slots)
        self.fixed = tuple((p, table.intern(s.term))
                           for p, s in enumerate(tpl.slots)
                           if isinstance(s, FixedSlot))
        self.var_pos = tuple(p for p, s in enumerate(tpl.slots)
                             if isinstance(s, VarSlot))

    def match(self, args: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """The arguments at the variable slots (in variable order), or
        None where a fixed slot or the arity differs."""
        if len(args) != self.arity:
            return None
        if not self.fixed:
            return args
        for p, f in self.fixed:
            if args[p] != f:
                return None
        return tuple(args[p] for p in self.var_pos)

    def build(self, table: TermTable, values: tuple[int, ...]) -> int:
        if not self.fixed:
            return table.compound(self.op, values)
        out = [0] * self.arity
        for p, f in self.fixed:
            out[p] = f
        for p, v in zip(self.var_pos, values):
            out[p] = v
        return table.compound(self.op, tuple(out))


class _Compiled:
    """An axiom over one table: its templates as patterns, its guard an id."""

    __slots__ = ("ax", "g", "h", "f", "gs", "guard")

    def __init__(self, ax: AlgAxiom, table: TermTable):
        self.ax = ax
        pat = lambda tpl: _Pattern(tpl, table)  # noqa: E731
        self.g = pat(ax.g) if isinstance(ax, K1) else None
        self.h = pat(ax.h) if isinstance(ax, (K1, K2)) else None
        self.f = pat(ax.f) if isinstance(ax, (K2, K3)) else None
        self.gs = tuple(map(pat, ax.gs)) if isinstance(ax, (K2, K3)) else ()
        self.guard = table.intern(ax.guard) if ax.guard is not None else None


def goal_seeds(table: TermTable, atoms: Iterable[Atom]) -> list[int]:
    """All operator applications inside the atoms, in first-seen order
    (each atom's left side, then its right side, each term before its
    arguments)."""
    seen: dict[int, None] = {}
    ops, args = table.ops, table.args

    def walk(t: int) -> None:
        op = ops[t]
        if op is None:
            return
        if op != MEET:
            seen.setdefault(t, None)
        for a in args[t]:
            walk(a)

    for lhs, rhs in atoms:
        walk(lhs)
        walk(rhs)
    return list(seen)


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def psi_closure(table: TermTable, seeds: Iterable[int],
                axioms: Iterable[AlgAxiom]) -> list[int]:
    """Close the seed terms under the conclusion operators of K1 and K2.

    K1 adds h(x) whenever g(x) is present; K2 adds h(x1..xn) whenever all
    g_i(x_i) are present.  Mon and K3 conclusions introduce no new
    operator terms.  Each round matches the axioms against a snapshot of
    the closure.  Returns the closure's ids in deterministic insertion
    order.
    """
    psi: dict[int, None] = dict.fromkeys(seeds)
    compiled = [table.compile(ax) for ax in axioms
                if isinstance(ax, (K1, K2))]
    k1s = [c for c in compiled if isinstance(c.ax, K1)]
    k2s = [c for c in compiled if isinstance(c.ax, K2)]
    args = table.args

    changed = True
    while changed:
        changed = False
        by_op = terms_by_op(table, psi)
        new = itertools.chain(
            (c.h.build(table, vals) for c in k1s
             for t in by_op.get(c.g.op, ())
             if (vals := c.g.match(args[t])) is not None),
            (c.h.build(table, vals) for c in k2s
             for _, vals in _tail_product(c, by_op, args)))
        for t in new:
            if t not in psi:
                psi[t] = None
                changed = True
    return list(psi)


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

class Instance(NamedTuple):
    """A ground Horn clause over table ids, from one axiom and closure
    terms."""

    premises: tuple[Atom, ...]
    conclusion: Atom
    tag: str
    axiom: int = 0                  # the index of its axiom


def terms_by_op(table: TermTable, psi: Iterable[int]) -> dict[str, list[int]]:
    """The closure terms of each operator, in closure order."""
    by_op: dict[str, list[int]] = {}
    ops = table.ops
    for t in psi:
        by_op.setdefault(ops[t], []).append(t)
    return by_op


def _tail_product(c: _Compiled, by_op: dict[str, list[int]],
                  args: list[tuple[int, ...]]
                  ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """One g_i-term per tail of a K2 axiom, the product in closure order:
    the tail terms and the values of the x-variables they bind, in
    variable order."""
    per_tail = [[(t, v) for t in by_op.get(g.op, ())
                 if (v := g.match(args[t])) is not None] for g in c.gs]
    for combo in itertools.product(*per_tail):
        yield (tuple(t for t, _ in combo),
               tuple(x for _, v in combo for x in v))


@dataclass(frozen=True)
class Family:
    """The closure-local instances of a Mon/K2/K3 axiom, as a product.

    heads[h] = (head, zs) and choices[c] = (tails, guarded, rhs) make the
    rule  z_i <= tail_i (each i), x <= guard (each guarded x)  ->
    head <= rhs  at position h * len(choices) + c of the axiom's block.
    Within a family no two rules share a conclusion.  The constants are
    table ids in the pipeline and any hashable values in the solver.
    """

    tag: str
    heads: tuple[tuple[int, tuple[int, ...]], ...]
    choices: tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]
    guard: Optional[int] = None

    def rule(self, hi: int, ci: int) -> tuple[int, tuple[Atom, ...], Atom]:
        """The rule joining head hi and choice ci: its position, premises
        (tails, then guard atoms, without repeats) and conclusion."""
        head, zs = self.heads[hi]
        tails, guarded, rhs = self.choices[ci]
        premises = list(zip(zs, tails))
        if self.guard is not None:
            premises += [(x, self.guard) for x in guarded]
        return (hi * len(self.choices) + ci, tuple(dict.fromkeys(premises)),
                (head, rhs))

    def reflexive(self, hi: int, ci: int) -> bool:
        """Is this Mon's rule pairing a term with itself?  Reflexivity
        gives its conclusion, so it is no instance."""
        return (self.heads[hi][0] == self.choices[ci][2]
                and self.tag.startswith("Mon("))

    def rules(self) -> Iterator[tuple[int, tuple[Atom, ...], Atom]]:
        """Every instance in position order (head-major)."""
        return (self.rule(hi, ci) for hi in range(len(self.heads))
                for ci in range(len(self.choices))
                if not self.reflexive(hi, ci))


def composition(table: TermTable, ax: Union[Mon, K2, K3],
                by_op: dict[str, list[int]]) -> Family:
    """The closure-local instances of a Mon/K2/K3 axiom as a Family.

    Mon(f), tagged Mon(f), has one head (t, t.args) and one choice
    (t.args, (), t) per f-term t in closure order; K2 chooses one g_i-term
    per tail (the product in closure order) and guards h's arguments; K3
    chooses a y with every g_i(y) in the closure (in the order of the
    terms' text) and guards y.
    """
    args = table.args
    if isinstance(ax, Mon):
        terms = by_op.get(ax.op, [])
        return Family(f"Mon({ax.op})", tuple((t, args[t]) for t in terms),
                      tuple((args[t], (), t) for t in terms))
    tag, c = type(ax).__name__, table.compile(ax)
    heads = tuple((t, vals) for t in by_op.get(c.f.op, ())
                  if (vals := c.f.match(args[t])) is not None)
    if not heads:
        return Family(tag, heads, (), c.guard)
    if isinstance(ax, K2):
        return Family(tag, heads, tuple(
            (tails, vals, c.h.build(table, vals))
            for tails, vals in _tail_product(c, by_op, args)), c.guard)
    # candidate y: every term c such that each g_i(c) is in the closure
    cands: Optional[set[int]] = None
    for g in c.gs:
        here = {vals[0] for t in by_op.get(g.op, ())
                if (vals := g.match(args[t])) is not None}
        cands = here if cands is None else cands & here
    text = {y: str(table.unfold(y)) for y in cands}
    return Family(tag, heads, tuple(
        (tuple(g.build(table, (y,)) for g in c.gs), (y,), y)
        for y in sorted(cands, key=text.__getitem__)), c.guard)


def instantiate(table: TermTable, axioms: Iterable[AlgAxiom],
                by_op: dict[str, list[int]], skip: Container[int] = ()
                ) -> list[Instance]:
    """All closure-local instances of the axioms, duplicates removed, except
    those of the axioms whose indices are in skip; by_op holds the closure
    terms of each operator (terms_by_op).

    Mon yields an instance for every ordered pair of distinct closure terms
    with its operator; for an operator with k closure terms that is
    k*(k-1) instances.
    """
    args = table.args

    out: list[Instance] = []
    seen: set[tuple[frozenset[Atom], Atom]] = set()

    def emit(premises: tuple[Atom, ...], conclusion: Atom, tag: str) -> None:
        # premises come without repeats; drop duplicate clauses
        key = (frozenset(premises), conclusion)
        if key in seen:
            return
        seen.add(key)
        out.append(Instance(premises, conclusion, tag, i))

    for i, ax in enumerate(axioms):
        if i in skip:
            continue
        if isinstance(ax, K1):
            c = table.compile(ax)
            for t in by_op.get(c.g.op, ()):
                vals = c.g.match(args[t])
                if vals is None:
                    continue
                # two variables may take one value, as in f(A, A)
                guards = (tuple(dict.fromkeys((x, c.guard) for x in vals))
                          if c.guard is not None else ())
                emit(guards, (t, c.h.build(table, vals)), "K1")
        elif isinstance(ax, (Mon, K2, K3)):
            fam = composition(table, ax, by_op)
            for _, premises, conclusion in fam.rules():
                emit(premises, conclusion, fam.tag)
        else:
            raise LoctameError(f"unknown axiom shape {ax!r}")
    return out
