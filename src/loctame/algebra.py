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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Optional, Union

from .syntax import Interval, LoctameError

BOT_CONST = "__bot"
TOP_CONST = "__top"


# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
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
    op: str
    args: tuple["FlatTerm", ...]

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Meet:
    args: tuple["FlatTerm", ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("a meet needs at least two operands")

    def __str__(self) -> str:
        return "(" + " & ".join(str(a) for a in self.args) + ")"


FlatTerm = Union[Const, Lit, Apply, Meet]


@dataclass(frozen=True)
class Leq:
    lhs: FlatTerm
    rhs: FlatTerm

    def __str__(self) -> str:
        return f"{self.lhs} <= {self.rhs}"


def subterms(t: FlatTerm) -> Iterator[FlatTerm]:
    yield t
    if isinstance(t, (Apply, Meet)):
        for a in t.args:
            yield from subterms(a)


def apply_subterms(t: FlatTerm) -> Iterator[Apply]:
    for s in subterms(t):
        if isinstance(s, Apply):
            yield s


def constants_of(t: FlatTerm) -> Iterator[str]:
    for s in subterms(t):
        if isinstance(s, Const):
            yield s.name


# ---------------------------------------------------------------------------
# axiom shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarSlot:
    index: int

    def __str__(self) -> str:
        return f"x{self.index}"


@dataclass(frozen=True)
class FixedSlot:
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

    def match(self, term: FlatTerm) -> Optional[dict[int, FlatTerm]]:
        """Bind the variable slots against a ground term, or None."""
        if not isinstance(term, Apply) or term.op != self.op:
            return None
        if len(term.args) != len(self.slots):
            return None
        binding: dict[int, FlatTerm] = {}
        for slot, arg in zip(self.slots, term.args):
            if isinstance(slot, FixedSlot):
                if slot.term != arg:
                    return None
            else:
                binding[slot.index] = arg
        return binding

    def build(self, binding: dict[int, FlatTerm]) -> Apply:
        args = tuple(
            slot.term if isinstance(slot, FixedSlot) else binding[slot.index]
            for slot in self.slots)
        return Apply(self.op, args)


def plain_template(op: str, arity: int, start: int = 0) -> OpTemplate:
    return OpTemplate(op, tuple(VarSlot(start + i) for i in range(arity)))


@dataclass(frozen=True)
class Mon:
    op: str
    arity: int
    guard = None                    # never guarded, unlike K1-K3

    def __str__(self) -> str:
        return f"Mon({self.op}/{self.arity})"


@dataclass(frozen=True)
class K1:
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
    axioms: tuple[AlgAxiom, ...]
    goal: Goal
    # operator name -> argument sorts (the result sort is always concept)
    ops: dict[str, tuple[str, ...]]
    # constant name -> sort
    consts: dict[str, str]
    # operator name -> the role it interprets (for rendering)
    op_role: dict[str, str]


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def goal_seeds(goal: Goal) -> list[Apply]:
    """All operator applications inside the goal atoms, in first-seen order."""
    seen: dict[Apply, None] = {}
    for atom in goal.all_atoms():
        for side in (atom.lhs, atom.rhs):
            for t in apply_subterms(side):
                seen.setdefault(t, None)
    return list(seen)


def psi_closure(seeds: Iterable[Apply], axioms: Iterable[AlgAxiom]) -> list[Apply]:
    """Close the seed terms under the conclusion operators of K1 and K2.

    K1 adds h(x) whenever g(x) is present; K2 adds h(x1..xn) whenever all
    g_i(x_i) are present.  Mon and K3 conclusions introduce no new
    operator terms.  Each round matches the axioms against a snapshot of
    the closure.  Returns the closure in deterministic insertion order.
    """
    psi: dict[Apply, None] = {}
    for s in seeds:
        psi.setdefault(s, None)

    k1s = [ax for ax in axioms if isinstance(ax, K1)]
    k2s = [ax for ax in axioms if isinstance(ax, K2)]

    changed = True
    while changed:
        changed = False
        by_op = terms_by_op(psi)
        new = itertools.chain(
            (ax.h.build(binding) for ax in k1s
             for t in by_op.get(ax.g.op, [])
             if (binding := ax.g.match(t)) is not None),
            (ax.h.build(xbind) for ax in k2s
             for _, xbind in _tail_product(ax, by_op)))
        for t in new:
            if t not in psi:
                psi[t] = None
                changed = True
    return list(psi)


# ---------------------------------------------------------------------------
# instantiation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A ground Horn clause produced from one axiom and closure terms."""

    premises: tuple[Leq, ...]
    conclusion: Leq
    tag: str
    axiom: int = 0                  # the index of its axiom

    def __str__(self) -> str:
        if not self.premises:
            return f"-> {self.conclusion}"
        return " & ".join(str(p) for p in self.premises) + f" -> {self.conclusion}"


def instance_tag(ax: AlgAxiom) -> str:
    """The tag of an axiom's instances: Mon(f) for monotonicity of f."""
    return f"Mon({ax.op})" if isinstance(ax, Mon) else type(ax).__name__


def _guard_atoms(guard: Optional[FlatTerm], args: Iterable[FlatTerm]) -> tuple[Leq, ...]:
    if guard is None:
        return ()
    return tuple(Leq(a, guard) for a in args)


def _binding_args(tpl: OpTemplate, binding: dict[int, FlatTerm]) -> list[FlatTerm]:
    return [binding[i] for i in tpl.var_indices()]


def terms_by_op(psi: Iterable[Apply]) -> dict[str, list[Apply]]:
    """The closure terms of each operator, in closure order."""
    by_op: dict[str, list[Apply]] = {}
    for t in psi:
        by_op.setdefault(t.op, []).append(t)
    return by_op


def _tail_product(ax: K2, by_op: dict[str, list[Apply]]
                  ) -> Iterator[tuple[tuple[Apply, ...], dict[int, FlatTerm]]]:
    """One g_i-term per tail of a K2 axiom, the product in closure order:
    the tail terms and the binding of the x-variables they give."""
    per_tail = [[(t, b) for t in by_op.get(g.op, [])
                 if (b := g.match(t)) is not None] for g in ax.gs]
    for combo in itertools.product(*per_tail):
        xbind: dict[int, FlatTerm] = {}
        for _, b in combo:
            xbind.update(b)
        yield tuple(t for t, _ in combo), xbind


# a Mon/K2/K3 instance joins a head, an f-term with its z arguments, with
# a choice: its tail terms, its guarded arguments and its right-hand side
Head = tuple[Apply, tuple[FlatTerm, ...]]
Choice = tuple[tuple[Apply, ...], tuple[FlatTerm, ...], FlatTerm]
Composition = tuple[list[Head], list[Choice]]


def composition(ax: Union[Mon, K2, K3], by_op: dict[str, list[Apply]]
                ) -> Composition:
    """The closure-local instances of a Mon/K2/K3 axiom as heads x choices.

    Mon(f) has one head (t, t.args) and one choice (t.args, (), t) per
    f-term t in closure order; K2 chooses one g_i-term per tail (the
    product in closure order) and guards h's arguments; K3 chooses a y
    with every g_i(y) in the closure (in sorted(str) order) and guards y.
    instantiate emits the instances head-major.
    """
    if isinstance(ax, Mon):
        terms = by_op.get(ax.op, [])
        return [(t, t.args) for t in terms], [(t.args, (), t) for t in terms]
    heads = [(t, tuple(_binding_args(ax.f, b))) for t in by_op.get(ax.f.op, [])
             if (b := ax.f.match(t)) is not None]
    if not heads:
        return heads, []
    if isinstance(ax, K2):
        return heads, [(tails, tuple(_binding_args(ax.h, xbind)),
                        ax.h.build(xbind))
                       for tails, xbind in _tail_product(ax, by_op)]
    # candidate y: every term c such that each g_i(c) is in the closure
    cands: Optional[set[FlatTerm]] = None
    for g in ax.gs:
        here = {next(iter(b.values())) for t in by_op.get(g.op, [])
                if (b := g.match(t)) is not None}
        cands = here if cands is None else cands & here
    return heads, [(tuple(g.build({g.var_indices()[0]: y}) for g in ax.gs), (y,), y)
                   for y in sorted(cands, key=str)]


def composed(ax: Union[Mon, K2, K3], head: Head, choice: Choice
             ) -> Optional[tuple[list[Leq], Leq]]:
    """The premises and the conclusion of one Mon/K2/K3 instance:
    z_i <= tail_i for each tail, then x <= guard for each guarded x.
    None where Mon would pair a term with itself: reflexivity gives that
    conclusion."""
    (ft, zs), (tails, guarded, rhs) = head, choice
    if ft is rhs and isinstance(ax, Mon):
        return None
    premises = [Leq(z, t) for z, t in zip(zs, tails)]
    return premises + list(_guard_atoms(ax.guard, guarded)), Leq(ft, rhs)


def instantiate(axioms: Iterable[AlgAxiom], psi: Iterable[Apply],
                skip: Container[int] = ()) -> list[Instance]:
    """All closure-local instances of the axioms, duplicates removed, except
    those of the axioms whose indices are in skip.

    Mon yields an instance for every ordered pair of distinct closure terms
    with its operator; for an operator with k closure terms that is
    k*(k-1) instances.
    """
    psi_list = list(psi)
    by_op = terms_by_op(psi_list)

    out: list[Instance] = []
    seen: set[tuple[frozenset[Leq], Leq]] = set()

    def emit(premises: Iterable[Leq], conclusion: Leq, tag: str) -> None:
        # drop duplicate premises, then duplicate clauses
        prem: dict[Leq, None] = {}
        for p in premises:
            prem.setdefault(p, None)
        key = (frozenset(prem), conclusion)
        if key in seen:
            return
        seen.add(key)
        out.append(Instance(tuple(prem), conclusion, tag, i))

    for i, ax in enumerate(axioms):
        if i in skip:
            continue
        if isinstance(ax, K1):
            for t in psi_list:
                binding = ax.g.match(t)
                if binding is None:
                    continue
                guards = _guard_atoms(ax.guard, _binding_args(ax.h, binding))
                emit(guards, Leq(t, ax.h.build(binding)), "K1")
        elif isinstance(ax, (Mon, K2, K3)):
            tag = instance_tag(ax)
            heads, choices = composition(ax, by_op)
            for head in heads:
                for choice in choices:
                    inst = composed(ax, head, choice)
                    if inst is not None:
                        emit(*inst, tag)
        else:
            raise LoctameError(f"unknown axiom shape {ax!r}")
    return out
