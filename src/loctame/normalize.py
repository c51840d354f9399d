"""Structural normalization for the plain binary fragment.

Rewrites a CBox so every concept inclusion has one of the shapes

    A sub B        A1 and A2 sub B        A sub exists r . B
    exists r . A sub B

with A, B atomic (a name, top, or bot), and every role axiom is a plain
inclusion or a two-step composition.  Fresh names __n<k> (and fresh roles
_nc<k> for long compositions) make the rewriting linear per axiom.

Guards, tuple compositions, identity inclusions, role restrictions and
numeric positions have no shape in this normal form; normalize refuses
them rather than approximating.
"""

from __future__ import annotations

import itertools
from typing import Union

from .syntax import (And, Bot, CBox, Concept, Exists, GCI, Interval,
                     LoctameError, Name, Top, CONCEPT)

MAX_GROWTH = 4  # output axioms per input connective, asserted in tests


class NotNormalizable(LoctameError):
    pass


Atomic = Union[Name, Top, Bot]


def is_atomic(c: Concept) -> bool:
    return isinstance(c, (Name, Top, Bot))


class _Normalizer:
    def __init__(self):
        self.counter = 0
        self.out: list[GCI] = []

    def fresh(self) -> Name:
        n = Name(f"__n{self.counter}")
        self.counter += 1
        return n

    def reject_unsupported(self, c: Concept) -> None:
        if isinstance(c, Interval):
            raise NotNormalizable("numeric intervals have no normal form")
        if isinstance(c, Exists):
            if len(c.fillers) != 1:
                raise NotNormalizable(
                    f"role {c.role!r} has several fillers; only binary roles "
                    "can be normalized")
            self.reject_unsupported(c.fillers[0])
        elif isinstance(c, And):
            for a in c.args:
                self.reject_unsupported(a)

    def gci(self, lhs: Concept, rhs: Concept) -> None:
        work = [(lhs, rhs)]
        while work:
            l, r = work.pop()
            # break the right side down first
            if isinstance(r, And):
                work.extend((l, conjunct) for conjunct in r.args)
                continue
            if isinstance(r, Exists) and not is_atomic(r.fillers[0]):
                a = self.fresh()
                work.append((l, Exists(r.role, (a,))))
                work.append((a, r.fillers[0]))
                continue
            # now the right side is atomic or exists-atomic
            if is_atomic(l):
                self.out.append(GCI(l, r))
                continue
            if isinstance(r, Exists):          # complex lhs, exists rhs
                a = self.fresh()
                work.append((l, a))
                self.out.append(GCI(a, r))
                continue
            if isinstance(l, Exists):
                if is_atomic(l.fillers[0]):
                    self.out.append(GCI(l, r))
                else:
                    a = self.fresh()
                    work.append((l.fillers[0], a))
                    self.out.append(GCI(Exists(l.role, (a,)), r))
                continue
            if isinstance(l, And):
                args = list(l.args)
                if len(args) > 2:
                    a = self.fresh()
                    work.append((And(tuple(args[:2])), a))
                    work.append((And((a,) + tuple(args[2:])), r))
                    continue
                complex_at = next((i for i, c in enumerate(args) if not is_atomic(c)), None)
                if complex_at is None:
                    self.out.append(GCI(l, r))
                else:
                    a = self.fresh()
                    work.append((args[complex_at], a))
                    args[complex_at] = a
                    work.append((And(tuple(args)), r))
                continue
            raise NotNormalizable(f"cannot normalize {l} sub {r}")


def _check_fragment(cbox: CBox) -> None:
    if cbox.restrictions:
        raise NotNormalizable("role restrictions have no normal form")
    for name, sig in cbox.roles.items():
        if len(sig) != 2 or any(s != CONCEPT for s in sig):
            raise NotNormalizable(f"role {name!r} is not a binary concept-role")
    for ri in cbox.role_incls:
        if ri.guard is not None:
            raise NotNormalizable("guarded role axioms have no normal form")
        if ri.parallel:
            raise NotNormalizable("tuple compositions have no normal form")
        if ri.rhs is None:
            raise NotNormalizable("identity inclusions have no normal form")


def normalize(cbox: CBox) -> CBox:
    """The normalized CBox; queries are passed through untouched."""
    return normalize_with_sources(cbox)[0]


def normalize_with_sources(cbox: CBox) -> tuple[CBox, tuple[int, ...]]:
    """The normalized CBox, and for each of its inclusions the index of
    the input inclusion it was normalized from."""
    _check_fragment(cbox)
    nm = _Normalizer()
    sources: list[int] = []
    for i, g in enumerate(cbox.gcis):
        nm.reject_unsupported(g.lhs)
        nm.reject_unsupported(g.rhs)
        nm.gci(g.lhs, g.rhs)
        sources += [i] * (len(nm.out) - len(sources))

    counter = itertools.count()
    role_incls = [step for ri in cbox.role_incls
                  for step in ri.split_chain(lambda: f"_nc{next(counter)}")]

    return CBox(roles=dict(cbox.roles), restrictions=(),
                gcis=tuple(nm.out), role_incls=tuple(role_incls),
                queries=cbox.queries), tuple(sources)
