"""Independent validators used by the tests and by `cross-check`.

Nothing here shares code with the reduction pipeline beyond the surface
syntax: `completion_classify` is the classical completion-rule classifier
for normal-form binary CBoxes, `bounded_model_search` grinds through small
relational interpretations, and `num_entails_dbm` re-decides numeric
entailment by closure over an explicit reachability matrix.  Slow on
purpose, trusted because they are simple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .concdom import NumAtom, NumTerm
from .syntax import (
    And,
    Bot,
    CBox,
    Concept,
    Exists,
    Interval,
    LoctameError,
    Name,
    Query,
    RoleEnv,
    Top,
    resolve_roles,
)

TOP_KEY = "top"
BOT_KEY = "bot"


class UnsupportedConstruct(LoctameError):
    """The oracle does not cover this part of the language."""


# ---------------------------------------------------------------------------
# completion-rule classifier
# ---------------------------------------------------------------------------

def _atomic(c: Concept) -> str:
    if isinstance(c, Name):
        return c.name
    if isinstance(c, Top):
        return TOP_KEY
    if isinstance(c, Bot):
        return BOT_KEY
    raise UnsupportedConstruct(f"not in normal form: {c}")


def completion_classify(cbox: CBox) -> dict[str, frozenset[str]]:
    """Saturate the subsumer sets of a normal-form binary CBox.

    Accepted GCI shapes: B1 sub B2, B1 and B2 sub B, B sub exists r . B',
    exists r . B' sub B with every B atomic; role axioms must be plain
    inclusions or binary compositions.  Returns, for every atomic concept
    (concept names plus the pseudo-names "top" and "bot"), the set of its
    subsumers; A sub B holds in every model iff B is in the set of A.
    """
    if cbox.restrictions:
        raise UnsupportedConstruct("role restrictions")

    # --- index the concept axioms by shape ---------------------------------
    by_lhs: dict[str, list[str]] = {}
    by_conj: dict[str, list[tuple[str, str]]] = {}
    by_ex_rhs: dict[str, list[tuple[str, str]]] = {}
    by_ex_lhs: dict[tuple[str, str], list[str]] = {}
    keys: set[str] = {TOP_KEY, BOT_KEY}
    roles: set[str] = set()

    def note(k: str) -> str:
        keys.add(k)
        return k

    def note_names(c: Concept) -> None:
        if isinstance(c, (Name, Top, Bot)):
            note(_atomic(c))
        elif isinstance(c, And):
            for a in c.args:
                note_names(a)
        elif isinstance(c, Exists):
            roles.add(c.role)
            for f in c.fillers:
                note_names(f)

    for gci in cbox.gcis:
        lhs, rhs = gci.lhs, gci.rhs
        if isinstance(rhs, Exists):
            if len(rhs.fillers) != 1:
                raise UnsupportedConstruct(f"n-ary filler tuple: {rhs}")
            a = note(_atomic(lhs))
            roles.add(rhs.role)
            by_ex_rhs.setdefault(a, []).append(
                (rhs.role, note(_atomic(rhs.fillers[0]))))
            continue
        b = note(_atomic(rhs))
        if isinstance(lhs, And):
            if len(lhs.args) != 2:
                raise UnsupportedConstruct(f"not in normal form: {lhs}")
            a1, a2 = (note(_atomic(x)) for x in lhs.args)
            by_conj.setdefault(a1, []).append((a2, b))
            by_conj.setdefault(a2, []).append((a1, b))
        elif isinstance(lhs, Exists):
            if len(lhs.fillers) != 1:
                raise UnsupportedConstruct(f"n-ary filler tuple: {lhs}")
            roles.add(lhs.role)
            f = note(_atomic(lhs.fillers[0]))
            by_ex_lhs.setdefault((lhs.role, f), []).append(b)
        else:
            by_lhs.setdefault(note(_atomic(lhs)), []).append(b)

    rsub: dict[str, list[str]] = {}
    rcomp1: dict[str, list[tuple[str, str]]] = {}
    rcomp2: dict[str, list[tuple[str, str]]] = {}
    for ri in cbox.role_incls:
        if ri.guard is not None or ri.parallel or ri.rhs is None:
            raise UnsupportedConstruct(f"role axiom outside the fragment: {ri}")
        roles.update(ri.chain)
        roles.add(ri.rhs)
        if len(ri.chain) == 1:
            rsub.setdefault(ri.chain[0], []).append(ri.rhs)
        elif len(ri.chain) == 2:
            r1, r2 = ri.chain
            rcomp1.setdefault(r1, []).append((r2, ri.rhs))
            rcomp2.setdefault(r2, []).append((r1, ri.rhs))
        else:
            raise UnsupportedConstruct(f"chain longer than two: {ri}")
    for q in cbox.queries:
        note_names(q.lhs)
        note_names(q.rhs)

    # --- saturation ---------------------------------------------------------
    subs: dict[str, set[str]] = {k: set() for k in keys}
    rout: dict[str, dict[str, set[str]]] = {r: {} for r in roles}
    rin: dict[str, dict[str, set[str]]] = {}
    todo: list[tuple] = []

    def add_s(a: str, x: str) -> None:
        if x not in subs[a]:
            subs[a].add(x)
            todo.append(("s", a, x))

    def add_r(r: str, a: str, b: str) -> None:
        tgts = rout[r].setdefault(a, set())
        if b not in tgts:
            tgts.add(b)
            rin.setdefault(b, {}).setdefault(r, set()).add(a)
            todo.append(("r", r, a, b))

    for k in keys:
        add_s(k, k)
        add_s(k, TOP_KEY)

    while todo:
        item = todo.pop()
        if item[0] == "s":
            _, a, x = item
            for b in by_lhs.get(x, ()):
                add_s(a, b)
            for other, b in by_conj.get(x, ()):
                if other in subs[a]:
                    add_s(a, b)
            for r, f in by_ex_rhs.get(x, ()):
                add_r(r, a, f)
            # x joined the subsumers of a: edges into a may now fire
            for r, sources in list(rin.get(a, {}).items()):
                hits = by_ex_lhs.get((r, x), ())
                if hits or x == BOT_KEY:
                    for src in list(sources):
                        for b in hits:
                            add_s(src, b)
                        if x == BOT_KEY:
                            add_s(src, BOT_KEY)
            if x == BOT_KEY:
                # an unsatisfiable concept is subsumed by everything
                for k in keys:
                    add_s(a, k)
        else:
            _, r, a, b = item
            for x in list(subs[b]):
                for c in by_ex_lhs.get((r, x), ()):
                    add_s(a, c)
            if BOT_KEY in subs[b]:
                add_s(a, BOT_KEY)
            for s in rsub.get(r, ()):
                add_r(s, a, b)
            for r2, s in rcomp1.get(r, ()):
                for c in list(rout.get(r2, {}).get(b, ())):
                    add_r(s, a, c)
            for r1, s in rcomp2.get(r, ()):
                for src, tgts in list(rout.get(r1, {}).items()):
                    if a in tgts:
                        add_r(s, src, b)

    return {k: frozenset(v) for k, v in subs.items()}


# ---------------------------------------------------------------------------
# bounded relational countermodel search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterModel:
    size: int
    concepts: dict[str, frozenset[int]]
    roles: dict[str, frozenset[tuple[int, ...]]]

    def __str__(self) -> str:
        lines = [f"domain 0..{self.size - 1}"]
        for n in sorted(self.concepts):
            lines.append(f"  {n} = {sorted(self.concepts[n])}")
        for r in sorted(self.roles):
            lines.append(f"  {r} = {sorted(self.roles[r])}")
        return "\n".join(lines)


CnfLit = Union[int, bool]


def _neg(lit: CnfLit) -> CnfLit:
    if isinstance(lit, bool):
        return not lit
    return -lit


class _Encoder:
    """CNF over a fixed domain: concept-name and role-tuple variables plus
    definitional variables for composite subconcepts."""

    def __init__(self, env: RoleEnv, size: int):
        self.env = env
        self.size = size
        self.counter = itertools.count(1)
        self.vars: dict[tuple, int] = {}
        self.clauses: list[list[int]] = []
        self.trivially_unsat = False

    def var(self, key: tuple) -> int:
        v = self.vars.get(key)
        if v is None:
            v = next(self.counter)
            self.vars[key] = v
        return v

    def add(self, lits: Iterable[CnfLit]) -> None:
        out = []
        for l in lits:
            if l is True:
                return
            if l is False:
                continue
            out.append(l)
        if not out:
            self.trivially_unsat = True
        else:
            self.clauses.append(out)

    def role_tuples(self, role: str):
        nfill = len(self.env.sigs[role]) - 1
        return itertools.product(range(self.size), repeat=1 + nfill)

    def defined_and(self, key: tuple, parts: list[CnfLit]) -> CnfLit:
        """A literal equivalent to the conjunction of the parts."""
        if any(p is False for p in parts):
            return False
        parts = [p for p in parts if p is not True]
        if not parts:
            return True
        if len(parts) == 1:
            return parts[0]
        known = self.vars.get(key)
        if known is not None:
            return known
        t = self.var(key)
        for p in parts:
            self.add([-t, p])
        self.add([t] + [_neg(p) for p in parts])
        return t

    def concept(self, c: Concept, d: int) -> CnfLit:
        """Literal equivalent to `d is in c`, defining auxiliaries on demand."""
        if isinstance(c, Top):
            return True
        if isinstance(c, Bot):
            return False
        if isinstance(c, Name):
            return self.var(("c", c.name, d))
        if isinstance(c, Interval):
            raise UnsupportedConstruct("numeric intervals in model search")
        if isinstance(c, And):
            return self.defined_and(
                ("t", c, d), [self.concept(a, d) for a in c.args])
        if isinstance(c, Exists):
            key = ("t", c, d)
            known = self.vars.get(key)
            if known is not None:
                return known
            t = self.var(key)
            disjuncts: list[int] = []
            for tup in self.role_tuples(c.role):
                if tup[0] != d:
                    continue
                parts: list[CnfLit] = [self.var(("r", c.role, tup))]
                parts += [self.concept(f, e)
                          for f, e in zip(c.fillers, tup[1:])]
                u = self.defined_and(("x", c, d, tup), parts)
                if u is False:
                    continue
                # u is never True here: the role variable is always open
                disjuncts.append(u)
                self.add([-u, t])
            self.add([-t] + disjuncts)
            return t
        raise UnsupportedConstruct(f"cannot encode {c!r}")


def _encode_cbox(enc: _Encoder, cbox: CBox, query: Query) -> None:
    env, size = enc.env, enc.size

    # restricted roles are definitional: project the base role through the
    # restriction concept at the removed filler slot
    for name, (base, pos, conc) in env.expansions.items():
        for tup in enc.role_tuples(name):
            rv = enc.var(("r", name, tup))
            disjuncts: list[int] = []
            for y in range(size):
                base_tup = tup[:pos] + (y,) + tup[pos:]
                u = enc.defined_and(
                    ("x", name, tup, y),
                    [enc.var(("r", base, base_tup)), enc.concept(conc, y)])
                if u is False:
                    continue
                disjuncts.append(u)
                enc.add([-u, rv])
            enc.add([-rv] + disjuncts)

    for gci in cbox.gcis:
        for d in range(size):
            enc.add([_neg(enc.concept(gci.lhs, d)), enc.concept(gci.rhs, d)])

    for ri in cbox.role_incls:
        _encode_role_incl(enc, ri)

    enc.add([enc.concept(query.lhs, 0)])
    enc.add([_neg(enc.concept(query.rhs, 0))])


def _guard_lits(enc: _Encoder, guard: Optional[Concept],
                elements: Iterable[int]) -> list[CnfLit]:
    if guard is None:
        return []
    return [_neg(enc.concept(guard, e)) for e in elements]


def _encode_role_incl(enc: _Encoder, ri) -> None:
    size = enc.size
    if len(ri.chain) == 1:
        r = ri.chain[0]
        for tup in enc.role_tuples(r):
            prem: list[CnfLit] = [-enc.var(("r", r, tup))]
            prem += _guard_lits(enc, ri.guard, tup[1:])
            enc.add(prem + [enc.var(("r", ri.rhs, tup))])
        return

    if ri.parallel:
        lead, tails = ri.chain[0], ri.chain[1:]
        n = len(tails)
        for tup in enc.role_tuples(lead):
            d, mids = tup[0], tup[1:]
            if ri.rhs is None:
                # every common tail successor collapses into the subject
                for f in range(size):
                    if f == d:
                        continue
                    prem = [-enc.var(("r", lead, tup))]
                    prem += [-enc.var(("r", t, (m, f)))
                             for t, m in zip(tails, mids)]
                    prem += _guard_lits(enc, ri.guard, [f])
                    enc.add(prem)
                continue
            for fs in itertools.product(range(size), repeat=n):
                prem = [-enc.var(("r", lead, tup))]
                prem += [-enc.var(("r", t, (m, f)))
                         for t, m, f in zip(tails, mids, fs)]
                prem += _guard_lits(enc, ri.guard, fs)
                enc.add(prem + [enc.var(("r", ri.rhs, (d,) + fs))])
        return

    # sequential: all but the last role are binary
    *front, last = ri.chain
    for path in itertools.product(range(size), repeat=len(front) + 1):
        prem = [-enc.var(("r", r, (path[i], path[i + 1])))
                for i, r in enumerate(front)]
        mid = path[-1]
        for tail in enc.role_tuples(last):
            if tail[0] != mid:
                continue
            full = prem + [-enc.var(("r", last, tail))]
            if ri.rhs is None:
                f = tail[-1]
                if f == path[0]:
                    continue
                enc.add(full + _guard_lits(enc, ri.guard, [f]))
            else:
                fills = tail[1:]
                full += _guard_lits(enc, ri.guard, fills)
                enc.add(full + [enc.var(("r", ri.rhs, (path[0],) + fills))])


# the most branching decisions one domain size's search may take; a
# search that needs more ends as cut (SearchCut) instead of running on
DPLL_BUDGET = 100_000
# the most tuples of one role a domain size's encoding may enumerate; a
# wider role cuts the search at that size (SearchCut)
MAX_ROLE_TUPLES = 100_000


class SearchCut(LoctameError):
    """A countermodel search ran out of its decision budget: it proves
    nothing either way."""

    def __init__(self, size: int):
        super().__init__(f"countermodel search cut at size {size}")
        self.size = size


class _OutOfBudget(Exception):
    pass


class _DPLL:
    """Plain unit-propagating backtracker; domain sizes keep this tiny.
    solve() raises _OutOfBudget after DPLL_BUDGET decisions."""

    def __init__(self, nvars: int, clauses: list[list[int]]):
        self.nvars = nvars
        self.clauses = clauses
        self.occ: dict[int, list[int]] = {}
        counts = [0] * (nvars + 1)
        for i, cl in enumerate(clauses):
            for lit in cl:
                self.occ.setdefault(-lit, []).append(i)
                counts[abs(lit)] += 1
        # branch on busy variables first; ties by creation order
        self.order = sorted(range(1, nvars + 1), key=lambda v: -counts[v])
        self.assign: dict[int, bool] = {}

    def _value(self, lit: int) -> Optional[bool]:
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def _propagate(self, queue: list[int], trail: list[int]) -> bool:
        while queue:
            lit = queue.pop()
            for ci in self.occ.get(lit, ()):
                unassigned = None
                satisfied = False
                open_two = False
                for l in self.clauses[ci]:
                    val = self._value(l)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        if unassigned is not None:
                            open_two = True
                            break
                        unassigned = l
                if satisfied or open_two:
                    continue
                if unassigned is None:
                    return False
                self.assign[abs(unassigned)] = unassigned > 0
                trail.append(abs(unassigned))
                queue.append(unassigned)
        return True

    def _undo(self, trail: list[int]) -> None:
        for x in trail:
            del self.assign[x]

    def solve(self) -> Optional[dict[int, bool]]:
        trail: list[int] = []
        queue: list[int] = []
        for cl in self.clauses:
            if len(cl) == 1:
                lit = cl[0]
                val = self._value(lit)
                if val is False:
                    return None
                if val is None:
                    self.assign[abs(lit)] = lit > 0
                    trail.append(abs(lit))
                    queue.append(lit)
        if not self._propagate(queue, trail):
            return None

        frames: list[tuple[int, bool, list[int]]] = []
        decision: Optional[tuple[int, bool]] = None
        decisions = 0
        while True:
            decisions += 1
            if decisions > DPLL_BUDGET:
                raise _OutOfBudget
            if decision is None:
                v = next((x for x in self.order if x not in self.assign), None)
                if v is None:
                    return dict(self.assign)
                decision = (v, False)
            v, val = decision
            decision = None
            dtrail = [v]
            self.assign[v] = val
            if self._propagate([v if val else -v], dtrail):
                frames.append((v, val, dtrail))
                continue
            self._undo(dtrail)
            if val is False:
                decision = (v, True)
                continue
            while frames:
                pv, pval, ptrail = frames.pop()
                self._undo(ptrail)
                if pval is False:
                    decision = (pv, True)
                    break
            if decision is None:
                return None


def _decode(enc: _Encoder, env: RoleEnv,
            assign: dict[int, bool], size: int) -> CounterModel:
    concepts: dict[str, set[int]] = {}
    roles: dict[str, set[tuple[int, ...]]] = {r: set() for r in env.sigs}
    for key, v in enc.vars.items():
        if not assign.get(v, False):
            continue
        if key[0] == "c":
            concepts.setdefault(key[1], set()).add(key[2])
        elif key[0] == "r":
            roles[key[1]].add(key[2])
    return CounterModel(
        size=size,
        concepts={n: frozenset(s) for n, s in concepts.items()},
        roles={r: frozenset(s) for r, s in roles.items()},
    )


def concept_extension(c: Concept, model: CounterModel,
                      env: RoleEnv) -> frozenset[int]:
    domain = frozenset(range(model.size))
    if isinstance(c, Top):
        return domain
    if isinstance(c, Bot):
        return frozenset()
    if isinstance(c, Name):
        return model.concepts.get(c.name, frozenset())
    if isinstance(c, And):
        out = domain
        for a in c.args:
            out &= concept_extension(a, model, env)
        return out
    if isinstance(c, Exists):
        exts = [concept_extension(f, model, env) for f in c.fillers]
        hits = set()
        for tup in model.roles.get(c.role, ()):
            if all(e in x for e, x in zip(tup[1:], exts)):
                hits.add(tup[0])
        return frozenset(hits)
    raise UnsupportedConstruct(f"cannot evaluate {c!r}")


def check_interpretation(cbox: CBox, env: RoleEnv, model: CounterModel,
                         query: Optional[Query] = None) -> list[str]:
    """All axiom violations of the interpretation (and, when a query is
    given, a violation entry if the query is NOT refuted)."""
    bad: list[str] = []
    for name, (base, pos, conc) in env.expansions.items():
        want = set()
        cext = concept_extension(conc, model, env)
        for tup in model.roles.get(base, ()):
            if tup[pos] in cext:
                want.add(tup[:pos] + tup[pos + 1:])
        if want != set(model.roles.get(name, ())):
            bad.append(f"restriction {name} mismatches its base")
    for gci in cbox.gcis:
        l = concept_extension(gci.lhs, model, env)
        r = concept_extension(gci.rhs, model, env)
        if not l <= r:
            bad.append(f"violated: {gci}")
    for ri in cbox.role_incls:
        bad += _check_role_incl(ri, model, env)
    if query is not None:
        l = concept_extension(query.lhs, model, env)
        r = concept_extension(query.rhs, model, env)
        if l <= r:
            bad.append(f"not refuted: {query}")
    return bad


def _check_role_incl(ri, model: CounterModel, env: RoleEnv) -> list[str]:
    guard_ext = (None if ri.guard is None
                 else concept_extension(ri.guard, model, env))

    def guarded(elements) -> bool:
        return guard_ext is None or all(e in guard_ext for e in elements)

    bad: list[str] = []
    derived: set[tuple[int, ...]] = set()
    if ri.parallel:
        lead, tails = ri.chain[0], ri.chain[1:]
        tail_succ = [
            {} for _ in tails]  # per tail: element -> set of successors
        for t, succ in zip(tails, tail_succ):
            for (d, e) in model.roles.get(t, ()):
                succ.setdefault(d, set()).add(e)
        for tup in model.roles.get(lead, ()):
            choices = [succ.get(m, set())
                       for succ, m in zip(tail_succ, tup[1:])]
            if ri.rhs is None:
                common = set(range(model.size))
                for ch in choices:
                    common &= ch
                for f in common:
                    if f != tup[0] and guarded([f]):
                        bad.append(f"violated: {ri}")
                continue
            for fs in itertools.product(*choices):
                if guarded(fs):
                    derived.add((tup[0],) + fs)
    else:
        *front, last = ri.chain
        paths = {(d, d) for d in range(model.size)}
        for r in front:
            edges = model.roles.get(r, ())
            paths = {(s, e2) for (s, e1) in paths
                     for (d, e2) in edges if d == e1}
        for (s, mid) in paths:
            for tail in model.roles.get(last, ()):
                if tail[0] != mid:
                    continue
                if ri.rhs is None:
                    if guarded([tail[-1]]) and tail[-1] != s:
                        bad.append(f"violated: {ri}")
                elif guarded(tail[1:]):
                    derived.add((s,) + tail[1:])
    if ri.rhs is not None:
        have = set(model.roles.get(ri.rhs, ()))
        if not derived <= have:
            bad.append(f"violated: {ri}")
    return bad


def bounded_model_search(cbox: CBox, query: Query,
                         max_size: int = 3) -> Optional[CounterModel]:
    """Search for an interpretation satisfying every axiom of the CBox but
    violating the query, over domains of 1..max_size elements.

    A returned model refutes the subsumption outright; exhausting the bound
    proves nothing, and neither does a search that exhausts its decision
    budget (SearchCut).  The violating element is pinned to 0 (sound: domains
    can be permuted).  Numeric intervals are not supported here.
    """
    if not 1 <= max_size <= 4:
        raise ValueError("max_size must be between 1 and 4")
    env = resolve_roles(cbox)
    for size in range(1, max_size + 1):
        # every role is encoded over its size^arity tuples: a wide role
        # would exhaust memory long before the decision budget
        if any(size ** len(sig) > MAX_ROLE_TUPLES for sig in env.sigs.values()):
            raise SearchCut(size)
        enc = _Encoder(env, size)
        _encode_cbox(enc, cbox, query)
        if enc.trivially_unsat:
            continue
        try:
            assign = _DPLL(next(enc.counter) - 1, enc.clauses).solve()
        except _OutOfBudget:
            raise SearchCut(size) from None
        if assign is None:
            continue
        model = _decode(enc, env, assign, size)
        bad = check_interpretation(cbox, env, model, query)
        if bad:
            raise LoctameError(
                "countermodel failed verification: " + "; ".join(bad))
        return model
    return None


# ---------------------------------------------------------------------------
# numeric entailment by explicit closure
# ---------------------------------------------------------------------------

def num_entails_dbm(facts: Iterable[NumAtom], query: NumAtom) -> bool:
    """Same contract as concdom.num_entails, decided by materializing the
    full reachability matrix over endpoints (Warshall closure) instead of
    searching."""
    if query.rel != "le":
        raise UnsupportedConstruct(f"relation {query.rel!r}")
    nodes: list[NumTerm] = []
    index: dict[tuple[str, NumTerm], int] = {}

    def node(x: NumTerm) -> int:
        key = (type(x).__name__, x)
        i = index.get(key)
        if i is None:
            i = len(nodes)
            nodes.append(x)
            index[key] = i
        return i

    edges: set[tuple[int, int]] = set()
    qi, qj = node(query.lhs), node(query.rhs)
    for f in facts:
        if f.rel != "le":
            raise UnsupportedConstruct(f"relation {f.rel!r}")
        edges.add((node(f.lhs), node(f.rhs)))
    lits = [i for i, x in enumerate(nodes) if isinstance(x, Fraction)]
    for i in lits:
        for j in lits:
            if nodes[i] <= nodes[j]:
                edges.add((i, j))
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
    for (i, j) in edges:
        reach[i][j] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    if reach[qi][qj]:
        return True
    for i in lits:
        for j in lits:
            if nodes[i] > nodes[j] and reach[i][j]:
                return True
    return False
