"""Forward chaining for ground Horn clauses over inequality atoms.

Atoms are pairs (a, b) of constant names read as a <= b.  Clauses carry a
premise counter; when an atom first becomes true, the counter of every
clause it appears in is decremented once, so the total number of
decrements is bounded by the total number of premise occurrences.

Constants are any hashable values (the pipeline's are term ids, a parsed
dump's are names); the solver numbers them, and the atoms, as ints.

With transitive=True the solver additionally closes the derived atom set
under  a<=b, b<=c  =>  a<=c  (used by the chase mode, where transitivity
is not materialized as clauses).  Each transitivity step is binary and is
recorded in the derivation like a clause firing, so proofs stay auditable.
Every constant's popped up-set and down-set are bitsets, and so are the
atoms known to be derived (popped, or met by an earlier join), so the
pop of a<=b visits only the partners w (popped w<=a) and c (popped
b<=c) whose w<=b or a<=c is not known yet, and joins those whose
conclusion is not derived: the steps that derive something.  It visits
them in the order their partner atoms were popped, never string
hashing, so a derivation reads the same in every process.

The chase mode also hands the solver a `Triggers` index instead of the
clause families that grow with the square of the closure or faster: one
`Family` per Mon/K2/K3 axiom (monotonicity of the operators whose
arguments are all concepts and the instances of role compositions,
indexed by tail and argument, and by guard), and meet introduction.
`Family.rule` spells out each rule, for the index and the written-out
reduction alike.
A triggered rule fires when its last premise is
popped, exactly when its materialized clause would have: every clause and
rule carries a rank (its position in the materialized clause list: one
block per axiom, in axiom order, then meet introduction), and the firings
of one pop happen in rank order.  A rule whose premises all hold while
the problem is being built fires then, as a materialized clause would
when it is added.  A clause or rule with a twin of lower rank (the same
premises and conclusion) never fires, as the deduplicated clause list
holds only the first.  Each firing that derives an atom is recorded as a
clause, so traces and models read the same as with the materialized
families; only the atoms the rules actually touch are interned.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .syntax import LoctameError

AtomKey = tuple[str, str]

# reasons: ("fact", label) | ("clause", clause_index) | ("trans", left, right)
Reason = tuple

# a rank is block << _RANK_BITS | position within the block; blocks order
# the clause families the way the materialized clause list does
_RANK_BITS = 40
_NEVER = 1 << 62            # the build rank of an atom not derived in the build

# a triggered rule: (rank, premises, conclusion, tag)
Rule = tuple[int, tuple[AtomKey, ...], AtomKey, str]


@dataclass(slots=True)
class _Clause:
    premises: tuple[int, ...]
    concl: AtomKey                  # interned only when the clause fires
    tag: str
    missing: int
    rank: int = 0


@dataclass(slots=True)
class Stats:
    premise_occurrences: int = 0
    decrements: int = 0
    trans_steps: int = 0            # transitivity steps that derive an atom
    fired_clauses: int = 0          # materialized clauses and triggered rules
    clauses: int = 0                # materialized clauses added
    trigger_probes: int = 0         # triggered rules looked up at a pop
                                    # of an atom not derived from the facts


@dataclass(frozen=True)
class Family:
    """The rules of one axiom over constants, as a product.

    heads[h] = (head, zs) and choices[c] = (tails, guarded, rhs) make the
    rule  z_i <= tail_i (each i), x <= guard (each guarded x)  ->
    head <= rhs  at position h * len(choices) + c of the axiom's block.
    Within a family no two rules share a conclusion.  Mon(f) has one head
    (t, args) and one choice (args, (), t) per f-term t.  A rule whose
    head is its choice's right-hand side, such as Mon's rule for (t, t),
    concludes what reflexivity gives, so Triggers never yields it.
    """

    tag: str
    heads: tuple[tuple[str, tuple[str, ...]], ...]
    choices: tuple[tuple[tuple[str, ...], tuple[str, ...], str], ...]
    guard: Optional[str] = None

    def rule(self, hi: int, ci: int
             ) -> tuple[int, tuple[AtomKey, ...], AtomKey]:
        """The rule joining head hi and choice ci: its position, premises
        (tails, then guard atoms, without repeats) and conclusion."""
        head, zs = self.heads[hi]
        tails, guarded, rhs = self.choices[ci]
        premises = list(zip(zs, tails))
        if self.guard is not None:
            premises += [(x, self.guard) for x in guarded]
        return (hi * len(self.choices) + ci, tuple(dict.fromkeys(premises)),
                (head, rhs))

    def rules(self) -> Iterator[tuple[int, tuple[AtomKey, ...], AtomKey]]:
        """Every rule in position order, leaving out Mon's (t, t) rules as
        algebra.composed does."""
        mon = self.tag.startswith("Mon(")
        return (self.rule(hi, ci) for hi, (head, _) in enumerate(self.heads)
                for ci, (*_, rhs) in enumerate(self.choices)
                if not (mon and head == rhs))


class Triggers:
    """Rule families indexed by premise, fired by the solver on demand.

    families: per axiom, its block and its Family, indexed by the premises
    z_i <= tail_i (by tail, position and z) and by guard.

    meets: meet constant -> operand constants, in order, all in meet_block.
    The rule for the meet m and the constant z != m is  z <= operands(m)
    ->  z <= m  at position index(m) * |universe| + index(z).
    """

    def __init__(self, families: Iterable[tuple[int, Family]],
                 meets: dict[str, tuple[str, ...]], meet_block: int,
                 universe: Sequence[str]):
        # tail constant -> (family, position, indices of the choices with
        # that tail there); (family, position, z) -> indices of the heads
        # with that z there; guard -> (family, guarded constant -> indices
        # of its choices); per family in block order, its heads and its
        # right-hand sides by constant
        self.families: list[tuple[int, Family]] = []
        self.by_tail: dict[str, list[tuple[int, int, list[int]]]] = {}
        self.heads_at: dict[tuple[int, int, str], list[int]] = {}
        self.by_guard: dict[str, list[tuple[int, dict[str, list[int]]]]] = {}
        self.concluding: list[tuple[int, Family, dict[str, int],
                                    dict[str, int]]] = []
        for f, (block, fam) in enumerate(families):
            self.families.append((block << _RANK_BITS, fam))
            slots: dict[tuple[int, str], list[int]] = {}
            guarded: dict[str, list[int]] = {}
            for ci, (tails, xs, _) in enumerate(fam.choices):
                for pos, t in enumerate(tails):
                    slot = slots.get((pos, t))
                    if slot is None:
                        slot = slots[(pos, t)] = []
                        self.by_tail.setdefault(t, []).append((f, pos, slot))
                    slot.append(ci)
                for x in dict.fromkeys(xs):
                    guarded.setdefault(x, []).append(ci)
            for hi, (_, zs) in enumerate(fam.heads):
                for pos, z in enumerate(zs):
                    self.heads_at.setdefault((f, pos, z), []).append(hi)
            if fam.guard is not None:
                self.by_guard.setdefault(fam.guard, []).append((f, guarded))
            self.concluding.append((
                block, fam, {h: hi for hi, (h, _) in enumerate(fam.heads)},
                {rhs: ci for ci, (*_, rhs) in enumerate(fam.choices)}))
        self.concluding.sort(key=itemgetter(0))
        # each meet with its operands, without repeats
        self.meets = [(m, tuple(dict.fromkeys(operands)))
                      for m, operands in meets.items()]
        self.meet_base = meet_block << _RANK_BITS
        self.meets_by_operand: dict[str, list[int]] = {}
        for mi, (_, operands) in enumerate(self.meets):
            for o in operands:
                self.meets_by_operand.setdefault(o, []).append(mi)
        self.universe = {z: zi for zi, z in enumerate(universe)}
        # the right-hand sides of every premise: an atom whose right-hand
        # side is not among them is a premise of no rule
        self.premise_rhs = {*self.by_tail, *self.by_guard,
                            *self.meets_by_operand}

    def rules_with(self, atom: AtomKey) -> Iterator[Rule]:
        """Every rule that has the atom among its premises and concludes
        more than reflexivity, once each."""
        a, b = atom
        for f, pos, cis in self.by_tail.get(b, ()):
            his = self.heads_at.get((f, pos, a))
            if his is None:
                continue
            base, fam = self.families[f]
            for ci in cis:
                tails, _, rhs = fam.choices[ci]
                for hi in his:
                    head, zs = fam.heads[hi]
                    # a reflexive conclusion never derives, and a rule
                    # matching the atom at an earlier position was yielded
                    # from there
                    if head == rhs or any(zs[i] == a and tails[i] == b
                                          for i in range(pos)):
                        continue
                    at, premises, concl = fam.rule(hi, ci)
                    yield base | at, premises, concl, fam.tag
        for f, guarded in self.by_guard.get(b, ()):
            cis = guarded.get(a)
            if cis is None:
                continue
            base, fam = self.families[f]
            for ci in cis:
                tails, _, rhs = fam.choices[ci]
                for hi, (head, zs) in enumerate(fam.heads):
                    # reflexive, or yielded as a tail premise
                    if head == rhs or any(z == a and t == b
                                          for z, t in zip(zs, tails)):
                        continue
                    at, premises, concl = fam.rule(hi, ci)
                    yield base | at, premises, concl, fam.tag
        zi = self.universe.get(a)
        if zi is None:
            return
        width = len(self.universe)
        for mi in self.meets_by_operand.get(b, ()):
            m, operands = self.meets[mi]
            if m != a:
                yield (self.meet_base | (mi * width + zi),
                       tuple([(a, o) for o in operands]), (a, m), "meet-intro")

    def earlier_twin(self, rank: int, premises: frozenset[AtomKey],
                     concl: AtomKey) -> bool:
        """Has a family of a lower block a rule with these premises and
        this conclusion?  (A meet-intro rule never has a family rule's
        premises and conclusion: all its premises have the conclusion's
        left side, and a family rule has a premise whose left side is an
        argument of it.)"""
        block = rank >> _RANK_BITS
        t, u = concl
        for other, fam, heads, rhs in self.concluding:
            if other >= block:
                return False
            hi, ci = heads.get(t), rhs.get(u)
            if (hi is not None and ci is not None
                    and frozenset(fam.rule(hi, ci)[1]) == premises):
                return True
        return False


@dataclass
class Result:
    sat: bool
    goal: Optional[AtomKey]
    solver: "HornSolver"
    stats: Stats

    def model(self) -> set[AtomKey]:
        return {self.solver.atom_keys[a] for a in self.solver.reasons}

    def holds(self, atom: AtomKey) -> bool:
        return self.solver.has(atom)


@dataclass
class TraceStep:
    atom: AtomKey
    kind: str                       # "fact" | "clause" | "trans"
    label: str                      # fact label or clause tag
    premises: tuple[AtomKey, ...]


class HornSolver:
    def __init__(self, transitive: bool = False,
                 triggers: Optional[Triggers] = None):
        self.transitive = transitive
        self.atom_ids: dict[AtomKey, int] = {}
        self.atom_keys: list[AtomKey] = []
        self.reasons: dict[int, Reason] = {}
        self.queue: deque[int] = deque()
        self.occ: dict[int, list[int]] = {}
        self.clauses: list[_Clause] = []
        self.stats = Stats()
        if transitive:
            # constant -> its bit; per bit, the constant, and the bitsets of
            # its popped up-set and down-set and of those known derived
            # (popped or met by transitivity); per popped atom, its pop
            # number
            self.bits: dict[object, int] = {}
            self.consts: list = []
            self.popped_up: list[int] = []
            self.popped_down: list[int] = []
            self.up: list[int] = []
            self.down: list[int] = []
            self.pop_seq: dict[int, int] = {}
        self.triggers = triggers
        # while building, atoms are stamped with the rank of the step that
        # derived them (facts: -1), and the triggered rules they complete
        # wait in a heap until the build reaches their rank
        self.building = triggers is not None
        self._build_rank = -1
        if triggers is not None:
            self.popped: set[int] = set()
            self.built: dict[int, int] = {}
            self._waiting: list[Rule] = []
            # conclusion -> the materialized clauses concluding it
            self._concluding: dict[AtomKey, list[int]] = {}

    # -- construction --------------------------------------------------------

    def atom(self, key: AtomKey) -> int:
        aid = self.atom_ids.get(key)
        if aid is None:
            aid = len(self.atom_keys)
            self.atom_ids[key] = aid
            self.atom_keys.append(key)
        return aid

    def _bit(self, c) -> int:
        i = self.bits[c] = len(self.consts)
        self.consts.append(c)
        self.popped_up.append(0)
        self.popped_down.append(0)
        self.up.append(0)
        self.down.append(0)
        return i

    def add_fact(self, key: AtomKey, label: str = "fact") -> None:
        self._derive(self.atom(key), ("fact", label))

    def add_clause(self, premises: Iterable[AtomKey], concl: AtomKey,
                   tag: str = "clause", block: int = 0) -> None:
        """Add a materialized clause.  The block places it among the
        triggered rules (see Triggers); clauses of one block keep the
        order they are added in."""
        rank = 0
        if self.triggers is not None:
            rank = block << _RANK_BITS | self.stats.clauses
            if self.building:
                self._build_until(rank)
        self.stats.clauses += 1
        prem_ids: dict[int, None] = {}
        for p in premises:
            prem_ids.setdefault(self.atom(p), None)
        cid = len(self.clauses)
        missing = 0
        for pid in prem_ids:
            # premises that are already derived are settled; registering
            # them in the occurrence lists would decrement the counter a
            # second time when they are popped
            if pid not in self.reasons:
                missing += 1
                self.occ.setdefault(pid, []).append(cid)
        clause = _Clause(tuple(prem_ids), concl, tag, missing, rank)
        self.clauses.append(clause)
        if self.triggers is not None:
            self._concluding.setdefault(concl, []).append(cid)
        self.stats.premise_occurrences += len(clause.premises)
        if missing == 0:
            self._build_rank = rank
            self._fire(cid)

    def end_build(self) -> None:
        """Fire the triggered rules that the facts and the clauses added so
        far complete; later facts are settled only once popped.  solve()
        ends the build itself."""
        if self.building:
            self._build_until(_NEVER)
            self.building = False

    def _build_until(self, rank: int) -> None:
        waiting = self._waiting
        while waiting and waiting[0][0] < rank:
            rule = heapq.heappop(waiting)
            # everything derived so far ranks below this rule
            self._build_rank = rule[0]
            self._fire_rule(rule)

    # -- propagation ---------------------------------------------------------

    def _derive(self, aid: int, reason: Reason) -> None:
        if aid in self.reasons:
            return
        self.reasons[aid] = reason
        self.queue.append(aid)
        if self.building:
            rank = self._build_rank
            self.built[aid] = rank
            atom = self.atom_keys[aid]
            if atom[1] in self.triggers.premise_rhs:
                has = self.has
                for rule in self.triggers.rules_with(atom):
                    # a rule waits once all its premises hold: the one
                    # derived last queues it, once
                    if rule[0] > rank and all(map(has, rule[1])):
                        heapq.heappush(self._waiting, rule)

    def _fire(self, cid: int) -> None:
        clause = self.clauses[cid]
        self.stats.fired_clauses += 1
        concl_id = self.atom(clause.concl)
        if (self.triggers is not None and concl_id not in self.reasons
                and self._has_twin(clause.rank, clause.concl,
                                   (self.atom_keys[p] for p in clause.premises))):
            return
        self._derive(concl_id, ("clause", cid))

    def _fire_rule(self, rule: Rule) -> None:
        """Fire a triggered rule; only a firing that derives is recorded."""
        rank, premises, concl, tag = rule
        self.stats.fired_clauses += 1
        concl_id = self.atom(concl)
        if concl_id in self.reasons or self._has_twin(rank, concl, premises):
            return
        self.clauses.append(_Clause(
            tuple(self.atom_ids[p] for p in premises), concl, tag, 0, rank))
        self._derive(concl_id, ("clause", len(self.clauses) - 1))

    def _has_twin(self, rank: int, concl: AtomKey,
                  premises: Iterable[AtomKey]) -> bool:
        """Does a clause or rule of lower rank have the same premises and
        conclusion?  The materialized clause list keeps only the first of
        such twins, so a later one must not fire, not even where a premise
        settled in the build would let it fire before the first."""
        premises = frozenset(premises)
        keys = self.atom_keys
        for cid in self._concluding.get(concl, ()):
            clause = self.clauses[cid]
            if (clause.rank < rank
                    and frozenset(keys[p] for p in clause.premises) == premises):
                return True
        return self.triggers.earlier_twin(rank, premises, concl)

    def has(self, key: AtomKey) -> bool:
        aid = self.atom_ids.get(key)
        return aid is not None and aid in self.reasons

    def _result(self, sat: bool, goal: Optional[AtomKey]) -> Result:
        # the work bound the algorithm's linearity rests on: each premise
        # occurrence is decremented at most once
        if self.stats.decrements > self.stats.premise_occurrences:
            raise LoctameError(
                f"work bound violated: {self.stats.decrements} decrements "
                f"for {self.stats.premise_occurrences} premise occurrences")
        return Result(sat, goal, self, self.stats)

    def solve(self, goal: Optional[AtomKey] = None) -> Result:
        """Propagate to fixpoint (or until the goal atom is derived).

        Can be called again after add_fact/add_clause; propagation resumes
        where it stopped.
        """
        self.end_build()
        goal_id = self.atom(goal) if goal is not None else None
        queue, occ, clauses = self.queue, self.occ, self.clauses
        reasons, keys, stats = self.reasons, self.atom_keys, self.stats
        triggered, transitive = self.triggers is not None, self.transitive
        # goal_id in reasons is False while there is no goal
        while queue and goal_id not in reasons:
            aid = queue.popleft()
            if triggered:
                self._pop_triggered(aid)
            else:
                for cid in occ.get(aid, ()):
                    clause = clauses[cid]
                    clause.missing -= 1
                    stats.decrements += 1
                    if clause.missing == 0:
                        self._fire(cid)
            # a<=a joins nothing: with w<=a it gives w<=a, with a<=c a<=c
            if transitive and keys[aid][0] != keys[aid][1]:
                self._trans_close(aid)
        return self._result(goal_id not in reasons, goal)

    def _pop_triggered(self, aid: int) -> None:
        """Fire what the popped atom completes, clauses and rules together
        in rank order.  A rule waits on a premise unless that premise was
        derived in the build before the rule's rank (as a materialized
        clause added at that rank would); it fires at the pop of the last
        premise it waits on."""
        self.popped.add(aid)
        ready: list[tuple] = []
        for cid in self.occ.get(aid, ()):
            clause = self.clauses[cid]
            clause.missing -= 1
            self.stats.decrements += 1
            if clause.missing == 0:
                ready.append((clause.rank, cid))
        built, popped, ids = self.built, self.popped, self.atom_ids
        own = built.get(aid, _NEVER)
        # an atom derived from the facts (rank -1) ranks below every rule:
        # the build fired each rule it completes
        atom = self.atom_keys[aid]
        rules = (self.triggers.rules_with(atom)
                 if own >= 0 and atom[1] in self.triggers.premise_rhs else ())
        for rule in rules:
            self.stats.trigger_probes += 1
            rank = rule[0]
            if own < rank:
                continue
            for p in rule[1]:
                pid = ids.get(p)
                if pid is None or (pid not in popped
                                   and built.get(pid, _NEVER) >= rank):
                    break
            else:
                ready.append(rule)
        if len(ready) > 1:
            ready.sort(key=itemgetter(0))
        for item in ready:
            if len(item) == 2:
                self._fire(item[1])
            else:
                self._fire_rule(item)

    def _trans_close(self, aid: int) -> None:
        """Join a popped atom a<=b, a != b, with the popped atoms w<=a and
        b<=c."""
        a, b = self.atom_keys[aid]
        bits = self.bits
        x = bits.get(a)
        if x is None:
            x = self._bit(a)
        y = bits.get(b)
        if y is None:
            y = self._bit(b)
        self.pop_seq[aid] = len(self.pop_seq)
        popped_up, popped_down = self.popped_up, self.popped_down
        up, down = self.up, self.down
        popped_up[x] |= 1 << y
        popped_down[y] |= 1 << x
        up[x] |= 1 << y
        down[y] |= 1 << x
        consts, ids, reasons = self.consts, self.atom_ids, self.reasons
        # extend to the left, then to the right
        new = popped_down[x] & ~down[y] & ~(1 << x)
        if new:
            lefts = [(ids[(consts[w], a)], w) for w in _members(new)]
            for left, w in sorted(lefts, key=self._pop_order):
                key = (consts[w], b)
                down[y] |= 1 << w
                up[w] |= 1 << y
                if ids.get(key) not in reasons:
                    self.stats.trans_steps += 1
                    self._derive(self.atom(key), ("trans", left, aid))
        new = popped_up[y] & ~up[x] & ~(1 << y)
        if new:
            rights = [(ids[(b, consts[c])], c) for c in _members(new)]
            for right, c in sorted(rights, key=self._pop_order):
                key = (a, consts[c])
                up[x] |= 1 << c
                down[c] |= 1 << x
                if ids.get(key) not in reasons:
                    self.stats.trans_steps += 1
                    self._derive(self.atom(key), ("trans", aid, right))

    def _pop_order(self, partner: tuple[int, int]) -> int:
        """The pop number of a partner atom, given as (atom, bit)."""
        return self.pop_seq[partner[0]]

    # -- inspection ------------------------------------------------------------

    def trace(self, atom: AtomKey) -> list[TraceStep]:
        """The derivation of an atom, premises before conclusions."""
        root = self.atom_ids.get(atom)
        if root is None or root not in self.reasons:
            raise LoctameError(f"atom was not derived: {atom}")
        steps: list[TraceStep] = []
        emitted: set[int] = set()
        on_path: set[int] = set()
        stack: list[tuple[int, bool]] = [(root, False)]
        while stack:
            aid, expanded = stack.pop()
            if aid in emitted:
                continue
            reason = self.reasons[aid]
            if reason[0] == "fact":
                emitted.add(aid)
                steps.append(TraceStep(self.atom_keys[aid], "fact", reason[1], ()))
                continue
            if reason[0] == "clause":
                deps = self.clauses[reason[1]].premises
                kind, label = "clause", self.clauses[reason[1]].tag
            else:
                deps = reason[1:]
                kind, label = "trans", "trans"
            if not expanded:
                if aid in on_path:
                    raise LoctameError("cyclic derivation record")
                on_path.add(aid)
                stack.append((aid, True))
                for d in reversed(deps):
                    if d not in emitted:
                        stack.append((d, False))
                continue
            on_path.discard(aid)
            emitted.add(aid)
            steps.append(TraceStep(
                self.atom_keys[aid], kind, label,
                tuple(self.atom_keys[d] for d in deps)))
        return steps


def _members(bitset: int) -> Iterator[int]:
    """The positions of the set bits, lowest first."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


def solve_problem(facts: Iterable[tuple[AtomKey, str]],
                  clauses: Iterable[tuple[tuple[AtomKey, ...], AtomKey, str]],
                  goal: Optional[AtomKey],
                  transitive: bool = False) -> Result:
    """Build a solver from facts and materialized clauses and solve."""
    solver = HornSolver(transitive=transitive)
    for atom, label in facts:
        solver.add_fact(atom, label)
    for premises, concl, tag in clauses:
        solver.add_clause(premises, concl, tag)
    return solver.solve(goal)


def model_check(result: Result,
                facts: Iterable[tuple[AtomKey, str]],
                clauses: Iterable[tuple[tuple[AtomKey, ...], AtomKey, str]],
                goal: Optional[AtomKey]) -> None:
    """Audit a satisfiable verdict: the derived set contains the facts, is
    closed under the clauses (and transitivity, if enabled), and misses
    the goal.  Raises LoctameError on any violation."""
    model = result.model()
    for atom, label in facts:
        if atom not in model:
            raise LoctameError(f"model misses fact {atom} ({label})")
    for premises, concl, tag in clauses:
        if all(p in model for p in premises) and concl not in model:
            raise LoctameError(f"model not closed under {tag}: {premises} -> {concl}")
    if result.solver.transitive:
        by_lhs: dict[str, set[str]] = {}
        for a, b in model:
            by_lhs.setdefault(a, set()).add(b)
        for a, bs in by_lhs.items():
            for b in list(bs):
                for c in by_lhs.get(b, ()):
                    if c not in bs:
                        raise LoctameError(
                            f"model not transitively closed: {a}<={b}<={c}")
    if result.sat and goal is not None and goal in model:
        raise LoctameError(f"satisfiable verdict but the goal {goal} was derived")
