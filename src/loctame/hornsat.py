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

`Lattice` is the one definition of the lattice theory over a universe:
its unit facts, meet bounds and meet introduction, which
reduce.sl_instantiate writes out.  A chase solver given one takes it in
after the facts it is given, its inputs.  It keeps the unit facts x<=x,
bot<=x and x<=top in these bitsets, known from the start, and interns
one, with its ("fact", "refl" | "bound") reason, only when a clause, a
rule, the goal, a join or a trace reads it; then it adds the meet bounds
as facts.  The bounds pop as one block at their facts' place after the
inputs: it sets their popped bits and reserves a pop number per unit
fact.  Only if an input put something below bot or above top (or outside
the universe) would their pops derive anything; then each bound is
interned and popped in turn.

The chase mode also hands the solver a `Triggers` index instead of the
clause families that grow with the square of the closure or faster: the
rule family of each Mon/K2/K3 axiom whose premises are all concept atoms
(an `algebra.Family`: monotonicity of the operators whose arguments are
all concepts and the instances of role compositions, indexed by tail and
argument, and by guard), and the lattice's meet introduction.  A
family's own `rule`
spells out each rule, for the index and the written-out reduction alike;
a meet rule's premises are spelled out only when it fires.

A solver is made from its whole problem, the facts and then the clauses.
A triggered rule fires exactly when its materialized clause would have:
every clause and rule carries a rank (its position in the materialized
clause list: one block per axiom, in axiom order, then meet
introduction).  Like a clause, a rule counts down the premises it waits
on.  A premise derived in the build before the rule's rank is settled
then, as a clause added at that rank finds it derived; any other is
settled at its pop.  A rule completed in the build fires at its rank
before the constructor returns; the clauses and rules one pop completes
fire in rank order.  A clause or rule with a twin of lower rank (the same
premises and conclusion) never fires, as the deduplicated clause list
holds only the first.  Each firing that derives an atom is recorded as a
clause, so traces and models read the same as with the materialized
families; only the atoms the rules actually touch are interned.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .syntax import LoctameError

AtomKey = tuple[str, str]

# reasons: ("fact", label) | ("clause", clause_index) | ("trans", left, right)
Reason = tuple

# a rank is block << _RANK_BITS | position within the block; blocks order
# the clause families the way the materialized clause list does
_RANK_BITS = 40
_NEVER = 1 << 62            # the build rank of an atom not derived in the build
# meet introduction's block, after every axiom's
_MEET_BASE = _NEVER - (1 << _RANK_BITS)
_BOUNDS = -1                # the queue entry where the block of bounds pops

# a triggered rule: (rank, premise count, conclusion, tag, premises); a
# meet rule's premises are None until it fires (Lattice.meet_premises)
Rule = tuple[int, int, AtomKey, str, Optional[tuple[AtomKey, ...]]]


@dataclass(frozen=True, eq=False)
class Lattice:
    """The lattice theory over a universe.  Its unit facts are x<=x for
    every x, then bot<=x and x<=top for each x in turn, each at its first
    place; its meet bounds put each meet below each of its operands, but
    where that is a unit fact.  Meet introduction has the rule  z <= each
    distinct operand of m  ->  z <= m  for each meet m and each z != m,
    m-major, then z in universe order."""
    universe: Sequence
    bot: object
    top: object
    meets: Mapping          # meet (of the universe) -> its operands

    @cached_property
    def index(self) -> dict:
        return {x: i for i, x in enumerate(self.universe)}

    @cached_property
    def unit_facts(self) -> dict[AtomKey, int]:
        """Each unit fact -> its place among them, in their order."""
        universe, bot, top = self.universe, self.bot, self.top
        units = dict.fromkeys([(x, x) for x in universe] + [
            atom for x in universe for atom in ((bot, x), (x, top))])
        return {atom: i for i, atom in enumerate(units)}

    def unit_label(self, atom: AtomKey) -> Optional[str]:
        """"refl" or "bound" for a unit fact, else None."""
        if atom in self.unit_facts:
            return "refl" if atom[0] == atom[1] else "bound"
        return None

    @cached_property
    def meet_bounds(self) -> list[tuple[AtomKey, str]]:
        """The meet bounds as labeled facts."""
        return [(atom, "meet-below") for atom in dict.fromkeys(
            (m, o) for m, operands in self.meets.items() for o in operands)
            if atom not in self.unit_facts]

    def meet_premises(self, concl: AtomKey) -> tuple[AtomKey, ...]:
        z, m = concl
        return tuple(dict.fromkeys([(z, o) for o in self.meets[m]]))

    def meet_intro(self) -> Iterator[tuple[tuple[AtomKey, ...], AtomKey, str]]:
        """The meet rules in order, as tagged clauses."""
        for m in self.meets:
            for z in self.universe:
                if z != m:
                    yield self.meet_premises((z, m)), (z, m), "meet-intro"

    def meet_intro_count(self) -> int:
        return len(self.meets) * (len(self.universe) - 1)

    @cached_property
    def meets_over(self) -> dict:
        """Each operand -> the meets over it, each as (the place of its
        first rule, the meet, its count of distinct operands)."""
        out: dict = {}
        for mi, (m, operands) in enumerate(self.meets.items()):
            distinct = dict.fromkeys(operands)
            for o in distinct:
                out.setdefault(o, []).append(
                    (mi * len(self.universe), m, len(distinct)))
        return out

    def meet_rules_with(self, atom: AtomKey) -> Iterator[tuple]:
        """The meet rules with the atom among their premises, as (place,
        premise count, conclusion)."""
        z, o = atom
        zi = self.index.get(z)
        if zi is not None:
            for at, m, count in self.meets_over.get(o, ()):
                if m != z:
                    yield at + zi, count, (z, m)


@dataclass(slots=True)
class _Clause:
    """A materialized clause: premise ids, conclusion, and how many
    premises are still underived."""
    premises: tuple[int, ...]
    concl: AtomKey                  # interned only when the clause fires
    tag: str
    missing: int
    rank: int = 0


@dataclass(slots=True)
class Stats:
    """Work counters of one solver."""
    premise_occurrences: int = 0
    decrements: int = 0
    trans_steps: int = 0            # transitivity steps that derive an atom
    fired_clauses: int = 0          # materialized clauses and triggered rules
    clauses: int = 0                # materialized clauses added
    trigger_probes: int = 0         # triggered rules looked up at a pop
                                    # of an atom not derived from the facts
    rule_decrements: int = 0        # premises of triggered rules settled


class Triggers:
    """Rule families indexed by premise, fired by the solver on demand.

    families: per axiom, its block and its rule family (an algebra.Family:
    tag, heads, choices, guard and `rule`), indexed by the premises
    z_i <= tail_i (by tail, position and z) and by guard.  A rule whose
    head is its choice's right-hand side, such as Mon's rule for (t, t),
    concludes what reflexivity gives, so it is never yielded.

    lattice: its meet introduction, each rule at its place after every
    family.
    """

    def __init__(self, families: Iterable[tuple], lattice: Lattice):
        # tail constant -> (family, position, indices of the choices with
        # that tail there); (family, position, z) -> indices of the heads
        # with that z there; guard -> (family, guarded constant -> indices
        # of its choices); per family in block order, its heads and its
        # right-hand sides by constant
        self.families: list[tuple] = []
        self.by_tail: dict[str, list[tuple[int, int, list[int]]]] = {}
        self.heads_at: dict[tuple[int, int, str], list[int]] = {}
        self.by_guard: dict[str, list[tuple[int, dict[str, list[int]]]]] = {}
        self.concluding: list[tuple[int, object, dict[str, int],
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
                if fam.guard is not None:
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
        self.lattice = lattice
        # the right-hand sides of every premise: an atom whose right-hand
        # side is not among them is a premise of no rule
        self.premise_rhs = {*self.by_tail, *self.by_guard,
                            *lattice.meets_over}

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
                    yield base | at, len(premises), concl, fam.tag, premises
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
                    yield base | at, len(premises), concl, fam.tag, premises
        for at, count, concl in self.lattice.meet_rules_with(atom):
            yield _MEET_BASE | at, count, concl, "meet-intro", None

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
    """A solver run: sat when the goal is not derived, and the solver,
    which holds the least model."""
    sat: bool
    goal: Optional[AtomKey]
    solver: "HornSolver"
    stats: Stats

    def model(self) -> set[AtomKey]:
        solver = self.solver
        model = {solver.atom_keys[a] for a in solver.reasons}
        model.update(solver.lattice.unit_facts if solver.lattice else ())
        return model

    def holds(self, atom: AtomKey) -> bool:
        return self.solver.has(atom)


@dataclass
class TraceStep:
    """One step of a derivation: the atom, its reason and its premises."""
    atom: AtomKey
    kind: str                       # "fact" | "clause" | "trans"
    label: str                      # fact label or clause tag
    premises: tuple[AtomKey, ...]


class HornSolver:
    def __init__(self, facts: Iterable[tuple[AtomKey, str]] = (),
                 clauses: Iterable[tuple[Iterable[AtomKey], AtomKey, str]] = (),
                 blocks: Sequence[int] = (), transitive: bool = False,
                 triggers: Optional[Triggers] = None,
                 lattice: Optional[Lattice] = None):
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
            # number, and the next pop number
            self.bits: dict[object, int] = {}
            self.consts: list = []
            self.popped_up: list[int] = []
            self.popped_down: list[int] = []
            self.up: list[int] = []
            self.down: list[int] = []
            self.pop_seq: dict[int, int] = {}
            self._pops = 0
        # set once the inputs are in: an atom interned from then on may be
        # one of the unit facts the solver holds
        self.lattice: Optional[Lattice] = None
        self.triggers = triggers
        # while building, atoms are stamped with the rank of the step that
        # derived them (facts: -1), and the triggered rules they complete
        # wait in a heap until the build reaches their rank
        self.building = triggers is not None
        self._build_rank = -1
        if triggers is not None:
            self.built: dict[int, int] = {}
            self._waiting: list[Rule] = []
            # rank -> the premises the triggered rule still waits on
            self._left: dict[int, int] = {}
            # conclusion -> the materialized clauses concluding it
            self._concluding: dict[AtomKey, list[int]] = {}
        for atom, label in facts:
            self.add_fact(atom, label)
        if lattice is not None:
            self._hold(lattice)
        for cid, (premises, concl, tag) in enumerate(clauses):
            self._add_clause(premises, concl, tag, 0 if triggers is None
                             else blocks[cid] << _RANK_BITS | cid)
        if self.building:
            self._build_until(_NEVER)
            self.building = False

    # -- construction --------------------------------------------------------

    def atom(self, key: AtomKey) -> int:
        aid = self.atom_ids.get(key)
        if aid is None:
            aid = len(self.atom_keys)
            self.atom_ids[key] = aid
            self.atom_keys.append(key)
            lattice = self.lattice
            label = lattice.unit_label(key) if lattice is not None else None
            if label is not None:
                self.reasons[aid] = ("fact", label)
        return aid

    def _hold(self, lattice: Lattice) -> None:
        """Take in the lattice after the inputs: the unit facts' bits are
        known, the triggered rules settle their premises among them, as
        they did those of the inputs, and the bounds' block is queued; the
        meet bounds follow as facts."""
        n = len(lattice.universe)
        self.bits = dict(lattice.index)
        self.consts = list(lattice.universe)
        self.popped_up, self.popped_down = [0] * n, [0] * n
        bot, top = self.bits[lattice.bot], self.bits[lattice.top]
        self.up = [1 << i | 1 << top for i in range(n)]
        self.down = [1 << i | 1 << bot for i in range(n)]
        self.up[bot] = self.down[top] = (1 << n) - 1
        self.lattice = lattice
        triggers = self.triggers
        if triggers is not None:
            ids, reasons, rhs = self.atom_ids, self.reasons, triggers.premise_rhs
            for atom in lattice.unit_facts:
                # an input may be one of them: it settled its rules itself
                if atom[1] in rhs and ids.get(atom) not in reasons:
                    for rule in triggers.rules_with(atom):
                        if self._settle(rule):
                            heapq.heappush(self._waiting, rule)
        self.queue.append(_BOUNDS)
        for atom, label in lattice.meet_bounds:
            self.add_fact(atom, label)

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
                   tag: str = "clause") -> None:
        """Add a clause that ranks after the whole build."""
        self._add_clause(premises, concl, tag, _NEVER)

    def _add_clause(self, premises: Iterable[AtomKey], concl: AtomKey,
                    tag: str, rank: int) -> None:
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
                for rule in self.triggers.rules_with(atom):
                    # derived before the rule's rank: settled now, as a
                    # materialized clause added at that rank finds it
                    if rule[0] > rank and self._settle(rule):
                        heapq.heappush(self._waiting, rule)

    def _settle(self, rule: Rule) -> bool:
        """Settle a premise of a triggered rule; was it the last one?"""
        rank = rule[0]
        left = self._left.get(rank, rule[1]) - 1
        if left < 0:        # the rules' work bound: each premise settles once
            raise LoctameError(f"work bound violated: the rule for {rule[2]} "
                               f"settled more than its {rule[1]} premises")
        self._left[rank] = left
        self.stats.rule_decrements += 1
        return left == 0

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
        rank, _, concl, tag, premises = rule
        self.stats.fired_clauses += 1
        concl_id = self.atom(concl)
        if concl_id in self.reasons:
            return
        if premises is None:
            premises = self.triggers.lattice.meet_premises(concl)
        if self._has_twin(rank, concl, premises):
            return
        self.clauses.append(_Clause(
            tuple(map(self.atom, premises)), concl, tag, 0, rank))
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
        if aid is not None:
            return aid in self.reasons
        return self.lattice is not None and key in self.lattice.unit_facts

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
        goal_id = self.atom(goal) if goal is not None else None
        queue, keys, reasons = self.queue, self.atom_keys, self.reasons
        # goal_id in reasons is False while there is no goal
        while queue and goal_id not in reasons:
            aid = queue.popleft()
            if aid == _BOUNDS:
                self._pop_bounds()
                continue
            self._pop(aid)
            # a<=a joins nothing: with w<=a it gives w<=a, with a<=c a<=c
            if self.transitive and keys[aid][0] != keys[aid][1]:
                self._trans_close(aid)
        return self._result(goal_id not in reasons, goal)

    def _pop(self, aid: int) -> None:
        """Fire what the popped atom completes, clauses and rules together
        in rank order (without triggers, every rank is 0: occurrence
        order).  The atom settles each rule it did not settle in the
        build."""
        ready: list[tuple] = []
        for cid in self.occ.get(aid, ()):
            clause = self.clauses[cid]
            clause.missing -= 1
            self.stats.decrements += 1
            if clause.missing == 0:
                ready.append((clause.rank, cid))
        triggers = self.triggers
        if triggers is not None:
            own = self.built.get(aid, _NEVER)
            atom = self.atom_keys[aid]
            # an atom derived from the facts (rank -1) ranks below every
            # rule: the build settled it
            if own >= 0 and atom[1] in triggers.premise_rhs:
                for rule in triggers.rules_with(atom):
                    self.stats.trigger_probes += 1
                    if own >= rule[0] and self._settle(rule):
                        ready.append(rule)
        if len(ready) > 1:
            ready.sort(key=itemgetter(0))
        for item in ready:
            if len(item) == 2:
                self._fire(item[1])
            else:
                self._fire_rule(item)

    def _pop_bounds(self) -> None:
        """Pop the bounds bot<=x and x<=top, in the order of their facts:
        as one block, unless their pops would derive something."""
        lattice, bits = self.lattice, self.bits
        n = len(lattice.universe)
        bot, top = bits[lattice.bot], bits[lattice.top]
        if self.popped_down[bot] or self.popped_up[top] or len(self.consts) > n:
            # each bound is interned and popped as its fact was, but one
            # an input gave, which popped as that input
            bounds = [aid for aid in map(self.atom, itertools.islice(
                lattice.unit_facts, n, None))
                if self.reasons[aid] == ("fact", "bound")]
            if self.triggers is not None:
                self.built.update(dict.fromkeys(bounds, -1))
            self.queue.extendleft(reversed(bounds))
            return
        # every join of a bound concludes a unit fact: set the popped bits
        # and reserve a pop number per unit fact, for each bound's place
        # in the pop order (_pop_order)
        everything = (1 << n) - 1
        popped_up, popped_down = self.popped_up, self.popped_down
        popped_up[bot] |= everything
        popped_down[top] |= everything
        for i in range(n):
            popped_down[i] |= 1 << bot
            popped_up[i] |= 1 << top
        self._bounds_at = self._pops
        self._pops += len(lattice.unit_facts)

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
        self.pop_seq[aid] = self._pops
        self._pops += 1
        popped_up, popped_down = self.popped_up, self.popped_down
        up, down = self.up, self.down
        popped_up[x] |= 1 << y
        popped_down[y] |= 1 << x
        up[x] |= 1 << y
        down[y] |= 1 << x
        consts, ids, reasons = self.consts, self.atom_ids, self.reasons
        get, atom = ids.get, self.atom
        # extend to the left, then to the right; a partner the block of
        # bounds popped may not be interned yet
        new = popped_down[x] & ~down[y] & ~(1 << x)
        if new:
            lefts = []
            for w in _members(new):
                left = get((consts[w], a))
                lefts.append((atom((consts[w], a)) if left is None else left, w))
            for left, w in sorted(lefts, key=self._pop_order):
                key = (consts[w], b)
                down[y] |= 1 << w
                up[w] |= 1 << y
                if ids.get(key) not in reasons:
                    self.stats.trans_steps += 1
                    self._derive(self.atom(key), ("trans", left, aid))
        new = popped_up[y] & ~up[x] & ~(1 << y)
        if new:
            rights = []
            for c in _members(new):
                right = get((b, consts[c]))
                rights.append((atom((b, consts[c])) if right is None else right, c))
            for right, c in sorted(rights, key=self._pop_order):
                key = (a, consts[c])
                up[x] |= 1 << c
                down[c] |= 1 << x
                if ids.get(key) not in reasons:
                    self.stats.trans_steps += 1
                    self._derive(self.atom(key), ("trans", aid, right))

    def _pop_order(self, partner: tuple[int, int]) -> int:
        """The pop number of a partner atom, given as (atom, bit)."""
        seq = self.pop_seq.get(partner[0])
        if seq is None:
            # a bound the block popped, at its place among the unit facts
            seq = self._bounds_at + self.lattice.unit_facts[
                self.atom_keys[partner[0]]]
        return seq

    # -- inspection ------------------------------------------------------------

    def trace(self, atom: AtomKey) -> list[TraceStep]:
        """The derivation of an atom, premises before conclusions."""
        if not self.has(atom):
            raise LoctameError(f"atom was not derived: {atom}")
        root = self.atom(atom)
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
                  goal: Optional[AtomKey]) -> Result:
    """Solve facts and materialized clauses, closing under transitivity."""
    return HornSolver(facts, clauses, transitive=True).solve(goal)


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
