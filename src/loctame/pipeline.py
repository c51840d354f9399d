"""End-to-end decision procedures: parse tree in, verdict out.

check_subsumption runs the full reduction for one query:

    translate -> closure -> instantiate -> purify -> split/solve

check_queries runs it for each query of a CBox, which it validates once.

decide is everything after translate; interpolation's entailment check
calls it on problems it builds itself.

classify answers all name-against-name queries with a single goal-free
run: name queries contribute no operator terms to the closure seed, so
the reduction is the same for every such query and the verdict is just
membership of the pair in the least model.

Both modes build the same purified problem: the instances of the
Mon/K2/K3 axioms whose premises are all concept atoms stay one heads x
choices family per axiom (instantiate leaves those axioms out), while
K1, K2 with a guard on a numeric position and Mon over operators with a
numeric argument are instantiated.  The modes part in combine_solve.
`instantiate` mode writes the families, meet introduction and
transitivity out and solves the whole, as the paper's reduction does;
in `chase` mode the solver fires the families and meet introduction
from its trigger index and closes under transitivity itself.
Report.sl gives the full reduction in both modes; `chase` mode writes it
out on first use from the solver's own term table and rule families.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Optional

from . import algebra as alg
from . import concdom, hornsat
from . import reduce as red
from .syntax import CBox, LoctameError, Name, Query, check_cbox


@dataclass
class Report:
    """One run of the reduction: its verdict and every stage's output."""
    subsumed: bool
    query: Optional[Query]
    problem: alg.AlgebraicProblem
    psi_ids: list[int]                # the closure, as term ids
    purified: red.PurifiedProblem
    combine: concdom.CombineResult
    mode: str = red.CHASE
    micros: dict[str, int] = field(default_factory=dict)
    # per input fact, the index of the file's inclusion it was normalized
    # from; None when the input was not normalized
    sources: Optional[tuple[int, ...]] = None

    @property
    def psi(self) -> list[alg.FlatTerm]:
        """The closure's terms."""
        return [self.purified.unfold(t) for t in self.psi_ids]

    @cached_property
    def sl(self) -> Optional[red.SLProblem]:
        """The full ground Horn problem of the reduction.  In `chase` mode
        it is written out from the solver's own term table and families."""
        if self.combine.sl is None or self.mode != red.CHASE:
            return self.combine.sl
        return red.sl_instantiate(concdom.split_problem(self.purified).concept)

    @property
    def clause_count(self) -> int:
        """len(self.sl.clauses), without writing out the full reduction in
        `chase` mode: the solver's clauses and the family rules, each
        counted once, and meet introduction for every meet and every
        other constant."""
        sl = self.combine.sl
        if sl is None:
            return 0
        if self.mode != red.CHASE:
            return len(sl.clauses)
        keys = {(frozenset(p), c) for p, c, _ in sl.clauses}
        keys.update((frozenset(p), c)
                    for fam in self.purified.triggered.values()
                    for _, p, c in fam.rules())
        return len(keys) + len(self.purified.meets) * (len(sl.universe) - 1)

    @property
    def stats(self) -> dict[str, int]:
        """Work counters of the solver run (zero when no solver ran)."""
        res = self.combine.result
        solver = res.solver if res is not None else hornsat.HornSolver()
        st = solver.stats
        return {
            "atoms_interned": len(solver.atom_keys),
            # the least model, with the unit facts the chase holds implicitly
            "atoms_derived": len(res.model()) if res is not None else 0,
            "clauses_built": st.clauses,
            "rules_fired": st.fired_clauses,
            "premise_occurrences": st.premise_occurrences,
            "decrements": st.decrements,
            "trans_steps": st.trans_steps,
            "trigger_probes": st.trigger_probes,
        }


def _now() -> int:
    return time.perf_counter_ns() // 1000


def check_queries(cbox: CBox, queries: tuple[Optional[Query], ...],
                  mode: str = red.CHASE,
                  normalize: bool = False) -> list[Report]:
    """A report per query, or per None for a goal-free run.  The CBox, with
    each query it lacks, is normalized and validated once; the first
    report's times hold that."""
    extra = tuple(q for q in queries if q is not None and q not in cbox.queries)
    if extra:
        # the query's roles resolve exactly like the CBox's own
        cbox = replace(cbox, queries=cbox.queries + extra)
    shared: dict[str, int] = {}
    sources = None
    t = _now()
    if normalize:
        from .normalize import normalize_with_sources
        cbox, sources = normalize_with_sources(cbox)
        shared["normalize"] = _now() - t
        t = _now()
    env = check_cbox(cbox)
    reports = []
    for query in queries:
        problem = red.translate(cbox, query, env)
        micros = {**shared, "translate": _now() - t}
        report = decide(problem, mode)
        report.query, report.micros = query, {**micros, **report.micros}
        report.sources = sources
        reports.append(report)
        shared, t = dict.fromkeys(shared, 0), _now()
    return reports


def decide(problem: alg.AlgebraicProblem, mode: str) -> Report:
    """The reduction of a translated problem: closure, instantiation,
    purification, then the numeric decisions and the lattice solver."""
    micros: dict[str, int] = {}
    t = _now()
    table = red.PurifiedProblem.of(problem)
    psi = alg.psi_closure(
        table, alg.goal_seeds(table, table.goal_atoms()), problem.axioms)
    micros["closure"] = _now() - t

    t = _now()
    by_op = alg.terms_by_op(table, psi)
    families = {i: alg.composition(table, problem.axioms[i], by_op)
                for i in red.triggered_axioms(problem)}
    instances = alg.instantiate(table, problem.axioms, by_op, skip=families)
    micros["instantiate"] = _now() - t

    t = _now()
    purified = red.flatten_purify(table, instances, families)
    micros["purify"] = _now() - t

    combine = concdom.combine_solve(purified, mode)
    micros.update(combine.micros)

    return Report(subsumed=combine.subsumed, query=None, problem=problem,
                  psi_ids=psi, purified=purified, combine=combine, mode=mode,
                  micros=micros)


def check_subsumption(cbox: CBox, query: Query, mode: str = red.CHASE,
                      normalize: bool = False) -> Report:
    [report] = check_queries(cbox, (query,), mode, normalize)
    return report


def subsumes(cbox: CBox, query: Query, mode: str = red.CHASE) -> bool:
    return check_subsumption(cbox, query, mode).subsumed


@dataclass
class Classification:
    """The names of a CBox and the goal-free run that relates them."""
    names: list[str]
    report: Report

    def _run(self) -> Optional[hornsat.Result]:
        """The lattice run; None when the numeric axioms are inconsistent,
        so that everything holds."""
        if self.report.combine.vacuous:
            return None
        res = self.report.combine.result
        if res is None:
            raise LoctameError("a goal-free run decided nothing numerically, "
                               "yet no lattice solver ran")
        return res

    def holds(self, a: str, b: str) -> bool:
        """Is the name a subsumed by the name b?"""
        res = self._run()
        if res is None or a == b:
            return True
        # a name only a query mentions is no constant of the reduction
        ids = self.report.purified.ids
        return a in ids and b in ids and res.holds((ids[a], ids[b]))

    def pairs(self) -> list[tuple[str, str]]:
        """Every (a, b) of distinct names with a subsumed by b, in
        names x names order, read off the least model."""
        res = self._run()
        if res is None:
            return [(a, b) for a in self.names for b in self.names if a != b]
        index = {name: i for i, name in enumerate(self.names)}
        names = self.report.purified.names
        above: dict[str, list[str]] = {}
        for x, y in res.model():
            a, b = names[x], names[y]
            if a != b and a in index and b in index:
                above.setdefault(a, []).append(b)
        return [(a, b) for a in self.names
                for b in sorted(above.get(a, ()), key=index.__getitem__)]


def concept_names(cbox: CBox) -> list[str]:
    names: dict[str, None] = {}

    def walk(c) -> None:
        if isinstance(c, Name):
            names.setdefault(c.name, None)
        for attr in ("args", "fillers"):
            for a in getattr(c, attr, ()):
                walk(a)

    for g in cbox.gcis:
        walk(g.lhs)
        walk(g.rhs)
    for ri in cbox.role_incls:
        if ri.guard is not None:
            walk(ri.guard)
    for r in cbox.restrictions:
        walk(r.concept)
    for q in cbox.queries:
        walk(q.lhs)
        walk(q.rhs)
    return list(names)


def classify(cbox: CBox, mode: str = red.CHASE,
             normalize: bool = False) -> Classification:
    """All name-against-name subsumptions from one goal-free run."""
    [report] = check_queries(cbox, (None,), mode, normalize)
    return Classification(concept_names(cbox), report)


# ---------------------------------------------------------------------------
# explanations
# ---------------------------------------------------------------------------

def render_atom(purified: red.PurifiedProblem, atom: hornsat.AtomKey) -> str:
    return str(purified.leq(atom))


def render_steps(steps: list[hornsat.TraceStep],
                 render: Callable[[hornsat.AtomKey], str]) -> list[str]:
    """One line per derivation step: the atom, then its label and premises."""
    lines = []
    for step in steps:
        if step.kind == "fact" or not step.premises:
            lines.append(f"{render(step.atom)}   [{step.label}]")
        else:
            prems = "; ".join(render(p) for p in step.premises)
            lines.append(f"{render(step.atom)}   [{step.label}: {prems}]")
    return lines


def explain(cbox: CBox, query: Query, mode: str = red.CHASE,
            normalize: bool = False) -> tuple[Report, list[str]]:
    """The verdict together with its derivation."""
    report = check_subsumption(cbox, query, mode, normalize)
    return report, derivation(report)


def derivation(report: Report) -> list[str]:
    """A step list for a report's verdict; proxies are unfolded back to
    operator/meet terms so the steps read in the reduction's own language."""
    if not report.subsumed:
        return ["not subsumed: no derivation of the goal exists"]
    comb = report.combine
    if comb.vacuous:
        return ["subsumed vacuously: the numeric axioms are inconsistent"]
    if comb.result is None:
        return ["subsumed: the numeric axioms entail the goal endpoints"]
    if comb.sl is None or comb.sl.goal is None:
        raise LoctameError("a subsumed verdict from the lattice solver "
                           "without a lattice goal")
    render = partial(render_atom, report.purified)
    moved = [f"moved from the numeric side [{tag}]: {render(atom)}"
             for tag, atom in comb.movements]
    steps = comb.result.solver.trace(comb.sl.goal)
    if report.sources is not None:
        # an input step cites the file's inclusion, not the normalized one
        steps = [replace(s, label=f"input:{report.sources[int(s.label[6:])]}")
                 if s.kind == "fact" and s.label.startswith("input:") else s
                 for s in steps]
    return moved + render_steps(steps, render)


def emit_psi(report: Report) -> str:
    return "\n".join(sorted(str(t) for t in report.psi)) + "\n"


def emit_reduction(report: Report) -> str:
    """The full reduction as text, each mixed clause whose numeric premises
    hold after the concept clauses as its concept premises and conclusion,
    so that `solve` reads the whole problem."""
    sl = report.sl
    if sl is None:
        return "# no lattice problem: the goal was decided numerically\n"
    mixed = [(mc.concept_premises, mc.concl, mc.tag)
             for mc in report.combine.mixed]
    return red.render_reduction(replace(sl, clauses=sl.clauses + mixed))


def json_report(report: Report) -> dict:
    return {
        "query": str(report.query) if report.query is not None else None,
        "verdict": "subsumed" if report.subsumed else "not-subsumed",
        "psi_size": len(report.psi_ids),
        "clause_count": report.clause_count,
        "micros_per_stage": report.micros,
        "stats": report.stats,
    }
