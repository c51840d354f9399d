"""The chase's trigger index against the materialized clause families.

In `chase` mode the solver fires monotonicity, role compositions and meet
introduction from an index instead of from materialized clauses.  These
tests check that nothing a user can see changes: every derivation, least
model, movement and dumped reduction is the one the full materialized
reduction gives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from loctame import algebra as alg, concdom, hornsat, pipeline, randgen
from loctame import reduce as red
from loctame.syntax import parse_cbox

from tests.conftest import purified_problem


def _sorts(table: red.PurifiedProblem) -> dict[str, str]:
    """Every constant's name -> its sort."""
    return {table.names[i]: s for i, s in table.sorts.items()}


def _render(table: red.PurifiedProblem,
            steps: list[hornsat.TraceStep]) -> list[str]:
    lines = []
    for step in steps:
        rendered = pipeline.render_atom(table, step.atom)
        if step.kind == "fact" or not step.premises:
            lines.append(f"{rendered}   [{step.label}]")
        else:
            prems = "; ".join(pipeline.render_atom(table, p)
                              for p in step.premises)
            lines.append(f"{rendered}   [{step.label}: {prems}]")
    return lines


def _named(table: red.PurifiedProblem, atoms) -> list:
    """Atoms over a table's ids as pairs of names."""
    return [(table.names[a], table.names[b]) for a, b in atoms]


def _materialized(report: pipeline.Report):
    """Solve the full reduction, taken from the `instantiate`-mode report
    of the same query without its transitivity clauses, with every clause
    materialized, moving in the conclusions of the mixed clauses (whose
    numeric premises hold) as their concept premises come to hold;
    returns the result, the movements and the reference's own term
    table."""
    full = purified_problem(report.problem)
    assert full.defs == report.purified.defs
    assert _sorts(full) == _sorts(report.purified)
    split = concdom.split_problem(full)
    sl = red.sl_instantiate(split.concept)
    if not split.mixed:
        return hornsat.solve_problem(sl.facts, sl.clauses, sl.goal,
                                     transitive=True), [], full
    solver = hornsat.HornSolver(transitive=True)
    for atom, label in sl.facts:
        solver.add_fact(atom, label)
    for premises, concl, tag in sl.clauses:
        solver.add_clause(premises, concl, tag)
    pending, movements = list(split.mixed), []
    while True:
        res = solver.solve(sl.goal)
        if not res.sat:
            return res, movements, full
        moved = False
        for mc in pending[:]:
            if all(solver.has(p) for p in mc.concept_premises):
                solver.add_fact(mc.concl, f"moved:{mc.tag}")
                movements.append((mc.tag, mc.concl))
                pending.remove(mc)
                moved = True
        if not moved:
            return res, movements, full


def _check_identity(cbox, query) -> bool:
    """Compare the chase with the materialized reduction on one query;
    returns whether a derivation was compared (the query is subsumed)."""
    report, lines = pipeline.explain(cbox, query)
    comb = report.combine
    if comb.result is None:
        assert report.sl is None
        return False
    res, movements, full = _materialized(report)
    assert ([tag for tag, _ in movements] == [tag for tag, _ in comb.movements]
            and _named(full, [a for _, a in movements])
            == _named(report.purified, [a for _, a in comb.movements]))
    assert res.sat == comb.result.sat
    if res.sat:
        assert (set(_named(full, res.model()))
                == set(_named(report.purified, comb.result.model())))
        return False
    steps = res.solver.trace(full.target)
    assert lines[len(movements):] == _render(full, steps)
    return True


def test_explain_equals_the_materialized_trace_normal_form():
    traced = 0
    for seed in range(120):
        rng = random.Random(11_000 + seed)
        cbox = randgen.normal_cbox(rng, max_names=10, max_roles=3,
                                   max_axioms=20)
        traced += _check_identity(cbox, randgen.random_query(rng, cbox))
    assert traced >= 25


def test_explain_equals_the_materialized_trace_extended():
    traced = 0
    for seed in range(120):
        rng = random.Random(12_000 + seed)
        cbox = randgen.extended_cbox(rng)
        traced += _check_identity(cbox, randgen.random_query(rng, cbox))
    assert traced >= 30


def test_explain_equals_the_materialized_trace_numeric():
    traced = 0
    for seed in range(150):
        rng = random.Random(13_000 + seed)
        cbox = randgen.numeric_cbox(rng)
        traced += _check_identity(cbox, randgen.numeric_query(rng, cbox))
    assert traced >= 15


def test_fixtures_with_movements_match(freight_cbox, defs_cbox, anatomy_cbox,
                                       routes_cbox, guards_cbox):
    for cbox in (freight_cbox, defs_cbox, anatomy_cbox, routes_cbox,
                 guards_cbox):
        assert _check_identity(cbox, cbox.queries[0])


def test_classification_model_equals_the_materialized_one():
    cbox = randgen.scaling_family(60)
    cls = pipeline.classify(cbox)
    res, _, full = _materialized(cls.report)
    assert (set(_named(full, res.model()))
            == set(_named(cls.report.purified,
                          cls.report.combine.result.model())))
    # the materialized families are what the index saves (988 against
    # 4,708 atoms here; the gap grows with the size)
    assert len(cls.report.combine.result.solver.atom_keys) * 4 < \
        len(res.solver.atom_keys)


def _without_trans(sl: red.SLProblem) -> red.SLProblem:
    """An `instantiate`-mode reduction without its trailing transitivity
    clauses, read as a `chase`-mode one."""
    n = len(sl.clauses)
    while n and sl.clauses[n - 1][2] == "trans":
        n -= 1
    return replace(sl, clauses=sl.clauses[:n], blocks=sl.blocks[:n],
                   mode=red.CHASE)


def test_report_keeps_the_full_reduction_on_demand(defs_cbox):
    chase = pipeline.check_subsumption(defs_cbox, defs_cbox.queries[0])
    inst = pipeline.check_subsumption(defs_cbox, defs_cbox.queries[0],
                                      mode=red.INSTANTIATE)
    # the solver was built without Mon(f_r1), Mon(f_r2) and meet-intro ...
    built = {tag for _, _, tag in chase.combine.sl.clauses}
    assert not any(t.startswith("Mon") or t == "meet-intro" for t in built)
    assert chase.purified.triggered
    # ... while the report shows the whole reduction: the `instantiate`
    # one without its transitivity clauses
    assert _without_trans(inst.sl) == chase.sl
    assert {tag for *_, tag in chase.sl.clauses} >= {"Mon(f_r1)", "meet-intro"}


def test_the_full_reduction_is_the_instantiate_one_without_transitivity(
        freight_cbox, defs_cbox, anatomy_cbox, routes_cbox, guards_cbox):
    # the same facts, universe, goal, proxies and clauses, in the same order
    cases = [(cbox, cbox.queries[0]) for cbox in (
        freight_cbox, defs_cbox, anatomy_cbox, routes_cbox, guards_cbox)]
    for seed in range(40):
        rng = random.Random(14_000 + seed)
        cbox = randgen.extended_cbox(rng)
        cases.append((cbox, randgen.random_query(rng, cbox)))
        cbox = randgen.numeric_cbox(rng)
        cases.append((cbox, randgen.numeric_query(rng, cbox)))
        cases.append((randgen.normal_cbox(rng, max_names=8, max_roles=3,
                                          max_axioms=14), None))
    written = 0
    for cbox, query in cases:
        chase, inst = (pipeline.check_subsumption(cbox, query, mode=mode)
                       if query is not None
                       else pipeline.classify(cbox, mode=mode).report
                       for mode in (red.CHASE, red.INSTANTIATE))
        assert chase.purified.defs == inst.purified.defs
        if inst.sl is None:
            assert chase.sl is None
            continue
        assert chase.sl == _without_trans(inst.sl)
        written += bool(chase.purified.triggered)
    assert written >= 100


def test_reading_the_full_reduction_builds_no_second_reduction(
        monkeypatch, defs_cbox, guards_cbox):
    reports = [pipeline.check_subsumption(cbox, cbox.queries[0])
               for cbox in (defs_cbox, guards_cbox)]
    reports.append(pipeline.classify(randgen.scaling_family(30)).report)
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(alg, "instantiate", counted(alg.instantiate))
    monkeypatch.setattr(red, "flatten_purify", counted(red.flatten_purify))
    for report in reports:
        assert report.purified.triggered
        assert report.sl.clauses and report.clause_count
        pipeline.emit_reduction(report)
    assert calls == []


def test_numeric_operators_keep_materialized_monotonicity(freight_cbox):
    report = pipeline.check_subsumption(freight_cbox, freight_cbox.queries[0])
    assert not report.purified.triggered
    assert red.triggered_axioms(report.problem) == []


# ---------------------------------------------------------------------------
# the solver alone, on random problems
# ---------------------------------------------------------------------------

def _random_composition(rng, k, consts, universe):
    """A K2/K3 family over constants: n-ary tails, z arguments repeated
    across positions (as a fixed slot or a shared filler can make them),
    an optional guard; heads and right-hand sides are fresh constants."""
    n = rng.randint(1, 3)
    heads = []
    for h in range(rng.randint(1, 3)):
        heads.append((f"k{k}h{h}", tuple(rng.choice(consts) for _ in range(n))))
    choices = []
    for c in range(rng.randint(1, 4)):
        # a tail among the constants often makes a reflexive or an input
        # premise, so rules fire in the build and settle later premises
        tails = tuple(rng.choice(consts if rng.random() < 0.5 else universe)
                      for _ in range(n))
        guarded = tuple(rng.choice(consts) for _ in range(rng.randint(0, 2)))
        choices.append((tails, guarded, f"k{k}r{c}"))
    universe += [h for h, _ in heads] + [r for *_, r in choices]
    guard = rng.choice(universe) if rng.random() < 0.5 else None
    return hornsat.Family(rng.choice(("K2", "K3")), tuple(heads),
                          tuple(choices), guard)


def _comp_rules(family):
    for head, zs in family.heads:
        for tails, guarded, rhs in family.choices:
            premises = list(zip(zs, tails))
            if family.guard is not None:
                premises += [(x, family.guard) for x in guarded]
            yield tuple(dict.fromkeys(premises)), (head, rhs)


def _random_problem(rng: random.Random):
    consts = [f"c{i}" for i in range(rng.randint(3, 7))]
    universe = list(consts)
    # the triggered families in block order, family j in block 2j + 1
    families = []
    for k in range(rng.randint(0, 3)):
        comps = [f for f in families if isinstance(f, hornsat.Family)]
        if comps and rng.random() < 0.3:
            # a second axiom with some of an earlier one's instances
            twin = rng.choice(comps)
            families.append(hornsat.Family(
                "K3" if twin.tag == "K2" else "K2", twin.heads,
                twin.choices[:rng.randint(1, len(twin.choices))], twin.guard))
        else:
            families.append(_random_composition(rng, k, consts, universe))
    for op in range(rng.randint(1, 3)):
        arity = rng.choice((1, 1, 2))
        args = list(itertools.product(consts, repeat=arity))
        rng.shuffle(args)
        terms = []
        for a in args[:rng.randint(1, min(5, len(args)))]:
            name = f"f{op}_{len(terms)}"
            universe.append(name)
            terms.append((name, a))
        families.append((f"Mon(f{op})", terms))
    meets = {}
    for i in range(rng.randint(0, 3)):
        name = f"m{i}"
        meets[name] = tuple(rng.choice(universe) for _ in range(rng.randint(2, 3)))
    universe += list(meets)

    def atom():
        return (rng.choice(universe), rng.choice(universe))

    facts = [((z, z), "refl") for z in universe]
    facts += [(atom(), f"input:{i}") for i in range(rng.randint(1, 8))]
    facts += [((m, o), "meet-below") for m, ops in meets.items() for o in ops]
    # materialized clauses in the even blocks: block 0 stands for K1,
    # the others for K1 between triggered axioms or for Mon over operators
    # with a numeric argument; some repeat a K2/K3 rule of another block,
    # some derive a premise of one
    comp_rules = [rule for f in families if isinstance(f, hornsat.Family)
                  for rule in _comp_rules(f)]
    extra = []
    for i in range(rng.randint(0, 8)):
        block = 2 * rng.randint(0, len(families))
        if comp_rules and rng.random() < 0.2:
            premises, concl = rng.choice(comp_rules)
        elif comp_rules and rng.random() < 0.3:
            # settles a premise of a K2/K3 rule, maybe in the build
            premises = tuple(atom() for _ in range(rng.randint(0, 1)))
            concl = rng.choice(rng.choice(comp_rules)[0] or [atom()])
        elif rng.random() < 0.6:
            premises, concl = tuple(atom() for _ in range(rng.randint(0, 2))), atom()
        else:
            # like Mon over a numeric operator: waits on argument atoms
            premises = tuple((rng.choice(consts), rng.choice(consts))
                             for _ in range(rng.randint(1, 2)))
            concl = atom()
        extra.append((block, premises, concl, f"X{i}"))
    extra.sort(key=lambda c: c[0])
    goal = atom() if rng.random() < 0.5 else None
    return families, meets, universe, facts, extra, goal


def _first_of_twins(clauses):
    """Drop every clause with the premises and conclusion of an earlier one,
    as instantiate and the lattice theory do."""
    seen, out = set(), []
    for clause in clauses:
        key = (frozenset(clause[1]), clause[2])
        if key not in seen:
            seen.add(key)
            out.append(clause)
    return out


def _materialized_clauses(families, meets, universe, extra):
    out = list(extra)
    for j, family in enumerate(families):
        block = 2 * j + 1
        if isinstance(family, hornsat.Family):
            out += [(block, p, c, family.tag) for p, c in _comp_rules(family)]
            continue
        tag, terms = family
        for (t, ta), (u, ua) in itertools.permutations(terms, 2):
            out.append((block, tuple(dict.fromkeys(zip(ta, ua))), (t, u), tag))
    meet_block = 2 * len(families) + 1
    for m, ops in meets.items():
        for z in universe:
            if z != m:
                out.append((meet_block, tuple(dict.fromkeys((z, o) for o in ops)),
                            (z, m), "meet-intro"))
    out.sort(key=lambda c: c[0])      # stable: keeps the order inside a block
    return _first_of_twins(out)


def _mon_family(tag, terms):
    """Mon over (constant, argument constants) terms: one head and one
    choice per term."""
    return hornsat.Family(tag, tuple(terms),
                          tuple((args, (), t) for t, args in terms))


def _triggers(families, meets, universe):
    return hornsat.Triggers(
        [(2 * j + 1, f if isinstance(f, hornsat.Family) else _mon_family(*f))
         for j, f in enumerate(families)],
        meets, meet_block=2 * len(families) + 1, universe=universe)


def _derivations(solver: hornsat.HornSolver, names=None) -> list:
    """Each derived atom with its reason, in derivation order; with names,
    over the names of the constants."""
    keys = solver.atom_keys
    if names is not None:
        keys = [(names[a], names[b]) for a, b in keys]
    out = []
    for aid, reason in solver.reasons.items():
        if reason[0] == "clause":
            clause = solver.clauses[reason[1]]
            reason = (clause.tag, tuple(keys[p] for p in clause.premises))
        elif reason[0] == "trans":
            reason = ("trans", keys[reason[1]], keys[reason[2]])
        out.append((keys[aid], reason))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_triggered_rules_derive_like_their_materialized_clauses(seed):
    rng = random.Random(seed)
    families, meets, universe, facts, extra, goal = _random_problem(rng)

    plain = hornsat.HornSolver(transitive=True)
    for a, label in facts:
        plain.add_fact(a, label)
    for _, premises, concl, tag in _materialized_clauses(
            families, meets, universe, extra):
        plain.add_clause(premises, concl, tag)
    want = plain.solve(goal)

    chase = hornsat.HornSolver(transitive=True,
                               triggers=_triggers(families, meets, universe))
    for a, label in facts:
        chase.add_fact(a, label)
    # the materialized clauses drop their own twins, as the lattice
    # theory does, but not those of triggered rules
    for block, premises, concl, tag in _first_of_twins(extra):
        chase.add_clause(premises, concl, tag, block)
    got = chase.solve(goal)

    assert got.sat == want.sat
    # same atoms, derived in the same order for the same reasons
    assert _derivations(chase) == _derivations(plain)
    if goal is not None and not got.sat:
        assert chase.trace(goal) == plain.trace(goal)


def test_rules_complete_at_build_time_fire_before_solving():
    triggers = hornsat.Triggers(
        [(1, _mon_family("Mon(f)", [("fa", ("a",)), ("fb", ("b",))]))],
        meets={}, meet_block=2, universe=["a", "b", "fa", "fb"])
    solver = hornsat.HornSolver(transitive=True, triggers=triggers)
    solver.add_fact(("a", "b"), "input:0")
    solver.end_build()
    assert solver.has(("fa", "fb"))
    assert not solver.has(("fb", "fa"))
    step = solver.trace(("fa", "fb"))[-1]
    assert (step.label, step.premises) == ("Mon(f)", (("a", "b"),))


def test_one_pop_fires_in_materialized_order():
    # a <= b is derived by transitivity, so it is popped after the build;
    # that pop completes a materialized clause of block 2 and the
    # triggered Mon rule of block 1, and the rule's conclusion comes first
    triggers = hornsat.Triggers(
        [(1, _mon_family("Mon(f)", [("fa", ("a",)), ("fb", ("b",))]))],
        meets={}, meet_block=3, universe=["a", "b", "x", "fa", "fb", "p"])
    solver = hornsat.HornSolver(transitive=True, triggers=triggers)
    solver.add_fact(("a", "x"), "input:0")
    solver.add_fact(("x", "b"), "input:1")
    solver.add_clause([("a", "b")], ("p", "p"), "Mon(g)", block=2)
    solver.solve()
    order = [solver.atom_keys[a] for a in solver.reasons]
    assert order[:5] == [("a", "x"), ("x", "b"), ("a", "b"), ("fa", "fb"),
                         ("p", "p")]


def test_proxies_follow_the_materialized_walk():
    # the meets of the two restrictions are first named by the Mon(f_w)
    # walk, premises before conclusions: (C & D), (E & F), then the terms
    cbox = parse_cbox("""\
decl role w : 3
role w1 = restrict w at 2 to C and D
role w2 = restrict w at 2 to E and F
role r o s sub w1
role r o s sub w2
A sub exists s . B
? A sub exists s . B
""")
    report = pipeline.check_subsumption(cbox, cbox.queries[0])
    names = report.purified.names
    assert {fam.tag: [names[t] for t, _ in fam.heads]
            for fam in report.purified.triggered.values()
            if fam.tag.startswith("Mon")} == {"Mon(f_w)": ["_t3", "_t4"]}
    assert [str(report.purified.defs[p]) for p in ("_t1", "_t2")] == \
        ["(C & D)", "(E & F)"]
    assert _check_identity(cbox, cbox.queries[0])


def test_a_repeated_axiom_fires_only_where_its_first_copy_does():
    # the K1 instances of `r sub s` (block 1) derive f_r(x) <= f_s(x) in
    # the build; the second copy of `r o s sub r` (block 2) would take
    # that premise as settled and fire before the first copy (block 0),
    # but the materialized clause list has only the first copy's instances
    cbox = parse_cbox("""\
role r o s sub r
role r sub s
role r o s sub r
exists s . B sub exists r . exists r . A
""")
    report = pipeline.classify(cbox).report
    assert {i for i, fam in report.purified.triggered.items()
            if fam.tag == "K2"} == {0, 2}
    res, _, full = _materialized(report)
    assert (_derivations(report.combine.result.solver, report.purified.names)
            == _derivations(res.solver, full.names))


def test_scaling_family_instantiates_only_k1():
    # `r o r sub r` has 10,000 K2 instances over 100 f_r terms here; the
    # chase fires the 201 of them that derive, and materializes only the
    # K1 instances of `r sub s`
    report = pipeline.classify(randgen.scaling_family(300)).report
    assert {tag for *_, tag in report.combine.sl.clauses} == {"K1"}
    solver = report.combine.result.solver
    assert len(solver.reasons) == 2908
    # the materialized K2 instances alone interned 10,000 premise atoms
    assert len(solver.atom_keys) < 2 * len(solver.reasons)


def test_no_triggered_rule_concludes_reflexivity(monkeypatch):
    # Mon's rule for (t, t) concludes what the refl fact gives, so the
    # trigger index never yields it
    fired = []
    fire = hornsat.HornSolver._fire_rule

    def record(self, rule):
        fired.append(rule)
        return fire(self, rule)

    monkeypatch.setattr(hornsat.HornSolver, "_fire_rule", record)
    stats = pipeline.classify(randgen.scaling_family(300)).report.stats
    assert (stats["rules_fired"], stats["trigger_probes"]) == (201, 300)
    for seed in range(30):
        pipeline.classify(randgen.normal_cbox(random.Random(seed)))
    assert fired
    assert [rule for rule in fired if rule[2][0] == rule[2][1]] == []


def test_only_touched_atoms_are_interned():
    text = "\n".join(f"C{i} sub exists r . C{i + 1}" for i in range(30))
    cbox = parse_cbox(text + "\n")
    solver = pipeline.classify(cbox).report.combine.result.solver
    # 30 operator terms: a materialized Mon(f_r) alone would intern 870
    # conclusions and as many premises
    assert len(solver.atom_keys) < 300
