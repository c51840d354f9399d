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
        return hornsat.solve_problem(sl.facts, sl.clauses, sl.goal), [], full
    solver = hornsat.HornSolver(sl.facts, sl.clauses, transitive=True)
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


def _reference_sl(report: pipeline.Report) -> red.SLProblem:
    """The full reduction of a report's problem with every instance
    materialized by alg.instantiate, with no rule families."""
    return red.sl_instantiate(
        concdom.split_problem(purified_problem(report.problem)).concept)


def _without_trans(sl: red.SLProblem) -> red.SLProblem:
    """An `instantiate`-mode reduction without its trailing transitivity
    clauses, read as a `chase`-mode one."""
    n = len(sl.clauses)
    while n and sl.clauses[n - 1][2] == "trans":
        n -= 1
    return replace(sl, clauses=sl.clauses[:n], blocks=sl.blocks[:n])


def test_report_keeps_the_full_reduction_on_demand(defs_cbox):
    chase = pipeline.check_subsumption(defs_cbox, defs_cbox.queries[0])
    inst = pipeline.check_subsumption(defs_cbox, defs_cbox.queries[0],
                                      mode=red.INSTANTIATE)
    # the solver was built without Mon(f_r1), Mon(f_r2) and meet-intro ...
    built = {tag for _, _, tag in chase.combine.sl.clauses}
    assert not any(t.startswith("Mon") or t == "meet-intro" for t in built)
    assert chase.purified.triggered
    # ... while the report shows the whole reduction: in both modes the
    # materialized one (`instantiate` mode's with transitivity clauses)
    assert chase.sl == _reference_sl(chase)
    assert _without_trans(inst.sl) == _reference_sl(inst)
    assert {tag for *_, tag in chase.sl.clauses} >= {"Mon(f_r1)", "meet-intro"}


def test_the_full_reduction_is_the_instantiate_one_without_transitivity(
        freight_cbox, defs_cbox, anatomy_cbox, routes_cbox, guards_cbox):
    # the same facts, goal, proxies and clauses, in the same order
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
        reference = _reference_sl(chase)
        assert chase.sl == reference
        assert _without_trans(inst.sl) == reference
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
    return alg.Family(rng.choice(("K2", "K3")), tuple(heads),
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
        comps = [f for f in families if isinstance(f, alg.Family)]
        if comps and rng.random() < 0.3:
            # a second axiom with some of an earlier one's instances
            twin = rng.choice(comps)
            families.append(alg.Family(
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
    comp_rules = [rule for f in families if isinstance(f, alg.Family)
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
        if isinstance(family, alg.Family):
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
    return alg.Family(tag, tuple(terms),
                      tuple((args, (), t) for t, args in terms))


def _triggers(families, lattice):
    return hornsat.Triggers(
        [(2 * j + 1, f if isinstance(f, alg.Family) else _mon_family(*f))
         for j, f in enumerate(families)], lattice)


# a lattice without meets, for trigger indices of families alone
_NO_MEETS = hornsat.Lattice([], "bot", "top", {})


# the reasons of the unit facts x <= x, bot <= x and x <= top, which the
# chase holds in its bitsets and interns only where something reads them
_UNIT_REASONS = (("fact", "refl"), ("fact", "bound"))


def _derivations(solver: hornsat.HornSolver, names=None) -> list:
    """Each derived atom with its reason, in derivation order, but for the
    unit facts (_assert_unit_facts_hold checks those); with names, over
    the names of the constants."""
    keys = solver.atom_keys
    if names is not None:
        keys = [(names[a], names[b]) for a, b in keys]
    out = []
    for aid, reason in solver.reasons.items():
        if reason in _UNIT_REASONS:
            continue
        if reason[0] == "clause":
            clause = solver.clauses[reason[1]]
            reason = (clause.tag, tuple(keys[p] for p in clause.premises))
        elif reason[0] == "trans":
            reason = ("trans", keys[reason[1]], keys[reason[2]])
        out.append((keys[aid], reason))
    return out


def _assert_unit_facts_hold(got: hornsat.Result, want: hornsat.Result,
                            rename=lambda atom: atom) -> None:
    """Every unit fact the reference solver derived holds in the chase:
    has() and model() see it, interned or not."""
    units = [want.solver.atom_keys[aid]
             for aid, reason in want.solver.reasons.items()
             if reason in _UNIT_REASONS]
    assert units
    model = got.model()
    for atom in map(rename, units):
        assert got.solver.has(atom) and atom in model


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_triggered_rules_derive_like_their_materialized_clauses(seed):
    rng = random.Random(seed)
    families, meets, universe, facts, extra, goal = _random_problem(rng)

    plain = hornsat.HornSolver(
        facts, [(premises, concl, tag) for _, premises, concl, tag
                in _materialized_clauses(families, meets, universe, extra)],
        transitive=True)
    want = plain.solve(goal)

    # the materialized clauses drop their own twins, as the lattice
    # theory does, but not those of triggered rules
    kept = _first_of_twins(extra)
    chase = hornsat.HornSolver(
        facts, [(premises, concl, tag) for _, premises, concl, tag in kept],
        [block for block, *_ in kept], transitive=True,
        triggers=_triggers(families, hornsat.Lattice(universe, "bot", "top",
                                                     meets)))
    got = chase.solve(goal)

    assert got.sat == want.sat
    # same atoms, derived in the same order for the same reasons
    assert _derivations(chase) == _derivations(plain)
    if goal is not None and not got.sat:
        assert chase.trace(goal) == plain.trace(goal)


def test_rules_complete_at_build_time_fire_before_solving():
    triggers = hornsat.Triggers(
        [(1, _mon_family("Mon(f)", [("fa", ("a",)), ("fb", ("b",))]))],
        _NO_MEETS)
    solver = hornsat.HornSolver([(("a", "b"), "input:0")], transitive=True,
                                triggers=triggers)
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
        _NO_MEETS)
    solver = hornsat.HornSolver(
        [(("a", "x"), "input:0"), (("x", "b"), "input:1")],
        [([("a", "b")], ("p", "p"), "Mon(g)")], [2], transitive=True,
        triggers=triggers)
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
    ids = {name: c for c, name in report.purified.names.items()}
    names = full.names
    _assert_unit_facts_hold(report.combine.result, res, lambda atom: (
        ids[names[atom[0]]], ids[names[atom[1]]]))


def test_scaling_family_instantiates_only_k1():
    # `r o r sub r` has 10,000 K2 instances over 100 f_r terms here; the
    # chase fires the 201 of them that derive, and materializes only the
    # K1 instances of `r sub s`
    report = pipeline.classify(randgen.scaling_family(300)).report
    assert {tag for *_, tag in report.combine.sl.clauses} == {"K1"}
    result = report.combine.result
    solver = result.solver
    # the 2,908 atoms of the least model, 1,706 of them unit facts the
    # solver holds in its bitsets without interning them
    assert len(result.model()) == 2908
    assert len(solver.reasons) == len(solver.atom_keys) == 1202


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


def test_meet_introduction_settles_each_premise_once():
    # A0 and ... and Ak-1 sub B: the k atoms z <= Ai derived for each of
    # z = X, bot and Ai settle one premise each of the meet rule for z, so
    # the work doubles with k; reading every premise of a rule at each of
    # its premise events read k(k+1)/2 atoms for X alone
    def settled(k):
        names = [f"A{i}" for i in range(k)]
        cbox = parse_cbox(" and ".join(names) + " sub B\n"
                          + "".join(f"X sub {a}\n" for a in names)
                          + "? X sub B\n")
        report = pipeline.check_subsumption(cbox, cbox.queries[0])
        assert report.subsumed
        return report.combine.result.stats.rule_decrements

    assert (settled(200), settled(400)) == (600, 1200)


# ---------------------------------------------------------------------------
# the unit facts the chase holds in its bitsets
# ---------------------------------------------------------------------------

class _ExplicitFacts(hornsat.HornSolver):
    """A solver given its lattice's unit facts and then its meet bounds as
    facts after the inputs, in the lattice theory's order, and no lattice:
    the reference for the solver that holds them implicitly."""

    def __init__(self, facts, clauses=(), blocks=(), transitive=False,
                 triggers=None, lattice=None):
        if lattice is not None:
            universe, bot, top = lattice.universe, lattice.bot, lattice.top
            facts = (list(facts) + [((x, x), "refl") for x in universe]
                     + [(atom, "bound") for x in universe
                        for atom in ((bot, x), (x, top))]
                     + [((m, o), "meet-below")
                        for m, operands in lattice.meets.items()
                        for o in operands])
        super().__init__(facts, clauses, blocks, transitive, triggers)


def _bounds_popped_one_by_one(solver: hornsat.HornSolver) -> int:
    """How many bounds the solver interned and popped one by one."""
    return sum(solver.reasons[aid] == ("fact", "bound")
               for aid in solver.pop_seq)


def _lattice_problem(rng: random.Random):
    """A random chase problem with bot and top in its universe, inputs and
    clauses that put constants below bot or above top or state unit facts,
    sometimes a meet over top, a constant outside the universe, or a unit
    fact as the goal."""
    families, meets, universe, facts, extra, goal = _random_problem(rng)
    for c in ("bot", "top"):
        universe.insert(rng.randint(0, len(universe)), c)

    def unit_like():
        x = rng.choice(universe)
        return rng.choice(((x, "bot"), ("top", x), ("bot", x), (x, "top"),
                           (x, x)))

    inputs = [f for f in facts if f[1].startswith("input:")]
    for _ in range(rng.randint(0, 2)):
        inputs.append((unit_like(), f"input:{len(inputs)}"))
    if rng.random() < 0.1:
        inputs.append(((rng.choice(universe), "z"), f"input:{len(inputs)}"))
    if meets and rng.random() < 0.3:
        m = rng.choice(list(meets))
        meets[m] += ("top",)
    extra = extra + [(2 * rng.randint(0, len(families)),
                      ((rng.choice(universe), rng.choice(universe)),),
                      unit_like(), f"U{i}") for i in range(rng.randint(0, 2))]
    extra.sort(key=lambda c: c[0])
    if rng.random() < 0.2:
        goal = unit_like()
    return families, meets, universe, inputs, extra, goal, unit_like


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_the_lattice_solver_derives_like_its_explicit_unit_facts(seed):
    rng = random.Random(seed)
    (families, meets, universe, inputs, extra, goal,
     unit_like) = _lattice_problem(rng)
    kept = _first_of_twins(extra)
    lattice = hornsat.Lattice(universe, "bot", "top", meets)
    want, got = (cls(inputs,
                     [(premises, concl, tag) for _, premises, concl, tag in kept],
                     [block for block, *_ in kept], transitive=True,
                     triggers=_triggers(families, lattice),
                     lattice=lattice)
                 for cls in (_ExplicitFacts, hornsat.HornSolver))
    late = unit_like() if rng.random() < 0.5 else (rng.choice(universe),
                                                   rng.choice(universe))
    for step in range(2):
        if step:
            # a moved fact; one equal to a unit fact changes nothing
            want.add_fact(late, "moved:late")
            got.add_fact(late, "moved:late")
        w, g = want.solve(goal), got.solve(goal)
        assert g.sat == w.sat
        assert _derivations(got) == _derivations(want)
        assert g.model() == w.model()
        _assert_unit_facts_hold(g, w)
        assert g.stats == w.stats
        model = sorted(w.model())
        for atom in rng.sample(model, min(5, len(model))):
            assert got.trace(atom) == want.trace(atom)
        if goal is not None and not g.sat:
            assert got.trace(goal) == want.trace(goal)


_BOUND_CASES = [
    "A sub bot\nC sub A\nC sub exists r . A\n? C sub D\n? exists r . C sub D\n",
    "top sub B\nB sub exists r . C\nexists r . top sub D\n? A sub D\n"
    "? top sub B\n",
    "A sub exists r . bot\nB sub A\n? B sub C\n? exists r . B sub bot\n",
    "top sub B and C\nB and C sub exists r . top\n"
    "? top sub exists r . top\n? bot sub A\n? A sub top\n",
    # f_r(C) <= bot is derived after the bounds popped as a block
    "role r o s sub id\nA sub exists r . C\nC sub exists s . bot\n"
    "? A sub B\n",
]


def _bound_case_outputs():
    """Per case, each query's explain lines and the classification pairs,
    and how many bounds the solvers popped one by one."""
    outputs, one_by_one = [], 0
    for text in _BOUND_CASES:
        cbox = parse_cbox(text)
        for query in cbox.queries:
            report, lines = pipeline.explain(cbox, query)
            outputs.append((report.subsumed, lines))
            one_by_one += _bounds_popped_one_by_one(report.combine.result.solver)
        cls = pipeline.classify(cbox)
        outputs.append(cls.pairs())
        one_by_one += _bounds_popped_one_by_one(cls.report.combine.result.solver)
    return outputs, one_by_one


def test_inputs_below_bottom_or_above_top_explain_like_explicit_facts(
        monkeypatch):
    held, popped = _bound_case_outputs()
    monkeypatch.setattr(concdom, "HornSolver", _ExplicitFacts)
    explicit, _ = _bound_case_outputs()
    assert held == explicit
    # an input below bot or above top makes the bounds pop one by one
    assert popped > 0


def test_bounds_popped_as_a_block_join_in_their_places(monkeypatch):
    # A <= bot, derived after the block, joins the bounds bot <= x the
    # block popped, which keep the places of their facts in the pop order
    orderings = []
    order = hornsat.HornSolver._pop_order

    def record(self, partner):
        orderings.append(partner[0] not in self.pop_seq)
        return order(self, partner)

    monkeypatch.setattr(hornsat.HornSolver, "_pop_order", record)
    cbox = parse_cbox(_BOUND_CASES[-1])
    report, lines = pipeline.explain(cbox, cbox.queries[0])
    assert lines[-2:] == ["__bot <= B   [bound]",
                          "A <= B   [trans: A <= __bot; __bot <= B]"]
    assert _bounds_popped_one_by_one(report.combine.result.solver) == 0
    in_block = sum(orderings)
    pipeline.classify(cbox)
    assert (in_block, sum(orderings) - in_block) == (7, 5)
