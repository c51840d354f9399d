"""Command-line front end.

Subcommands:

    check        evaluate every `?` query of a file
    classify     the full name-against-name subsumption matrix
    explain      print a derivation for a query
    solve        run the Horn solver on a raw reduction dump
    interpolate  ground interpolant for an A:/B: split file
    cross-check  compare the pipeline against the independent oracles

Exit codes: 0 when everything holds / agrees, 1 when some query fails
or a disagreement is found, 2 on usage, parse, or check errors, and 3 on
an internal error (a fault in loctame, reported in one line).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Optional

from . import hornsat, pipeline
from . import reduce as red
from .syntax import (CBox, CheckError, Concept, LoctameError, Name, Query,
                     parse_cbox, parse_interpolation_input)

# a module that only one command uses (the oracles and generators of
# cross-check, interpolation, json) is imported inside that command, so
# that every command starts up with only the modules it runs
if TYPE_CHECKING:
    from . import oracle


def _load(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError:
        name = "standard input" if path == "-" else path
        raise LoctameError(f"{name} is not UTF-8 text") from None


def _parse_query(text: str) -> Query:
    stripped = text.strip()
    if not stripped.startswith("?"):
        stripped = "? " + stripped
    box = parse_cbox(stripped + "\n")
    if len(box.queries) != 1 or box != CBox(queries=box.queries):
        raise CheckError(f"expected a single query, got {text!r}")
    return box.queries[0]


# ---------------------------------------------------------------------------
# output shared by the commands
# ---------------------------------------------------------------------------

# a command returns its exit status and its output, so that the status is
# decided before anything is written
Outcome = tuple[int, str]


def _dumps(report: pipeline.Report, args: argparse.Namespace,
           header: Optional[str] = None) -> str:
    out = f"# {header}\n" if header is not None else ""
    if args.emit_psi:
        out += pipeline.emit_psi(report)
    if args.emit_reduction:
        out += pipeline.emit_reduction(report)
    return out


def _json(body) -> str:
    import json
    return json.dumps(body, indent=2) + "\n"


def _lines(lines: Iterable[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# check and explain
# ---------------------------------------------------------------------------

def _decide(args: argparse.Namespace, cbox: CBox,
            explain: bool = False) -> Outcome:
    """Decide every query of the CBox; `explain` adds the derivations."""
    if not cbox.queries:
        raise CheckError("nothing to explain: pass a query or add `?` lines"
                         if explain else
                         "the file has no queries (add `? C sub D` lines)")
    reports = pipeline.check_queries(cbox, cbox.queries, mode=args.mode,
                                     normalize=args.normalize)
    derivations = [pipeline.derivation(r) if explain else []
                   for r in reports]
    status = 0 if all(r.subsumed for r in reports) else 1
    if args.json:
        return status, _json([
            {**pipeline.json_report(r),
             **({"derivation": lines} if explain else {})}
            for r, lines in zip(reports, derivations)])
    if args.emit_psi or args.emit_reduction:
        many = len(reports) > 1
        return status, "".join(_dumps(r, args, str(r.query) if many else None)
                               for r in reports)
    out = []
    for r, lines in zip(reports, derivations):
        out.append(f"{r.query}: {'subsumed' if r.subsumed else 'not subsumed'}")
        out += [f"  {line}" for line in lines]
    return status, _lines(out)


def cmd_check(args: argparse.Namespace) -> Outcome:
    return _decide(args, parse_cbox(_load(args.file)))


def cmd_explain(args: argparse.Namespace) -> Outcome:
    cbox = parse_cbox(_load(args.file))
    if args.query is not None:
        cbox = replace(cbox, queries=(_parse_query(args.query),))
    return _decide(args, cbox, explain=True)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(args: argparse.Namespace) -> Outcome:
    cbox = parse_cbox(_load(args.file))
    cls = pipeline.classify(cbox, mode=args.mode, normalize=args.normalize)
    names = sorted(cls.names)
    if args.json:
        body = pipeline.json_report(cls.report)
        body["names"] = names
        body["subsumers"] = {a: sorted(b for b in names if cls.holds(a, b))
                             for a in names}
        return 0, _json(body)
    if args.emit_psi or args.emit_reduction:
        return 0, _dumps(cls.report, args)
    pairs = sorted(cls.pairs())
    return 0, _lines([*(f"{a} sub {b}" for a, b in pairs),
                      f"# {len(names)} names, {len(pairs)} proper subsumptions"])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> Outcome:
    sl = red.parse_reduction(_load(args.file))
    # a dump does not say which mode made it: a `chase` dump leaves
    # transitivity to the solver, and an `instantiate` dump's transitivity
    # clauses are redundant under it
    result = hornsat.solve_problem(sl.facts, sl.clauses, sl.goal)
    if result.sat:
        hornsat.model_check(result, sl.facts, sl.clauses, sl.goal)
    status = 1 if sl.goal is not None and result.sat else 0
    model = sorted(result.model())
    if args.json:
        return status, _json({
            "verdict": "sat" if result.sat else "goal-derived",
            "goal": f"{sl.goal[0]} <= {sl.goal[1]}" if sl.goal else None,
            "atoms": len(model),
        })
    if sl.goal is None:
        return status, _lines(f"{a} <= {b}" for a, b in model)
    goal = f"{sl.goal[0]} <= {sl.goal[1]}"
    if result.sat:
        return status, _lines([f"goal not derived: {goal}"])
    steps = pipeline.render_steps(result.solver.trace(sl.goal),
                                  lambda a: f"{a[0]} <= {a[1]}")
    return status, _lines([f"goal derived: {goal}",
                           *(f"  {line}" for line in steps)])


# ---------------------------------------------------------------------------
# interpolate
# ---------------------------------------------------------------------------

def cmd_interpolate(args: argparse.Namespace) -> Outcome:
    from .interpolate import NotUnsat, interpolate_input
    inp = parse_interpolation_input(_load(args.file))
    try:
        result, gcis = interpolate_input(inp)
    except NotUnsat as exc:
        print(f"no interpolant: {exc}", file=sys.stderr)
        return 1, ""
    if args.json:
        return 0, _json({
            "interpolant": [str(g) for g in gcis],
            "iterations": result.iterations,
            "ops_shared": result.ops_shared,
            "shared_names": sorted(n for n in result.shared_consts
                                   if not n.startswith("__")),
            "micros_per_stage": result.micros,
            "stats": result.stats,
        })
    return 0, _lines([str(g) for g in gcis] if gcis else ["top"])


# ---------------------------------------------------------------------------
# cross-check
# ---------------------------------------------------------------------------

def _completion(subs: dict[str, frozenset[str]], lhs: Concept,
                rhs: Concept) -> Optional[bool]:
    """Completion's verdict on `lhs sub rhs`; None unless both sides are
    names, top or bot."""
    from . import oracle
    try:
        a, b = oracle._atomic(lhs), oracle._atomic(rhs)
    except oracle.UnsupportedConstruct:
        return None
    below = subs.get(a, frozenset())
    return b in below or oracle.BOT_KEY in below


def _word(held: bool) -> str:
    return "subsumed" if held else "not-subsumed"


@dataclass
class _Tally:
    """What a cross-check run has checked, written and found failing."""
    checks: int = 0
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def judge(self, label: str, chase: bool, inst: bool,
              completion: Optional[bool],
              search: oracle.CounterModel | oracle.SearchCut | None,
              verbose: bool) -> bool:
        """Decide whether one query's verdicts disagree, for every source.
        Returns whether they agree.  A quiet check writes its line only on
        a failure or a cut search."""
        from . import oracle
        self.checks += 1
        parts = [f"chase={_word(chase)}", f"instantiate={_word(inst)}"]
        bad = []
        if chase != inst:
            bad.append("the two modes disagree")
        if completion is not None:
            parts.append(f"completion={_word(completion)}")
            if completion != chase:
                bad.append("completion disagrees")
        cut = isinstance(search, oracle.SearchCut)
        if cut:
            parts.append(str(search))
        elif search is not None:
            parts.append(f"countermodel of size {search.size}")
            if chase:
                bad.append("a countermodel refutes the subsumed verdict")
        if bad:
            self.failures.append(f"{label}: {'; '.join(bad)}")
        if bad or cut or verbose:
            status = f"FAIL: {'; '.join(bad)}" if bad else "OK"
            self.lines.append(f"{label}: {', '.join(parts)} -- {status}")
        return not bad


def _cross_check_queries(cbox: CBox, tally: _Tally,
                         seed: Optional[int] = None) -> None:
    """Cross-check every query of a file, or of the guarded sample drawn
    from `seed`: the two modes, completion where both sides are names and
    the CBox is in normal form, and the countermodel search."""
    from . import oracle
    try:
        subs = oracle.completion_classify(cbox)
    except LoctameError:
        subs = None
    for q in cbox.queries:
        chase = pipeline.subsumes(cbox, q, mode=red.CHASE)
        inst = pipeline.subsumes(cbox, q, mode=red.INSTANTIATE)
        completion = (_completion(subs, q.lhs, q.rhs) if subs is not None
                      else None)
        try:
            search = oracle.bounded_model_search(cbox, q, max_size=3)
        except oracle.SearchCut as exc:
            search = exc
        except LoctameError:
            search = None
        tally.judge(str(q) if seed is None else f"seed {seed} (guarded)",
                    chase, inst, completion, search, verbose=seed is None)


def _check_sample(seed: int, tally: _Tally) -> None:
    """One random instance against the oracles.  A guarded sample is
    checked as a file with its one query; a normal one pair by pair off
    two classifications, up to the first failure."""
    import random

    from . import oracle, randgen
    rng = random.Random(seed)
    if seed % 5 == 4:
        cbox = randgen.extended_cbox(rng)
        query = randgen.random_query(rng, cbox)
        _cross_check_queries(replace(cbox, queries=(query,)), tally, seed)
        return

    cbox = randgen.normal_cbox(rng)
    subs = oracle.completion_classify(cbox)
    chase = pipeline.classify(cbox, mode=red.CHASE)
    inst = pipeline.classify(cbox, mode=red.INSTANTIATE)
    for a, b in itertools.product(chase.names, repeat=2):
        completion = _completion(subs, Name(a), Name(b))
        if not tally.judge(f"seed {seed} ({a} sub {b})", chase.holds(a, b),
                           inst.holds(a, b), completion, None, verbose=False):
            return


def cmd_cross_check(args: argparse.Namespace) -> Outcome:
    if args.samples < 0:
        raise CheckError(f"--samples must be 0 or more, got {args.samples}")
    tally = _Tally()
    if args.file is not None:
        _cross_check_queries(parse_cbox(_load(args.file)), tally)
    for i in range(args.samples):
        _check_sample(args.seed + i, tally)
    if tally.checks == 0:
        raise CheckError("nothing to cross-check: pass a file with queries "
                         "or --samples N")
    status = 1 if tally.failures else 0
    if args.json:
        return status, _json({
            "checks": tally.checks,
            "samples": args.samples,
            "failures": tally.failures,
        })
    verdict = "FAIL" if tally.failures else "PASS"
    return status, _lines([*tally.lines,
                           f"cross-check {verdict}: {tally.checks} checks, "
                           f"{len(tally.failures)} failures"])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, mode: bool = True,
                emit: bool = False) -> None:
    if mode:
        sub.add_argument("--mode", choices=(red.INSTANTIATE, red.CHASE),
                         default=red.CHASE,
                         help="materialize the lattice theory, or chase it "
                              "inside the solver (default)")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout")
    if emit:
        sub.add_argument("--normalize", action="store_true",
                         help="rewrite to normal form first")
        sub.add_argument("--emit-psi", action="store_true",
                         help="print the closure term set instead of verdicts")
        sub.add_argument("--emit-reduction", action="store_true",
                         help="print the ground Horn problem instead of "
                              "verdicts (solve reads this format)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loctame",
        description="subsumption checking and ground interpolation for "
                    "EL-family concept boxes")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="evaluate every `?` query of a file")
    p.add_argument("file", help="input file, or - for stdin")
    _add_common(p, emit=True)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("classify", help="all name-against-name subsumptions")
    p.add_argument("file", help="input file, or - for stdin")
    _add_common(p, emit=True)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("explain", help="print a derivation for a query")
    p.add_argument("file", help="input file, or - for stdin")
    p.add_argument("query", nargs="?",
                   help="a `C sub D` question (default: the file's queries)")
    _add_common(p, emit=True)
    p.set_defaults(func=cmd_explain)

    p = subs.add_parser("solve", help="run the solver on a reduction dump")
    p.add_argument("file", help="fact/clause/goal lines, or - for stdin")
    _add_common(p, mode=False)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("interpolate",
                        help="ground interpolant for an A:/B: split file")
    p.add_argument("file", help="input file, or - for stdin")
    _add_common(p, mode=False)
    p.set_defaults(func=cmd_interpolate)

    p = subs.add_parser("cross-check",
                        help="compare the pipeline against the oracles")
    p.add_argument("file", nargs="?",
                   help="optional file whose queries are cross-checked")
    p.add_argument("--samples", type=int, default=0,
                   help="also run this many random instances")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the first random instance")
    _add_common(p, mode=False)
    p.set_defaults(func=cmd_cross_check)

    return parser


EXIT_INTERNAL = 3


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, out = args.func(args)
    except (LoctameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else is a fault in loctame, not in the input; it must
        # not pass for exit 1 ("a query fails")
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: not an input error.  What is still
        # buffered goes to devnull, so the flush at exit does not raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
