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
import json
import os
import random
import sys
from dataclasses import replace
from typing import Iterable, Optional

from . import hornsat, oracle, pipeline, randgen
from . import reduce as red
from .interpolate import NotUnsat, interpolate_input
from .syntax import (Bot, CheckError, LoctameError, Name, Query, Top,
                     parse_cbox, parse_interpolation_input)


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
    if len(box.queries) != 1 or box.gcis or box.role_incls or box.roles:
        raise CheckError(f"expected a single query, got {text!r}")
    return box.queries[0]


# ---------------------------------------------------------------------------
# output shared by the commands
# ---------------------------------------------------------------------------

# a command returns its exit status and its output, so that the status is
# decided before anything is written
Outcome = tuple[int, str]


def _wants_dump(args: argparse.Namespace) -> bool:
    return args.emit_psi or args.emit_reduction


def _dumps(report: pipeline.Report, args: argparse.Namespace,
           header: Optional[str] = None) -> str:
    out = f"# {header}\n" if header is not None else ""
    if args.emit_psi:
        out += pipeline.emit_psi(report)
    if args.emit_reduction:
        out += pipeline.emit_reduction(report)
    return out


def _json(body) -> str:
    return json.dumps(body, indent=2) + "\n"


def _lines(lines: Iterable[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> Outcome:
    cbox = parse_cbox(_load(args.file))
    if not cbox.queries:
        raise CheckError("the file has no queries (add `? C sub D` lines)")
    reports = [pipeline.check_subsumption(cbox, q, mode=args.mode,
                                          normalize=args.normalize)
               for q in cbox.queries]
    status = 0 if all(r.subsumed for r in reports) else 1
    if args.json:
        return status, _json([pipeline.json_report(r) for r in reports])
    if _wants_dump(args):
        many = len(reports) > 1
        return status, "".join(_dumps(r, args, str(r.query) if many else None)
                               for r in reports)
    return status, _lines(
        f"{r.query}: {'subsumed' if r.subsumed else 'not subsumed'}"
        for r in reports)


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
    if _wants_dump(args):
        return 0, _dumps(cls.report, args)
    pairs = sorted(cls.pairs())
    return 0, _lines([*(f"{a} sub {b}" for a, b in pairs),
                      f"# {len(names)} names, {len(pairs)} proper subsumptions"])


# ---------------------------------------------------------------------------
# explain
# ---------------------------------------------------------------------------

def cmd_explain(args: argparse.Namespace) -> Outcome:
    cbox = parse_cbox(_load(args.file))
    if args.query is not None:
        queries = [_parse_query(args.query)]
        cbox = replace(cbox, queries=tuple(queries))
    else:
        queries = list(cbox.queries)
    if not queries:
        raise CheckError("nothing to explain: pass a query or add `?` lines")

    explained = [pipeline.explain(cbox, q, mode=args.mode) for q in queries]
    status = 0 if all(report.subsumed for report, _ in explained) else 1
    if args.json:
        return status, _json([{**pipeline.json_report(report),
                               "derivation": lines}
                              for report, lines in explained])
    if _wants_dump(args):
        many = len(queries) > 1
        return status, "".join(_dumps(report, args, str(q) if many else None)
                               for q, (report, _) in zip(queries, explained))
    out = []
    for q, (report, lines) in zip(queries, explained):
        out.append(f"{q}: {'subsumed' if report.subsumed else 'not subsumed'}")
        out += [f"  {line}" for line in lines]
    return status, _lines(out)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args: argparse.Namespace) -> Outcome:
    sl = red.parse_reduction(_load(args.file))
    # a dump does not say which mode made it: a `chase` dump leaves
    # transitivity to the solver, and an `instantiate` dump's transitivity
    # clauses are redundant under it
    result = hornsat.solve_problem(sl.facts, sl.clauses, sl.goal,
                                   transitive=True)
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

def _atomic_key(c) -> Optional[str]:
    if isinstance(c, Name):
        return c.name
    if isinstance(c, Top):
        return oracle.TOP_KEY
    if isinstance(c, Bot):
        return oracle.BOT_KEY
    return None


def _completion_holds(subs: dict[str, frozenset[str]], a: str, b: str) -> bool:
    below = subs.get(a, frozenset())
    return b in below or oracle.BOT_KEY in below


def _check_file_queries(cbox, failures: list[str], lines: list[str]) -> int:
    """Cross-check every query of a parsed file; returns the check count."""
    try:
        subs = oracle.completion_classify(cbox)
    except LoctameError:
        subs = None
    checks = 0
    for q in cbox.queries:
        checks += 1
        chase = pipeline.subsumes(cbox, q, mode=red.CHASE)
        inst = pipeline.subsumes(cbox, q, mode=red.INSTANTIATE)
        parts = [f"chase={'subsumed' if chase else 'not-subsumed'}",
                 f"instantiate={'subsumed' if inst else 'not-subsumed'}"]
        bad = []
        if chase != inst:
            bad.append("the two modes disagree")
        a, b = _atomic_key(q.lhs), _atomic_key(q.rhs)
        if subs is not None and a is not None and b is not None:
            want = _completion_holds(subs, a, b)
            parts.append(f"completion={'subsumed' if want else 'not-subsumed'}")
            if want != chase:
                bad.append("completion disagrees")
        try:
            model = oracle.bounded_model_search(cbox, q, max_size=3)
        except oracle.SearchCut as exc:
            parts.append(str(exc))
        except LoctameError:
            pass
        else:
            if model is not None:
                parts.append(f"countermodel of size {model.size}")
                if chase:
                    bad.append("a countermodel refutes the subsumed verdict")
        status = "FAIL: " + "; ".join(bad) if bad else "OK"
        lines.append(f"{q}: {', '.join(parts)} -- {status}")
        if bad:
            failures.append(f"{q}: {'; '.join(bad)}")
    return checks


def _check_sample(seed: int, failures: list[str], lines: list[str]) -> int:
    """One random instance against the oracles; returns the pair count."""
    rng = random.Random(seed)
    if seed % 5 == 4:
        cbox = randgen.extended_cbox(rng)
        query = randgen.random_query(rng, cbox)
        chase = pipeline.subsumes(cbox, query, mode=red.CHASE)
        inst = pipeline.subsumes(cbox, query, mode=red.INSTANTIATE)
        bad = []
        if chase != inst:
            bad.append("the two modes disagree")
        if chase:
            try:
                if oracle.bounded_model_search(cbox, query, 3) is not None:
                    bad.append("a countermodel refutes the subsumed verdict")
            except oracle.SearchCut as exc:
                lines.append(f"seed {seed} (guarded): {exc}")
        if bad:
            failures.append(f"seed {seed}: {'; '.join(bad)}")
            lines.append(f"seed {seed} (guarded): FAIL {'; '.join(bad)}")
        return 1

    cbox = randgen.normal_cbox(rng)
    subs = oracle.completion_classify(cbox)
    chase = pipeline.classify(cbox, mode=red.CHASE)
    inst = pipeline.classify(cbox, mode=red.INSTANTIATE)
    checked = 0
    for a in chase.names:
        for b in chase.names:
            checked += 1
            got = chase.holds(a, b)
            if got != inst.holds(a, b):
                failures.append(f"seed {seed}: modes split on {a} sub {b}")
                lines.append(f"seed {seed}: FAIL modes split on {a} sub {b}")
                return checked
            if got != _completion_holds(subs, a, b):
                failures.append(f"seed {seed}: {a} sub {b} is "
                                f"{'derivable' if got else 'underivable'} in "
                                "the pipeline but not for completion")
                lines.append(f"seed {seed}: FAIL completion split "
                             f"on {a} sub {b}")
                return checked
    return checked


def cmd_cross_check(args: argparse.Namespace) -> Outcome:
    failures: list[str] = []
    lines: list[str] = []
    checks = 0
    if args.file is not None:
        checks += _check_file_queries(parse_cbox(_load(args.file)),
                                      failures, lines)
    for i in range(args.samples):
        checks += _check_sample(args.seed + i, failures, lines)
    if checks == 0:
        raise CheckError("nothing to cross-check: pass a file with queries "
                         "or --samples N")
    status = 1 if failures else 0
    if args.json:
        return status, _json({
            "checks": checks,
            "samples": args.samples,
            "failures": failures,
        })
    verdict = "FAIL" if failures else "PASS"
    return status, _lines([*lines, f"cross-check {verdict}: {checks} checks, "
                                   f"{len(failures)} failures"])


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
