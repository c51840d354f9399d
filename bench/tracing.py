"""Per-layer spans and counters, recorded from outside loctame.

The tracer replaces the module attributes that loctame's own modules look
up at call time (`alg.psi_closure`, `red.sl_instantiate`, ...) with wrappers
that record a span per call.  Nothing inside `src/` is changed; `restore`
puts the original functions back.

A span is (name, start, end, parent span index, operation id).  A layer's
self time is its spans' duration minus the part covered by child spans.
Work counters are read, after each operation has been timed, from the
objects the wrapped functions returned.
"""

from __future__ import annotations

import time
from collections import Counter

from loctame import algebra, concdom, hornsat, reduce, syntax
from loctame import interpolate as interp

# (owner, attribute, span name, layer whose self time it adds to)
WRAPPED = (
    (syntax, "parse_cbox", "syntax.parse_cbox", "syntax.parse_s"),
    (reduce, "translate", "reduce.translate", "reduce.translate_s"),
    (algebra, "psi_closure", "algebra.psi_closure", "algebra.closure_s"),
    (algebra, "instantiate", "algebra.instantiate", "algebra.instantiate_s"),
    (reduce, "flatten_purify", "reduce.flatten_purify", "reduce.purify_s"),
    (concdom, "combine_solve", "concdom.combine_solve", "hornsat.build_s"),
    (concdom, "split_problem", "concdom.split_problem", "concdom.split_s"),
    (concdom, "num_entails", "concdom.num_entails", "concdom.num_entails_s"),
    (reduce, "sl_instantiate", "reduce.sl_instantiate", "reduce.sl_instantiate_s"),
    (hornsat, "solve_problem", "hornsat.solve_problem", "hornsat.build_s"),
    (hornsat.HornSolver, "solve", "HornSolver.solve", "hornsat.propagate_s"),
    (hornsat.HornSolver, "trace", "HornSolver.trace", "hornsat.trace_s"),
    (interp, "interpolate", "interpolate.interpolate", "interpolate.self_s"),
    (interp, "entails", "interpolate.entails", "interpolate.self_s"),
)

SELF_TIMES = tuple(dict.fromkeys(layer for *_, layer in WRAPPED))

COUNTS = (
    "algebra.psi_terms", "algebra.instances", "algebra.instances.mon_eq",
    "reduce.proxies", "reduce.sl_clauses", "reduce.sl_clauses.meet_intro",
    "hornsat.atoms_interned", "hornsat.atoms_derived", "hornsat.clauses",
    "hornsat.premise_occurrences", "hornsat.decrements",
    "hornsat.fired_clauses", "hornsat.trans_steps", "hornsat.trace_steps",
    "concdom.num_entails_calls", "concdom.exchange_rounds",
    "concdom.movements", "interpolate.entails_calls",
    "interpolate.iterations", "interpolate.solver_runs",
    "interpolate.interpolant_atoms",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.self_s: Counter = Counter()
        self.verify_s = 0.0
        self.pass_counts: list[Counter] = []   # work counters, one per pass
        self.counts: Counter = Counter()
        self.op = -1
        # open spans: [span name, start, time covered by children, index]
        self._stack: list[list] = []
        self._returned: list[tuple[str, object]] = []
        self._solvers: dict[int, hornsat.HornSolver] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._interpolating = 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, layer in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        stack = self._stack
        spans = self.spans
        returned = self._returned
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            if name == "HornSolver.solve":
                self._solvers[id(args[0])] = args[0]
                if self._interpolating:
                    self.counts["interpolate.solver_runs"] += 1
            elif name == "interpolate.interpolate":
                self._interpolating += 1
            frame = [name, clock(), 0.0, len(spans)]
            spans.append(None)   # reserve the index; filled in below
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                spans[frame[3]] = (name, frame[1], end, parent, self.op)
                if name == "interpolate.interpolate":
                    self._interpolating -= 1
                elif name == "interpolate.entails":
                    self.verify_s += duration
            returned.append((name, result))
            return result

        return traced

    # -- counters ----------------------------------------------------------------

    def begin_pass(self) -> None:
        self.counts = Counter()
        self.pass_counts.append(self.counts)

    def begin_op(self, op: int) -> None:
        self.op = op

    def end_op(self) -> None:
        """Read the work counters of the operation just timed."""
        c = self.counts
        for name, value in self._returned:
            if name == "algebra.psi_closure":
                c["algebra.psi_terms"] += len(value)
            elif name == "algebra.instantiate":
                c["algebra.instances"] += len(value)
                c["algebra.instances.mon_eq"] += sum(
                    1 for inst in value if inst.tag.startswith("Mon="))
            elif name == "reduce.flatten_purify":
                c["reduce.proxies"] += len(value.defs)
            elif name == "reduce.sl_instantiate":
                c["reduce.sl_clauses"] += len(value.clauses)
                c["reduce.sl_clauses.meet_intro"] += sum(
                    1 for _, _, tag in value.clauses if tag == "meet-intro")
            elif name == "concdom.combine_solve":
                c["concdom.exchange_rounds"] += value.iterations
                c["concdom.movements"] += len(value.movements)
            elif name == "concdom.num_entails":
                c["concdom.num_entails_calls"] += 1
            elif name == "HornSolver.trace":
                c["hornsat.trace_steps"] += len(value)
            elif name == "interpolate.interpolate":
                c["interpolate.iterations"] += value.iterations
                c["interpolate.interpolant_atoms"] += len(value.interpolant)
            elif name == "interpolate.entails":
                c["interpolate.entails_calls"] += 1
        for solver in self._solvers.values():
            c["hornsat.atoms_interned"] += len(solver.atom_keys)
            c["hornsat.atoms_derived"] += len(solver.reasons)
            c["hornsat.clauses"] += len(solver.clauses)
            c["hornsat.premise_occurrences"] += solver.stats.premise_occurrences
            c["hornsat.decrements"] += solver.stats.decrements
            c["hornsat.fired_clauses"] += solver.stats.fired_clauses
            c["hornsat.trans_steps"] += solver.stats.trans_steps
        self._returned.clear()
        self._solvers.clear()
