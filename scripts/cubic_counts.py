#!/usr/bin/env python3
"""Tabulate how the instantiated clause set scales with CBox size.

For each size n the script builds the linear scaling family, runs the
reduction up to purification, and reports the exact instantiate-mode
clause count together with its cubic coefficient count/n^3 and the ratio
to the previous (half-size) family.
"""

from __future__ import annotations

import argparse
import time

from loctame import algebra as alg
from loctame import randgen
from loctame import reduce as red


def count_for(n: int) -> int:
    cbox = randgen.scaling_family(n)
    prob = red.translate(cbox, None)
    psi = alg.psi_closure(alg.goal_seeds(prob.goal), prob.axioms)
    purified = red.flatten_purify(
        alg.instantiate(prob.axioms, psi), prob.goal, prob)
    return red.sl_clause_count(purified)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[50, 100, 200, 400],
                        help="family sizes to measure")
    args = parser.parse_args(argv)

    print(f"{'n':>6} {'clauses':>14} {'count/n^3':>10} {'ratio':>7} {'secs':>6}")
    prev: tuple[int, int] | None = None
    for n in args.sizes:
        start = time.perf_counter()
        count = count_for(n)
        secs = time.perf_counter() - start
        ratio = f"{count / prev[1]:.2f}" if prev and prev[0] * 2 == n else "-"
        print(f"{n:>6} {count:>14} {count / n**3:>10.4f} {ratio:>7} {secs:>6.2f}")
        prev = (n, count)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
