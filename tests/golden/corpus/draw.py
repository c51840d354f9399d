"""Draw the identity corpus's inputs and write them out as text.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/golden/corpus/draw.py

The inputs come from the benchmark's fixed pools (bench/workloads.py)
and from `randgen.normal_cbox`.  Some of randgen's draws depend on string
hashing, so the drawing is pinned to PYTHONHASHSEED=0, and the inputs are
kept as text: the corpus test reads the text and never draws.  Each group
is one file; an entry starts with a line `=== <name>`.
"""

from __future__ import annotations

import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import conftest  # noqa: E402
import workloads  # noqa: E402
from loctame import randgen  # noqa: E402
from loctame.syntax import render_cbox  # noqa: E402

EXTENDED, NUMERIC, NORMAL, SPLITS = 60, 60, 30, 60
NORMAL_SEED = "corpus:normal"


def spread(pool: list, n: int) -> list[tuple[int, object]]:
    """n members of a pool, evenly spaced, with their pool indices."""
    return [(i * len(pool) // n, pool[i * len(pool) // n]) for i in range(n)]


def write(name: str, entries: list[tuple[str, str]]) -> None:
    parts = [f"=== {key}\n{text}" for key, text in entries]
    (HERE / f"{name}.txt").write_text("".join(parts), encoding="utf-8")


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run with PYTHONHASHSEED=0", file=sys.stderr)
        return 2
    write("fixtures", [(name.lower(), getattr(conftest, f"{name}_TEXT"))
                       for name in ("DEFS", "ANATOMY", "FREIGHT", "ROUTES",
                                    "GUARDS")])
    write("extended", [(f"pool-{i}", render_cbox(cbox)) for i, cbox
                       in spread(workloads.extended_pool(), EXTENDED)])
    write("numeric", [(f"pool-{i}", render_cbox(cbox)) for i, cbox
                      in spread(workloads.numeric_pool(), NUMERIC)])
    rng = random.Random(NORMAL_SEED)
    write("normal", [(f"draw-{i}", render_cbox(randgen.normal_cbox(rng)))
                     for i in range(NORMAL)])
    write("splits", [(f"pool-{i}", workloads.render_split(inp)) for i, inp
                     in spread(workloads.interpolation_pool(), SPLITS)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
