"""Record the reference answers of the query pools that query-mix runs.

    python3 bench/make_expected.py                # both pools
    python3 bench/make_expected.py extended       # one of them

Run from the root of the checkout.  Each entry starts with the sha-256
prefix of the query text, so a changed generator is caught.

- numeric: the oracles do not decide numeric queries, so every entry is
  decided in both `chase` and `instantiate` mode, and the file is written
  only if the two agree on every entry.  Entry: [digest, subsumed].
- extended: `oracle.bounded_model_search` up to size 3 for every entry.
  Where that finds no countermodel, the size-4 search, which can take far
  longer, is run only when loctame answers `not subsumed`, because only
  such a verdict needs it.  A search that runs longer than SEARCH_LIMIT_S
  is given up.  Entry: [digest, countermodel], where countermodel is
  "<=3" or "4" (the size of one found), or "none<=2", "none<=3" or
  "none<=4" (none up to that size).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from loctame import pipeline  # noqa: E402
from loctame.syntax import render_cbox  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _write(path: Path, seed: int, entries: list[list]) -> None:
    path.parent.mkdir(exist_ok=True)
    rows = ",\n".join(json.dumps(e) for e in entries)
    path.write_text(f'{{"pool_seed": {seed}, "entries": [\n{rows}\n]}}\n')
    print(f"wrote {len(entries)} entries to {path}")


def record_numeric() -> int:
    entries = []
    for i, cbox in enumerate(workloads.numeric_pool()):
        query = cbox.queries[0]
        chase = pipeline.subsumes(cbox, query, mode="chase")
        inst = pipeline.subsumes(cbox, query, mode="instantiate")
        if chase != inst:
            print(f"numeric pool entry {i}: chase and instantiate disagree",
                  file=sys.stderr)
            return 1
        entries.append([workloads.text_digest(render_cbox(cbox)), chase])
    _write(workloads.EXPECTED_NUMERIC, workloads.NUMERIC_POOL_SEED, entries)
    return 0


# a countermodel search that runs longer is given up
SEARCH_LIMIT_S = 600


def _extended_answer(cbox) -> str:
    up_to_3 = reference.countermodel_exists(cbox, 3, SEARCH_LIMIT_S)
    if up_to_3 is None:
        return "<=3" if reference.countermodel_exists(cbox, 2, SEARCH_LIMIT_S) else "none<=2"
    if up_to_3:
        return "<=3"
    if pipeline.subsumes(cbox, cbox.queries[0]):
        return "none<=3"
    up_to_4 = reference.countermodel_exists(cbox, 4, SEARCH_LIMIT_S)
    return {None: "none<=3", True: "4", False: "none<=4"}[up_to_4]


def record_extended() -> int:
    entries = []
    for cbox in workloads.extended_pool():
        entries.append([workloads.text_digest(render_cbox(cbox)),
                        _extended_answer(cbox)])
    _write(workloads.EXPECTED_EXTENDED, workloads.EXTENDED_POOL_SEED, entries)
    return 0


def main(argv: list[str]) -> int:
    run.fix_string_hashing()
    pools = {"numeric": record_numeric, "extended": record_extended}
    for name in argv or pools:
        if pools[name]():
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
