"""The identity corpus: outputs that any change to the reduction's data
structures must leave byte for byte the same.

The inputs are text under golden/corpus/ (see draw.py there): the five
fixtures, 60 extended and 60 numeric pool queries, 30 normal-form
classifications and 60 interpolation splits.  digests.json holds the
SHA-256 of each output: per query and mode the verdict, the explain lines,
the `--emit-reduction` text, psi_size and clause_count; per
classification and mode the pairs, psi_size and clause_count; per split
the interpolant text and its iterations.  To record them afresh:

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tests/test_golden_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from loctame import pipeline
from loctame import interpolate as interp
from loctame import reduce as red
from loctame.syntax import LoctameError, parse_cbox, parse_interpolation_input

CORPUS = Path(__file__).resolve().parent / "golden" / "corpus"
DIGESTS = CORPUS / "digests.json"
QUERY_GROUPS = ("fixtures", "extended", "numeric")
MODES = (red.CHASE, red.INSTANTIATE)


def read_group(name: str) -> list[tuple[str, str]]:
    """The (name, text) entries of one corpus file."""
    entries = []
    for chunk in (CORPUS / f"{name}.txt").read_text(encoding="utf-8") \
            .split("=== ")[1:]:
        key, text = chunk.split("\n", 1)
        entries.append((key, text))
    return entries


def _digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value)
    return hashlib.sha256(text.encode()).hexdigest()


def _report_outputs(report: pipeline.Report) -> dict:
    return {"psi_size": len(report.psi), "clause_count": report.clause_count}


def corpus_outputs() -> dict[str, str]:
    """Every output of the corpus, keyed group/entry/mode/output."""
    out: dict[str, str] = {}
    for group in QUERY_GROUPS:
        for key, text in read_group(group):
            cbox = parse_cbox(text)
            for mode in MODES:
                at = f"{group}/{key}/{mode}"
                report, lines = pipeline.explain(cbox, cbox.queries[0], mode)
                out[f"{at}/verdict"] = str(report.subsumed)
                out[f"{at}/explain"] = "\n".join(lines)
                out[f"{at}/emit-reduction"] = pipeline.emit_reduction(report)
                out[f"{at}/sizes"] = json.dumps(_report_outputs(report))
    for key, text in read_group("normal"):
        cbox = parse_cbox(text)
        for mode in MODES:
            at = f"normal/{key}/{mode}"
            cls = pipeline.classify(cbox, mode)
            out[f"{at}/pairs"] = json.dumps(sorted(cls.pairs()))
            out[f"{at}/sizes"] = json.dumps(_report_outputs(cls.report))
    for key, text in read_group("splits"):
        try:
            result, gcis = interp.interpolate_input(
                parse_interpolation_input(text))
        except LoctameError as exc:
            value = f"{type(exc).__name__}: {exc}"
        else:
            value = json.dumps({"interpolant": [str(g) for g in gcis],
                                "iterations": result.iterations})
        out[f"splits/{key}/interpolant"] = value
    return out


def corpus_digests() -> dict[str, str]:
    return {k: _digest(v) for k, v in corpus_outputs().items()}


def test_corpus_outputs_are_unchanged():
    want = json.loads(DIGESTS.read_text())
    got = corpus_digests()
    assert got.keys() == want.keys()
    changed = [k for k in want if got[k] != want[k]]
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(corpus_digests(), indent=1, sort_keys=True)
                       + "\n")
    sys.exit(0)
