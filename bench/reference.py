"""Reference checks for the verdicts loctame returned.

None of these answers comes from the code being timed:

- classifications are compared with `oracle.completion_classify`;
- an extended `check` that is not subsumed must have a countermodel from
  `oracle.bounded_model_search` (domains up to 3, then 4), and a subsumed
  one must have none up to 3; the searches for the extended pool are
  recorded in expected/extended_pool.json by make_expected.py;
- numeric `check` verdicts are compared with expected/numeric_pool.json,
  made once by make_expected.py (the oracles do not decide numerics);
- an interpolant must use shared names only, each of its inclusions must
  follow from the A side, and together with the B side it must entail the
  refuted inclusion; both entailments are decided by the completion
  oracle after loctame's structural normalization, which no timed
  operation runs.

Each check returns None when the verdict is right, or a reason.
"""

from __future__ import annotations

import functools
import signal
from pathlib import Path
from typing import Optional

from loctame import oracle
from loctame.normalize import NotNormalizable, normalize
from loctame.syntax import CBox, Concept, GCI, LoctameError, Name, parse_cbox

import workloads


def _holds(subs: dict[str, frozenset[str]], a: str, b: str) -> bool:
    below = subs.get(a, frozenset())
    return b in below or oracle.BOT_KEY in below


def check_classify(cbox: CBox, pairs: list) -> Optional[str]:
    subs = oracle.completion_classify(cbox)
    names = sorted({n for g in cbox.gcis for n in workloads.names_in(g)})
    want = {(a, b) for a in names for b in names
            if a != b and _holds(subs, a, b)}
    got = {tuple(p) for p in pairs}
    if got == want:
        return None
    missing, extra = sorted(want - got), sorted(got - want)
    return (f"classification differs from completion: "
            f"missing {missing[:3]}, extra {extra[:3]}")


class StaleRecord(Exception):
    """A recorded pool entry does not match the text it was recorded for."""


@functools.cache
def _recorded(path: Path, seed: int, size: int) -> list[list]:
    return workloads.load_expected(path, seed, size)


def _entry(path: Path, seed: int, size: int, index: int, text: str) -> list:
    """A recorded pool entry without its digest; raises StaleRecord when
    the entry was recorded for another text."""
    digest, *answer = _recorded(path, seed, size)[index]
    if digest != workloads.text_digest(text):
        raise StaleRecord(f"{path.name} entry {index} no longer matches "
                          f"its recorded text")
    return answer


class _OutOfTime(Exception):
    pass


def countermodel_exists(cbox: CBox, max_size: int,
                        limit_s: float) -> Optional[bool]:
    """Whether `oracle.bounded_model_search` finds a countermodel to the
    CBox's query up to max_size; None when it runs out of time."""
    def out_of_time(signum, frame):
        raise _OutOfTime

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return oracle.bounded_model_search(cbox, cbox.queries[0], max_size) is not None
    except _OutOfTime:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# the longest countermodel search a check runs itself
LIVE_SEARCH_S = 60


def check_extended(index: int, cbox: CBox, text: str,
                   verdict: dict) -> Optional[str]:
    """A `not subsumed` verdict needs a countermodel; a `subsumed` one
    must have none up to the size searched (3, or 2 where the size-3
    search did not end).  make_expected.py recorded the searches; a
    size-4 search that was not recorded runs here."""
    found, = _entry(workloads.EXPECTED_EXTENDED, workloads.EXTENDED_POOL_SEED,
                    workloads.EXTENDED_POOL_SIZE, index, text)
    if verdict["subsumed"]:
        if found.startswith("none"):
            return None
        return f"a countermodel ({found}) refutes 'subsumed'"
    if found == "none<=3" and countermodel_exists(cbox, 4, LIVE_SEARCH_S):
        found = "4"
    if found.startswith("none"):
        return f"'not subsumed' but no countermodel was found ({found})"
    return None


def check_numeric(index: int, text: str, verdict: dict) -> Optional[str]:
    want, = _entry(workloads.EXPECTED_NUMERIC, workloads.NUMERIC_POOL_SEED,
                   workloads.NUMERIC_POOL_SIZE, index, text)
    if verdict["subsumed"] != want:
        return f"numeric pool entry {index}: expected subsumed={want}"
    return None


# ---------------------------------------------------------------------------
# interpolants
# ---------------------------------------------------------------------------

def _entails(base: CBox, extra: tuple[GCI, ...], lhs: Concept,
             rhs: Concept) -> bool:
    """Whether base and extra entail lhs sub rhs: two fresh names stand for
    the sides, and loctame's structural normalization (off every timed
    path) brings the inclusions to the shapes the completion oracle reads."""
    ql, qr = Name("__ql"), Name("__qr")
    cbox = CBox(gcis=base.gcis + extra + (GCI(ql, lhs), GCI(rhs, qr)),
                role_incls=base.role_incls)
    return _holds(oracle.completion_classify(normalize(cbox)), ql.name, qr.name)


def check_interpolant(inp, gcis: list[str]) -> Optional[str]:
    interpolant = parse_cbox("\n".join(gcis) + "\n").gcis if gcis else ()
    a_names = {n for g in inp.a_gcis for n in workloads.names_in(g)}
    b_names = {n for g in inp.b_gcis for n in workloads.names_in(g)}
    b_names |= workloads.names_in(GCI(inp.neg.lhs, inp.neg.rhs))
    used = {n for g in interpolant for n in workloads.names_in(g)}
    if not used <= a_names & b_names:
        return f"interpolant uses one-sided names {sorted(used - (a_names & b_names))}"
    a_side = CBox(gcis=inp.a_gcis, role_incls=inp.cbox.role_incls)
    b_side = CBox(gcis=inp.b_gcis, role_incls=inp.cbox.role_incls)
    try:
        for g in interpolant:
            if not _entails(a_side, (), g.lhs, g.rhs):
                return f"the A side does not entail {g}"
        if not _entails(b_side, interpolant, inp.neg.lhs, inp.neg.rhs):
            return "the interpolant with the B side does not refute the goal"
    except (oracle.UnsupportedConstruct, NotNormalizable):
        return None        # outside the oracle's fragment: not decided here
    return None


def check(op: workloads.Op, verdict) -> Optional[str]:
    """The reason a verdict is wrong, or None."""
    if isinstance(verdict, dict) and "error" in verdict:
        return f"raised {verdict['error']}"
    try:
        if op.reference == "completion":
            return check_classify(op.ref, verdict)
        if op.reference == "extended-pool":
            return check_extended(*op.ref, op.text, verdict)
        if op.reference == "numeric-pool":
            return check_numeric(op.ref, op.text, verdict)
        if op.reference == "interpolant":
            return check_interpolant(op.ref, verdict)
    except (LoctameError, StaleRecord) as exc:
        return f"reference check failed: {type(exc).__name__}: {exc}"
    raise ValueError(f"unknown reference check {op.reference!r}")
