"""Command-line behavior: exit codes, output shapes, JSON schemas."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import loctame
from loctame import cli, oracle, randgen
from loctame.reduce import parse_reduction
from loctame.syntax import MAX_NESTING, render_cbox
from tests.conftest import (ANATOMY_TEXT, DEFS_TEXT, FREIGHT_TEXT,
                            GUARDS_TEXT, ROUTES_TEXT, SPLIT_TEXT)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("defs", DEFS_TEXT), ("anatomy", ANATOMY_TEXT),
                       ("freight", FREIGHT_TEXT), ("routes", ROUTES_TEXT),
                       ("guards", GUARDS_TEXT), ("split", SPLIT_TEXT)]:
        p = tmp_path / f"{name}.lt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_check_subsumed_queries_exit_zero(files, capsys):
    assert cli.main(["check", files["defs"]]) == 0
    out = capsys.readouterr().out
    assert "subsumed" in out and "not subsumed" not in out


def test_check_failing_query_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.lt"
    p.write_text("A sub B\n? B sub A\n")
    assert cli.main(["check", str(p)]) == 1
    assert "not subsumed" in capsys.readouterr().out


def test_check_both_modes_give_the_same_verdicts(files, capsys):
    for mode in ("chase", "instantiate"):
        assert cli.main(["check", f"--mode={mode}", files["routes"]]) == 0
        assert "subsumed" in capsys.readouterr().out


def test_parse_error_exits_two(tmp_path, capsys):
    p = tmp_path / "broken.lt"
    p.write_text("A sub and\n")
    assert cli.main(["check", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_file_exits_two(capsys):
    assert cli.main(["check", "/nonexistent/nowhere.lt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_emit_psi_prints_the_eight_closure_terms(files, capsys):
    assert cli.main(["check", "--emit-psi", files["anatomy"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "f_cont_in(Heart)",
        "f_cont_in(HeartValve)",
        "f_cont_in(HeartWall)",
        "f_has_loc(Endocard)",
        "f_has_loc(Heart)",
        "f_has_loc(HeartValve)",
        "f_has_loc(HeartWall)",
        "f_part_of(Heart)",
    ]


def test_emit_reduction_output_reparses(files, capsys):
    assert cli.main(["check", "--emit-reduction", files["defs"]]) == 0
    text = capsys.readouterr().out
    prob = parse_reduction(text)
    assert prob.goal is not None
    assert prob.facts and prob.clauses


def test_check_json_schema(files, capsys):
    assert cli.main(["check", "--json", files["anatomy"]]) == 0
    body = json.loads(capsys.readouterr().out)
    assert isinstance(body, list) and len(body) == 1
    assert set(body[0]) == {"query", "verdict", "psi_size", "clause_count",
                            "micros_per_stage", "stats"}
    assert body[0]["verdict"] == "subsumed"
    assert body[0]["psi_size"] == 8
    assert body[0]["stats"]["atoms_derived"] > 0


def test_classify_lists_proper_subsumptions(files, capsys):
    assert cli.main(["classify", files["anatomy"]]) == 0
    out = capsys.readouterr().out
    assert "Endocarditis sub Heartdisease" in out
    assert out.strip().splitlines()[-1].startswith("#")


def test_classify_json_has_the_subsumer_map(files, capsys):
    assert cli.main(["classify", "--json", files["anatomy"]]) == 0
    body = json.loads(capsys.readouterr().out)
    assert "names" in body and "subsumers" in body
    assert "Heartdisease" in body["subsumers"]["Endocarditis"]
    assert "Endocarditis" in body["subsumers"]["Endocarditis"]


def test_explain_prints_labeled_steps(files, capsys):
    assert cli.main(["explain", files["anatomy"]]) == 0
    out = capsys.readouterr().out
    assert "subsumed" in out.splitlines()[0]
    assert "[input:" in out and "[trans:" in out


def test_explain_accepts_an_explicit_query(files, capsys):
    assert cli.main(["explain", files["anatomy"],
                     "Endocarditis sub Disease"]) == 0
    assert "subsumed" in capsys.readouterr().out


def test_explain_non_theorem_exits_one(files, capsys):
    assert cli.main(["explain", files["anatomy"],
                     "Heart sub Endocarditis"]) == 1
    assert "not subsumed" in capsys.readouterr().out


def test_explain_numeric_movements(files, capsys):
    assert cli.main(["explain", files["freight"]]) == 0
    out = capsys.readouterr().out
    assert "moved from the numeric side" in out
    assert "[Mon(f_price)]" in out and "[Mon(f_weight)]" in out


def test_solve_round_trip_derives_the_goal(files, tmp_path, capsys):
    assert cli.main(["check", "--emit-reduction", files["defs"]]) == 0
    red_file = tmp_path / "defs.red"
    red_file.write_text(capsys.readouterr().out)
    assert cli.main(["solve", str(red_file)]) == 0
    out = capsys.readouterr().out
    assert "goal derived" in out


@pytest.mark.parametrize("name", [
    "defs", "anatomy", "routes", "guards",
    # the dump holds the mixed clauses, whose conclusions check moves in
    # from the numeric side
    "freight",
])
def test_solve_gives_the_verdict_of_check_on_both_dumps(files, tmp_path,
                                                        capsys, name):
    want = cli.main(["check", files[name]])
    for mode in ("chase", "instantiate"):
        capsys.readouterr()
        cli.main(["check", "--emit-reduction", f"--mode={mode}", files[name]])
        red_file = tmp_path / f"{name}.{mode}.red"
        red_file.write_text(capsys.readouterr().out)
        assert cli.main(["solve", str(red_file)]) == want, mode


def test_solve_underivable_goal_exits_one(tmp_path, capsys):
    p = tmp_path / "open.red"
    p.write_text("fact a <= b\ngoal b <= a\n")
    assert cli.main(["solve", str(p)]) == 1
    assert "goal not derived" in capsys.readouterr().out


def test_solve_without_goal_prints_the_least_model(tmp_path, capsys):
    p = tmp_path / "model.red"
    p.write_text("fact a <= b\nclause a <= b -> b <= c\n")
    assert cli.main(["solve", str(p)]) == 0
    out = capsys.readouterr().out
    assert "a <= b" in out and "b <= c" in out


def test_interpolate_prints_concept_inclusions(files, capsys):
    assert cli.main(["interpolate", files["split"]]) == 0
    assert capsys.readouterr().out.strip() == "exists r . D sub exists r . C"


def test_classify_json_lists_a_name_only_a_query_mentions(tmp_path, capsys):
    p = tmp_path / "q.lt"
    p.write_text("A sub B\n? A sub Z\n")
    assert cli.main(["classify", "--json", str(p)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["subsumers"] == {"A": ["A", "B"], "B": ["B"], "Z": []}


def test_interpolate_json_schema(files, capsys):
    assert cli.main(["interpolate", "--json", files["split"]]) == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) == {"interpolant", "iterations", "ops_shared",
                         "shared_names", "micros_per_stage", "stats"}
    assert set(body["micros_per_stage"]) == {"attempt", "rounds",
                                             "verification"}
    assert set(body["stats"]) == {"rounds", "solver_runs", "entails_calls"}
    assert body["interpolant"] == ["exists r . D sub exists r . C"]
    assert body["ops_shared"] is True
    assert "C" in body["shared_names"] and "D" in body["shared_names"]


def test_interpolate_satisfiable_sides_exit_one(tmp_path, capsys):
    p = tmp_path / "sat.lt"
    p.write_text("A: X sub Y\nB: Z nsub W\n")
    assert cli.main(["interpolate", str(p)]) == 1
    assert "no interpolant" in capsys.readouterr().err


def test_interpolate_trivial_case_prints_top(tmp_path, capsys):
    p = tmp_path / "triv.lt"
    p.write_text("A: P sub Q\nB: X sub Y\nB: X nsub Y\n")
    assert cli.main(["interpolate", str(p)]) == 0
    assert capsys.readouterr().out.strip() == "top"


def test_cross_check_file_and_samples_pass(files, capsys):
    assert cli.main(["cross-check", files["routes"], "--samples", "5",
                     "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "cross-check PASS" in out
    assert "0 failures" in out


def test_cross_check_ends_on_the_guards_fixture(files, capsys):
    # the countermodel search over the ternary roles runs out of its
    # decision budget; a cut search is reported and is no failure
    start = time.perf_counter()
    assert cli.main(["cross-check", files["guards"]]) == 0
    assert time.perf_counter() - start < 30
    out = capsys.readouterr().out
    assert "countermodel search cut at size" in out
    assert "cross-check PASS: 1 checks, 0 failures" in out


def test_a_cut_sample_search_is_reported_and_no_failure(monkeypatch, capsys):
    # with no decisions allowed, the size-3 search of this guarded sample
    # (a subsumed query) is cut
    monkeypatch.setattr(oracle, "DPLL_BUDGET", 0)
    assert cli.main(["cross-check", "--samples", "1", "--seed", "179"]) == 0
    out = capsys.readouterr().out
    assert "seed 179 (guarded): countermodel search cut at size 3" in out
    assert "cross-check PASS: 1 checks, 0 failures" in out


def test_cross_check_without_work_exits_two(capsys):
    assert cli.main(["cross-check"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("A sub B\n? A sub B\n"))
    assert cli.main(["check", "-"]) == 0
    assert "subsumed" in capsys.readouterr().out


def test_check_normalize_flag(files, capsys):
    assert cli.main(["check", "--normalize", files["anatomy"]]) == 0
    assert "subsumed" in capsys.readouterr().out


def test_emit_reduction_matches_the_recorded_reductions(files, capsys):
    # the chase fires Mon, K2, K3 and meet introduction from an index,
    # yet the dumped reduction is the full one, byte for byte
    golden = Path(__file__).resolve().parent / "golden"
    for name in ("defs", "anatomy", "freight", "routes", "guards"):
        assert cli.main(["check", "--emit-reduction", files[name]]) == 0
        want = (golden / f"{name}.reduction").read_text()
        assert capsys.readouterr().out == want, name


@pytest.mark.parametrize("command", ["check", "solve", "interpolate"])
def test_invalid_utf8_exits_two_and_names_the_file(tmp_path, capsys, command):
    p = tmp_path / "latin1.lt"
    p.write_bytes(b"A sub B\n? A\xff sub B\n")
    assert cli.main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {p} is not UTF-8 text\n"


@pytest.mark.parametrize("argv", [
    ["interpolate", "--mode=instantiate"],
    ["cross-check", "--mode=chase", "--samples", "1"],
    ["check", "--seed", "3"],
    ["solve", "--seed", "3"],
    ["solve", "--mode=chase"],
])
def test_flags_are_accepted_only_where_they_are_read(files, argv, capsys):
    # interpolate, cross-check and solve have no --mode, only cross-check
    # a --seed
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [files["split"]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_deeply_nested_concept_exits_two(tmp_path, capsys):
    p = tmp_path / "deep.lt"
    deep = "(" * 330 + "A" + ")" * 330
    p.write_text(f"{deep} sub B\n? {deep} sub B\n")
    assert cli.main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested deeper than" in err
    assert len(err.strip().splitlines()) == 1


def test_nesting_at_the_bound_is_decided(tmp_path, capsys):
    p = tmp_path / "deep.lt"
    deep = "exists r . " * MAX_NESTING + "A"
    p.write_text(f"{deep} sub B\n? {deep} sub B\n")
    assert cli.main(["check", str(p)]) == 0
    conj = "(B and " * MAX_NESTING + "A" + ")" * MAX_NESTING
    p.write_text(f"{conj} sub C\n? {conj} sub C\n")
    assert cli.main(["check", str(p)]) == 0
    assert "subsumed" in capsys.readouterr().out


def test_top_and_bot_fill_a_numeric_position(tmp_path, capsys):
    p = tmp_path / "poly.lt"
    p.write_text("decl role p : (concept, num)\n"
                 "decl role w : (concept, concept, num)\n"
                 "A sub exists p . top\n"
                 "? A sub exists p . top\n"
                 "? exists p . num up 3 sub exists p . top\n"
                 "? exists p . bot sub exists p . num up 3\n"
                 "? exists w . (B, num up 2) sub exists w . (B, top)\n")
    for mode in ("chase", "instantiate"):
        assert cli.main(["check", f"--mode={mode}", str(p)]) == 0
        out = capsys.readouterr().out
        assert out.count(": subsumed") == 4
    assert cli.main(["explain", str(p), "exists p . num up 3 sub "
                     "exists p . top"]) == 0
    assert "[Mon(f_p)]" in capsys.readouterr().out


def test_unexpected_exception_is_an_internal_error(files, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise KeyError("no such\nthing")

    monkeypatch.setattr(cli.pipeline, "check_subsumption", boom)
    status = cli.main(["check", files["defs"]])
    assert status == cli.EXIT_INTERNAL and status not in (0, 1, 2)
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError")
    assert len(err.strip().splitlines()) == 1


def test_a_reader_closing_the_pipe_is_no_error(tmp_path):
    # three dumps of about 400 kB each: the pipe's buffer fills while the
    # first is written, so the reader is gone before the last one
    p = tmp_path / "scale.lt"
    queries = "".join(f"? C{i} sub C{i}\n" for i in range(3))
    p.write_text(render_cbox(randgen.scaling_family(100)) + queries)
    src = str(Path(loctame.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "loctame.cli", "check", "--emit-reduction",
         str(p)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"# ? C0 sub C0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
