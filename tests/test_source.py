"""Checks over the source text of the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import loctame

SRC = Path(loctame.__file__).resolve().parent


def test_no_assert_statements():
    # invariants must survive `python -O`, which strips assert statements
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_nested_function_is_used():
    # a helper defined inside a function body that the body never names
    # is dead code
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {node.id for node in ast.walk(outer)
                     if isinstance(node, ast.Name)}
            found += [f"{path.name}:{inner.lineno} {inner.name}"
                      for stmt in outer.body for inner in ast.walk(stmt)
                      if isinstance(inner, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                      and inner.name not in names]
    assert found == []
