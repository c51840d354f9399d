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
