"""randgen's draws and string hashing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the digest of a range of draws, printed by a child process
DRAWS = {
    "random_query": """\
import hashlib, random
from loctame import randgen
from loctame.syntax import render_cbox
digest = hashlib.sha256()
for seed in range(20_000, 20_050):
    rng = random.Random(seed)
    cbox = randgen.extended_cbox(rng)
    digest.update(render_cbox(cbox).encode())
    digest.update(str(randgen.random_query(rng, cbox)).encode())
print(digest.hexdigest())
""",
    "interpolation_split": """\
import hashlib, random
from loctame import randgen
digest = hashlib.sha256()
for seed in range(156_440, 156_460):
    inp = randgen.interpolation_split(random.Random(seed))
    digest.update(repr(inp).encode())
print(digest.hexdigest())
""",
}


def _digest(code: str, hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


@pytest.mark.xfail(strict=True,
                   reason="randgen iterates sets (random_query's roles, "
                          "interpolation_split's subsumer sets), so its "
                          "draws depend on PYTHONHASHSEED; sorting them "
                          "changes the benchmark's pools")
@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_draws_do_not_depend_on_string_hashing(draw):
    assert _digest(DRAWS[draw], "0") == _digest(DRAWS[draw], "1")
