"""Output must not depend on hashing.

Node and edge kinds hash by identity, so the iteration order of any set of
kinds changes from one process to the next, just as string hashes change
with PYTHONHASHSEED. No output may follow either order.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

PIPELINE = """
import random
from conftest import sized_gen_spec
from firmfold.cfgfold import optimize
from firmfold.graphio import generate, to_json
from firmfold.isel import run_instruction_selection
for seed in range(100):
    g = generate(seed, sized_gen_spec(random.Random(900_000 + seed)))
    optimize(g)
    print(to_json(g))
    run_instruction_selection(g)
    print(to_json(g))
"""


def _run(hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    done = subprocess.run(
        [sys.executable, "-c", PIPELINE], env=env, capture_output=True, check=True
    )
    return done.stdout


def test_outputs_do_not_depend_on_hash_seed():
    first = _run("0")
    second = _run("4242")
    assert len(first) > 100_000
    assert first == second
