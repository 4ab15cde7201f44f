"""What each workload compiles: the programs, their shapes and their inputs.

Everything here derives from the workload name and the --seed, so the same
seed gives the same files. This module does not import firmfold, so that the
scripts can check for the sources before importing them.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Interpreter step budget for one input vector, for firmfold.interp.execute and
# the reference evaluator alike. The programs here stay far below it, but the
# interpreter's default limit of 1e6 is within reach of larger graphs of the
# same shapes, and a run must never end on the limit.
STEP_LIMIT = 10**7


def use_sources() -> None:
    """Put the checkout's src/ on sys.path, or exit if it is not there."""
    if not (SRC / "firmfold" / "__init__.py").is_file():
        sys.exit(f"perfbench: no firmfold sources at {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _branchy() -> list[dict]:
    # About 3 ops per block and 10% constants: chains, diamonds and loops in
    # the generator's own proportions. Eighty graphs average out the diamond
    # draw that one graph would leave to chance.
    return [
        dict(blocks=100, ops_per_block=3, const_ratio=0.1, loop_count=5,
             input_count=8)
        for _ in range(80)
    ]


def _corpus() -> list[dict]:
    # Small graphs over the ranges of the differential tests' sized_gen_spec,
    # stepped through a fixed grid instead of drawn, so that every seed
    # compiles the same mix of shapes.
    specs = []
    for i in range(400):
        blocks = 4 + (7 * i) % 27
        specs.append(
            dict(
                blocks=blocks,
                ops_per_block=3 + i % 5,
                const_ratio=0.2 + 0.1 * ((3 * i) % 8),
                loop_count=min(i % 3, (blocks - 2) // 3),
                input_count=i % 4,
            )
        )
    return specs


_SHAPES = {"branchy": _branchy, "corpus": _corpus}

# Input vectors per program.
VECTORS = {"branchy": 2, "corpus": 4}

WORKLOADS = tuple(_SHAPES)


def programs(workload: str, seed: int) -> list[tuple[int, dict]]:
    """(generator seed, GenSpec fields) for each program of a workload."""
    rng = random.Random(f"{workload}:{seed}")
    return [(rng.randrange(2**31), spec) for spec in _SHAPES[workload]()]


def input_vectors(workload: str, seed: int, index: int, load_ids: list[int]) -> list[dict[int, int]]:
    """The values fed to the volatile Loads of one program, one dict per run."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    vectors = []
    for _ in range(VECTORS[workload]):
        vector = {}
        for nid in load_ids:
            if rng.random() < 0.8:
                vector[nid] = rng.randint(-64, 64)
            else:
                vector[nid] = rng.randint(-(2**31), 2**31 - 1)
        vectors.append(vector)
    return vectors
