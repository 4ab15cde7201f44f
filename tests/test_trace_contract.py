"""The names perfbench/tracer.py wraps, and the call paths through them.

The benchmark's traced run reports per-layer metrics by wrapping firmfold
functions under the names through which firmfold calls them. A renamed
rule, or a call that no longer goes through the wrapped name, would leave
its metrics absent or zero. This test runs the passes under the tracer and
fails on either, and on a value the benchmark's last line could not carry
as plain JSON.
"""

import json
import math
import sys
from pathlib import Path

from conftest import BRANCHY_SPEC
from firmfold import cfgfold, isel
from firmfold.graphio import GenSpec, generate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer  # noqa: E402


def _graphs():
    # Loops and diamonds: small graphs with many constants, where most nodes
    # fold away, then the benchmark's branchy shape, where cleanup does most.
    for seed in range(4):
        yield generate(seed, GenSpec(blocks=12, ops_per_block=5, const_ratio=0.6, loop_count=2))
    yield generate(1, BRANCHY_SPEC)


def test_every_wrapped_name_exists_and_is_called():
    tracer = Tracer()
    tracer.install()
    try:
        for g in _graphs():
            # Through the module attributes, as the benchmark calls them.
            cfgfold.optimize(g)
            isel.run_instruction_selection(g)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    values = tracer.take()
    counted = [k for k in values if k.endswith(("attempts", "calls", "_s"))]
    assert [k for k in counted if values[k] <= 0] == []
    # The benchmark prints these values as JSON: each must be a finite number.
    not_finite = [
        k for k, v in values.items() if type(v) not in (int, float) or not math.isfinite(v)
    ]
    assert not_finite == []
    json.dumps(values, allow_nan=False)
