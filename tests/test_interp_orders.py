"""Demand orders in firmfold.interp, against tests/reference_interp.py.

execute evaluates each value root by running its demand order and skipping
the nodes the memo already holds. These tests aim at the places where that
could part from a walk over the graph: every step limit on graphs with
loops, where Phi operands read the predecessor's memo; operands that fail
in different ways, whose order decides which failure a run reports; and
the reuse of orders across calls.
"""

import random

from conftest import BRANCHY_SPEC, DF, build_counting_loop, finish_return, func_graph
from firmfold import interp
from firmfold.cfgfold import optimize
from firmfold.errors import InterpreterError
from firmfold.graphio import generate
from firmfold.interp import execute
from firmfold.ir import INT_MAX, INT_MIN, NodeKind
from firmfold.isel import run_instruction_selection
from reference_interp import execute as reference_execute

K = NodeKind
LIMIT = 10**6


def _outcome(run, g, inputs, max_steps):
    """(value, trap, steps) of a run, or the type and message it raised."""
    try:
        result = run(g, inputs, max_steps)
    except Exception as exc:  # both sides must raise the same thing
        return type(exc), str(exc)
    return result.value, result.trapped, result.steps


def _sweep(g, inputs):
    """The full run's outcome, after checking it and every max_steps from 0
    to one past its step count against the reference."""
    full = _outcome(execute, g, inputs, LIMIT)
    assert full == _outcome(reference_execute, g, inputs, LIMIT)
    upto = full[2] + 1 if len(full) == 3 else 40
    for max_steps in range(upto + 1):
        ours = _outcome(execute, g, inputs, max_steps)
        assert ours == _outcome(reference_execute, g, inputs, max_steps), max_steps
    return full


def test_every_step_limit_on_branchy_graphs_with_live_loops_matches_the_reference():
    """Three graphs of the benchmark's branchy shape whose outputs keep a
    loop that the code after it reads, optimized and then lowered, swept
    over every step limit on two input vectors. optimize deletes the loops
    nothing reads, which left golden seeds 2 and 3 without one."""
    rng = random.Random(26)
    pool = (INT_MIN, -1, 0, 1, 2, 7, INT_MAX)
    steps = 0
    for seed in (1, 6, 13):
        g = generate(seed, BRANCHY_SPEC)
        loads = sorted(nid for nid, node in g.items() if node.kind is K.LOAD and node.volatile)
        optimize(g)
        lowered = g.copy()
        run_instruction_selection(lowered)
        assert any(node.kind is K.PHI for _, node in g.items())
        for _ in range(2):
            inputs = {nid: rng.choice(pool) for nid in loads}
            for version in (g, lowered):
                full = _sweep(version, inputs)
                assert len(full) == 3 and full[1] is None
                steps += full[2]
    assert steps > 1_000


def _operands_that_fail_differently():
    """Return(Add(Div(7, 0), Load)): the Div traps and the volatile Load,
    given no input, raises. Whichever operand comes first decides."""
    g, entry, _ = func_graph()
    seven = g.add_node(K.CONST, value=7, block=entry)
    zero = g.add_node(K.CONST, value=0, block=entry)
    div = g.add_node(K.DIV, block=entry)
    g.add_edge(div, seven, DF, 0)
    g.add_edge(div, zero, DF, 1)
    load = g.add_node(K.LOAD, volatile=True, block=entry)
    g.add_edge(load, zero, DF, 0)
    add = g.add_node(K.ADD, block=entry)
    div_edge = g.add_edge(add, div, DF, 0)
    load_edge = g.add_edge(add, load, DF, 1)
    finish_return(g, entry, add)
    return g, div_edge, load_edge


def test_swapping_operands_that_fail_differently_runs_as_the_reference():
    g, div_edge, load_edge = _operands_that_fail_differently()
    assert _sweep(g, {}) == (None, "divide-by-zero", 4)
    g.set_position(div_edge, 1)
    g.set_position(load_edge, 0)
    kind, message = _sweep(g, {})
    assert kind is InterpreterError and "no input value for volatile Load" in message


def test_a_second_run_builds_no_order():
    """The orders and programs of a graph version serve every later call."""
    g, _ = build_counting_loop(bound=3)
    assert execute(g).value == 3
    decoded = interp._DECODED[g]
    orders = dict(decoded[2])
    programs = dict(decoded[4])
    assert orders and programs
    assert execute(g).value == 3
    assert interp._DECODED[g] is decoded
    for built, before in ((decoded[2], orders), (decoded[4], programs)):
        assert built.keys() == before.keys()
        assert all(built[key] is value for key, value in before.items())
    g.set_value(next(nid for nid, node in g.items() if node.kind is K.CONST), 0)
    execute(g)
    assert interp._DECODED[g] is not decoded
