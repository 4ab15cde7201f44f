"""firmfold.interp.execute against tests/reference_interp.py.

execute runs from nodes and blocks it decodes once per call; the reference
re-reads the graph at every step. Both must give the same value, trap and
step count on every graph, and raise the same exception type with the same
message on every graph they cannot run, at the same point: a sweep of
max_steps shows the point, because a step-limit trap wins over an error
that comes after it.
"""

import random

import pytest

from conftest import (
    CF,
    DF,
    MUTATORS,
    broken_graphs,
    build_counting_loop,
    build_diamond,
    build_div_graph,
    build_jmp_chain,
    build_mul_chain,
    build_swap_loop,
    finish_return,
    func_graph,
    golden_corpus,
)
from firmfold.arith import BINARY, COMPARE
from firmfold.cfgfold import optimize
from firmfold.errors import GraphError, InterpreterError
from firmfold.graphio import GenSpec, generate
from firmfold.interp import execute
from firmfold.ir import BINARY_KINDS, INT_MAX, INT_MIN, OPS, Edge, EdgeKind, FirmGraph, NodeKind
from firmfold.ir import Relation
from firmfold.isel import run_instruction_selection
from reference_interp import execute as reference_execute

K = NodeKind
EDGE_VALUES = (INT_MIN, -1, 0, 1, INT_MAX)
# Above the step count of every generated run here that ends; a run that
# loops on its inputs ends on this limit in both interpreters.
LIMIT = 2_000


def _outcome(run, g, inputs=None, max_steps=LIMIT):
    """(value, trap, steps) of a run, or the type and message it raised."""
    try:
        result = run(g, inputs, max_steps)
    except Exception as exc:  # both sides must raise the same thing
        return type(exc), str(exc)
    return result.value, result.trapped, result.steps


def _assert_same(g, inputs=None, max_steps=LIMIT):
    ours = _outcome(execute, g, inputs, max_steps)
    assert ours == _outcome(reference_execute, g, inputs, max_steps), max_steps
    return ours


def _sweep(g, inputs=None, upto=None):
    """Every max_steps from 0 to one past the full run's step count."""
    full = _assert_same(g, inputs)
    if upto is None:
        upto = full[2] + 1 if len(full) == 3 else 40
    for max_steps in range(upto + 1):
        _assert_same(g, inputs, max_steps)
    return full


def _edge(g, src, kind, position=None):
    return next(
        e for e in g.out_edges(src, kind) if position is None or e.position == position
    )


# -- each InterpreterError, built by hand and never verified -----------------


def _no_start_block():
    return FirmGraph(), None


def _deleted_start_block():
    g, names = build_jmp_chain(k=1)
    g.start_block = 10_000
    return g, None


def _bad_input():
    g, names = build_div_graph()
    return g, {names["x"]: 2**31, names["d"]: 1}


def _bool_input():
    g, names = build_div_graph()
    return g, {names["x"]: 3, names["d"]: True}


def _phi_read_unassigned():
    g, entry, _ = func_graph()
    c = g.add_node(K.CONST, value=1, block=entry)
    phi = g.add_node(K.PHI, block=entry)
    g.add_edge(phi, c, DF, 0)
    finish_return(g, entry, phi)
    return g, None


def _phi_without_entry_operand():
    g, names = build_diamond(cond_const=0)
    g.delete_edge(_edge(g, names["phi"], DF, 1))
    return g, None


def _block_without_transfer():
    g, names = build_jmp_chain(k=1)
    g.delete_node(names["ret"])
    return g, None


def _block_with_phis_and_no_transfer():
    g, names = build_diamond(cond_const=1)
    g.delete_node(names["ret"])
    return g, None


def _return_without_operand():
    g, names = build_jmp_chain(k=0)
    g.delete_edge(_edge(g, names["ret"], DF))
    return g, None


def _return_with_two_operands():
    g, names = build_jmp_chain(k=0)
    g.add_edge(names["ret"], names["const"], DF, 1)
    return g, None


def _cond_with_two_operands():
    g, names = build_diamond(cond_const=1)
    g.add_edge(names["cond"], names["cond_src"], DF, 1)
    return g, None


def _jmp_without_successor():
    g, names = build_jmp_chain(k=2)
    hop = names["hops"][1]
    g.delete_edge(_edge(g, hop, CF))
    return g, None


def _jmp_with_two_successors():
    g, names = build_jmp_chain(k=2)
    jmp = _edge(g, names["hops"][0], CF).dst
    g.add_edge(names["tail"], jmp, CF, 1)
    return g, None


def _cond_without_true_successor():
    g, names = build_diamond(cond_const=5)
    g.delete_edge(_edge(g, names["then_b"], EdgeKind.TRUE))
    return g, None


def _cond_without_false_successor():
    g, names = build_diamond(cond_const=0)
    g.delete_edge(_edge(g, names["else_b"], EdgeKind.FALSE))
    return g, None


def _value_of_a_jmp():
    g, names = build_jmp_chain(k=1)
    jmp = _edge(g, names["hops"][0], CF).dst
    g.retarget_edge(_edge(g, names["ret"], DF), jmp)
    return g, None


def _value_of_a_store():
    g, entry, _ = func_graph()
    addr = g.add_node(K.CONST, value=0, block=entry)
    store = g.add_node(K.STORE, volatile=True, block=entry)
    g.add_edge(store, addr, DF, 0)
    g.add_edge(store, addr, DF, 1)
    add = g.add_node(K.ADD, block=entry)
    g.add_edge(add, addr, DF, 0)
    g.add_edge(add, store, DF, 1)
    finish_return(g, entry, add)
    return g, None


def _ring(size):
    """Return(Add_0), each Add_i reading Add_{i+1 mod size} and a Const."""
    g, entry, _ = func_graph()
    c = g.add_node(K.CONST, value=1, block=entry)
    adds = [g.add_node(K.ADD, block=entry) for _ in range(size)]
    for i, add in enumerate(adds):
        g.add_edge(add, c, DF, 0)
        g.add_edge(add, adds[(i + 1) % size], DF, 1)
    finish_return(g, entry, adds[0])
    return g, None


def _too_few_operands(kind):
    """Return(node), where node is a kind that needs more operands than it
    has: an Add with one, a TargetAddI or a Not with none."""
    g, entry, _ = func_graph()
    one = g.add_node(K.CONST, value=1, block=entry)
    value = 4 if kind is K.TARGET_ADD_I else None
    node = g.add_node(kind, value=value, block=entry)
    if kind is K.ADD:
        g.add_edge(node, one, DF, 0)
    finish_return(g, entry, node)
    return g, None


def _missing_volatile_input():
    g, names = build_div_graph()
    return g, {names["x"]: 7}


ERROR_CASES = {
    "no start block": (_no_start_block, "graph has no start block"),
    "deleted start block": (_deleted_start_block, "graph has no start block"),
    "input out of range": (_bad_input, "is not a 32-bit signed integer"),
    "bool input": (_bool_input, "is not a 32-bit signed integer"),
    "phi read unassigned": (_phi_read_unassigned, "read before any predecessor assigned it"),
    "phi without entry operand": (_phi_without_entry_operand, "has no operand for predecessor position 1"),
    "block without transfer": (_block_without_transfer, "has no control transfer"),
    "phis and no transfer": (_block_with_phis_and_no_transfer, "has no control transfer"),
    "return without operand": (_return_without_operand, "needs exactly one operand"),
    "return with two operands": (_return_with_two_operands, "needs exactly one operand"),
    "cond with two operands": (_cond_with_two_operands, "needs exactly one operand"),
    "jmp without successor": (_jmp_without_successor, "has 0 successors"),
    "jmp with two successors": (_jmp_with_two_successors, "has 2 successors"),
    "cond without true successor": (_cond_without_true_successor, "has 0 True successors"),
    "cond without false successor": (_cond_without_false_successor, "has 0 False successors"),
    "value of a jmp": (_value_of_a_jmp, "Jmp node"),
    "value of a store": (_value_of_a_store, "Store node"),
    "cycle through no phi": (lambda: _ring(3), "dataflow cycle through node"),
    "self loop": (lambda: _ring(1), "dataflow cycle through node"),
    "missing volatile input": (_missing_volatile_input, "no input value for volatile Load"),
    "add with one operand": (lambda: _too_few_operands(K.ADD), "Add node 5 has too few operands: 1"),
    "immediate without operand": (
        lambda: _too_few_operands(K.TARGET_ADD_I),
        "TargetAddI node 5 has too few operands: 0",
    ),
    "not without operand": (lambda: _too_few_operands(K.NOT), "Not node 5 has too few operands: 0"),
}


@pytest.mark.parametrize("name", ERROR_CASES)
def test_each_interpreter_error_matches_the_reference(name):
    build, message = ERROR_CASES[name]
    g, inputs = build()
    kind, text = _sweep(g, inputs)
    assert kind is InterpreterError and message in text


def test_a_bad_shape_the_run_never_reaches_raises_nothing():
    # The False edge is gone, but Cond(Const 1) only ever takes True.
    g, names = build_diamond(cond_const=1)
    g.delete_edge(_edge(g, names["else_b"], EdgeKind.FALSE))
    assert _sweep(g) == (10, None, 6)


@pytest.mark.parametrize("name", sorted(broken_graphs(), key=lambda n: int(n[1:])))
def test_graphs_that_fail_verification_run_as_in_the_reference(name):
    _sweep(broken_graphs()[name], upto=30)


def test_a_successor_missing_from_the_graph_raises_as_in_the_reference():
    g, names = build_jmp_chain(k=1)
    jmp = _edge(g, names["hops"][0], CF).dst
    g.delete_edge(_edge(g, names["hops"][0], CF))
    # The public mutators cannot leave a dangling edge, so forge one.
    g._in[jmp].append(Edge(10_000, jmp, CF, 0))
    kind, text = _sweep(g, upto=5)
    assert kind is GraphError and "10000" in text


# -- seeded differential -------------------------------------------------------


def _vectors(g, rng, count=3):
    loads = sorted(nid for nid, node in g.items() if node.kind is K.LOAD and node.volatile)
    pool = EDGE_VALUES + (rng.randint(-64, 64), rng.randint(INT_MIN, INT_MAX))
    return [{nid: rng.choice(pool) for nid in loads} for _ in range(count)]


def _versions(g, lower=True):
    """g as built, after optimize and, unless it has Div or Mod, after isel."""
    optimized = g.copy()
    optimize(optimized)
    yield g
    yield optimized
    if lower:
        lowered = optimized.copy()
        run_instruction_selection(lowered)
        yield lowered


def test_golden_corpus_runs_as_in_the_reference():
    rng = random.Random(22)
    for g in golden_corpus():
        for version in _versions(g):
            for inputs in _vectors(g, rng):
                _assert_same(version, inputs)


def _edits(g):
    """Edit g through each public FirmGraph mutator in turn, yielding the
    mutator's name after each edit, and None after setting up the next
    edit, which changes no run. Each edit is one call, or two of the same
    mutator, made so that it can change what a run returns or raises."""
    ret = next(nid for nid, node in g.items() if OPS[node.kind].op is K.RETURN)
    home = g.block_of(ret)
    (ret_edge,) = g.operand_edges(ret)
    a = g.add_node(K.CONST, value=5, block=home)
    b = g.add_node(K.CONST, value=3, block=home)
    sub = g.add_node(K.SUB, block=home)
    a_edge = g.add_edge(sub, a, DF, 0)
    b_edge = g.add_edge(sub, b, DF, 1)
    yield None
    extra = g.add_edge(ret, sub, DF, 1)
    yield "add_edge"  # a Return with two operands
    g.delete_edge(extra)
    yield "delete_edge"  # the graph's own result again
    g.retarget_edge(ret_edge, sub)
    yield "retarget_edge"  # 5 - 3
    g.set_value(a, 9)
    yield "set_value"  # 9 - 3
    g.set_position(a_edge, 1)
    g.set_position(b_edge, 0)
    yield "set_position"  # 3 - 9
    g.retype_node(sub, K.ADD)
    yield "retype_node"  # 3 + 9
    g.redirect_users(b, a)
    yield "redirect_users"  # 9 + 9
    entries = g.control_in_edges(home)
    if entries:
        entry = entries[0]
        kind = entry.kind
        g.retype_edge(entry, EdgeKind.TRUE if kind is CF else CF)
        yield "retype_edge"  # the transfer into home loses its successor
        g.retype_edge(entry, kind)
        yield "retype_edge"
    phi = g.add_node(K.PHI, block=home)
    yield "add_node"  # a Phi with no operand for the entry into home
    g.delete_unused()
    yield "delete_unused"  # the Phi, never read, goes
    spare = g.add_node(K.BLOCK)
    orphan = g.add_node(K.RETURN, block=spare)
    g.add_edge(orphan, sub, DF, 0)
    g.delete_node(spare)
    yield None
    g.delete_node(ret)
    yield "delete_node"  # home has no transfer
    g.set_block(orphan, home)
    yield "set_block"  # home returns 9 + 9 through the orphaned Return
    g.delete_nodes([orphan, sub])
    yield "delete_nodes"  # home has no transfer again
    spare = g.add_node(K.BLOCK)
    seven = g.add_node(K.CONST, value=7, block=spare)
    g.add_edge(g.add_node(K.RETURN, block=spare), seven, DF, 0)
    yield None
    g.move_members(spare, home)
    yield "move_members"  # home returns 7
    assert phi not in g


def test_a_graph_edited_between_runs_runs_as_edited():
    """execute keeps a graph's decoded nodes and blocks across calls until
    a mutator changes the graph. On every third golden graph, as built,
    optimized and lowered, three input vectors share one decode; then each
    mutator edits the graph in turn, and the run after every edit must
    match the reference, which decodes nothing."""
    rng = random.Random(24)
    changed = dict.fromkeys(MUTATORS, 0)
    for g in golden_corpus(stride=3):
        for version in _versions(g):
            vectors = _vectors(g, rng)
            for inputs in vectors:
                before = _assert_same(version, inputs)
            for mutator in _edits(version):
                after = _assert_same(version, vectors[-1])
                if mutator is not None:
                    changed[mutator] += after != before
                before = after
    assert min(changed.values()) > 0, changed


def _retyped(seed):
    """A wide seeded graph with every third Add, Sub, Mul, And and Xor
    retyped to Div or Mod."""
    rng = random.Random(220_000 + seed)
    blocks = rng.randint(4, 40)
    g = generate(
        seed,
        GenSpec(
            blocks=blocks,
            ops_per_block=rng.randint(1, 8),
            const_ratio=rng.uniform(0.0, 1.0),
            loop_count=min(rng.randint(0, 3), (blocks - 2) // 3),
            input_count=rng.randint(1, 4),
        ),
    )
    kinds = (K.ADD, K.SUB, K.MUL, K.AND, K.XOR)
    for nid in [nid for nid, node in g.items() if node.kind in kinds][::3]:
        g.retype_node(nid, rng.choice((K.DIV, K.MOD)))
    return g, rng


def test_graphs_with_div_and_mod_run_as_in_the_reference():
    traps = 0
    for seed in range(150):
        g, rng = _retyped(seed)
        for version in _versions(g, lower=False):
            for inputs in _vectors(g, rng):
                traps += _assert_same(version, inputs)[1] is not None
    assert traps > 0


def _deferred_div_trap():
    """Return(Phi(Div(x, d))), the Phi in a block after the entry: the Phi
    holds the Div's trap until the Return reads it."""
    g, names = build_div_graph()
    block = g.block_of(names["div"])
    g.delete_node(names["ret"])
    jmp = g.add_node(K.JMP, block=block)
    join = g.add_node(K.BLOCK)
    g.add_edge(join, jmp, CF, 0)
    phi = g.add_node(K.PHI, block=join)
    g.add_edge(phi, names["div"], DF, 0)
    finish_return(g, join, phi)
    return g, {names["x"]: 5, names["d"]: 0}


def test_every_step_limit_matches_the_reference():
    assert _sweep(build_counting_loop(bound=4)[0]) == (4, None, 40)
    assert _sweep(build_swap_loop(iters=3)[0])[:2] == (2, None)
    assert _sweep(*_deferred_div_trap())[1] == "divide-by-zero"
    # Seeded graphs with loops and Div or Mod, raw and optimized, on runs
    # that end in a value or a trap within a few hundred steps.
    swept = set()
    for seed in range(60):
        g, rng = _retyped(seed)
        if not any(node.kind is K.PHI for _, node in g.items()):
            continue
        inputs = _vectors(g, rng, count=1)[0]
        for version in _versions(g, lower=False):
            full = _outcome(execute, version, inputs)
            if len(full) == 3 and full[1] != "step-limit" and full[2] <= 400:
                _sweep(version, inputs)
                swept.add((seed, full[1]))
        if len(swept) >= 12:
            break
    assert len(swept) >= 12 and any(trap for _, trap in swept)


def test_a_dataflow_chain_deeper_than_the_recursion_limit_runs():
    # The evaluation stack is explicit, so depth costs no Python frames.
    g, names = build_mul_chain([1] * 5000)
    assert _assert_same(g, {names["x"]: 7}, max_steps=10**6)[:2] == (7, None)


# -- one semantics table ---------------------------------------------------------


def test_arith_keeps_one_entry_per_binary_op_and_relation():
    assert set(BINARY) == {OPS[kind].op for kind in BINARY_KINDS}
    assert set(COMPARE) == set(Relation)
