"""Reference execution: values, traps, step accounting, Phi timing."""

import pytest

from conftest import (
    DF,
    build_add_graph,
    build_counting_loop,
    build_diamond,
    build_div_graph,
    build_infinite_loop,
    build_swap_loop,
    finish_return,
    func_graph,
)
from firmfold.arith import apply_binary, apply_not
from firmfold.errors import InterpreterError
from firmfold.interp import TRAP_DIV_BY_ZERO, TRAP_STEP_LIMIT, execute
from firmfold.ir import EdgeKind, FirmGraph, NodeKind, Relation


def test_straight_line_add():
    g, _ = build_add_graph(1, 2)
    result = execute(g)
    assert result.ok
    assert result.value == 3
    assert result.trapped is None
    # one transfer plus three value computations
    assert result.steps == 4


def test_step_budget_boundary():
    g, _ = build_add_graph(1, 2)
    assert execute(g, max_steps=4).ok
    trapped = execute(g, max_steps=3)
    assert trapped.trapped == TRAP_STEP_LIMIT
    assert trapped.value is None
    assert not trapped.ok


def test_static_diamond_branches():
    g_true, _ = build_diamond(cond_const=1)
    assert execute(g_true).value == 10
    g_false, _ = build_diamond(cond_const=0)
    assert execute(g_false).value == 20


def test_dynamic_diamond_reads_inputs():
    g, names = build_diamond(cond_const=None)
    assert execute(g, {names["cond_src"]: 5}).value == 10
    assert execute(g, {names["cond_src"]: 0}).value == 20
    assert execute(g, {names["cond_src"]: -1}).value == 10  # any nonzero


def test_counting_loop_runs_to_its_bound():
    g, _ = build_counting_loop(bound=5)
    result = execute(g)
    assert result.ok and result.value == 5
    g0, _ = build_counting_loop(bound=0)
    assert execute(g0).value == 0


def test_phis_update_simultaneously_on_entry():
    g, _ = build_swap_loop(iters=3, x0=1, y0=2)
    # x, y swap each iteration; after an odd number x holds y0
    assert execute(g).value == 2
    g2, _ = build_swap_loop(iters=4, x0=1, y0=2)
    assert execute(g2).value == 1


def test_divide_by_zero_traps():
    g, names = build_div_graph()
    assert execute(g, {names["x"]: -7, names["d"]: 2}).value == -3
    trapped = execute(g, {names["x"]: 1, names["d"]: 0})
    assert trapped.trapped == TRAP_DIV_BY_ZERO
    assert trapped.value is None


def _phi_over_div(reads):
    """Return(Const 7), or Return(Phi(Phi(Div(x, d)))) when reads, with each
    Phi in its own block after the entry; returns (graph, x, d)."""
    g, names = build_div_graph()
    block = g.block_of(names["div"])
    g.delete_node(names["ret"])
    value = names["div"]
    for _ in range(2):
        jmp = g.add_node(NodeKind.JMP, block=block)
        block = g.add_node(NodeKind.BLOCK)
        g.add_edge(block, jmp, EdgeKind.CONTROLFLOW, 0)
        phi = g.add_node(NodeKind.PHI, block=block)
        g.add_edge(phi, value, DF, 0)
        value = phi
    if not reads:
        value = g.add_node(NodeKind.CONST, value=7, block=block)
    finish_return(g, block, value)
    return g, names["x"], names["d"]


def test_a_phi_operand_trap_waits_for_a_read():
    g, x, d = _phi_over_div(reads=False)
    assert execute(g, {x: 5, d: 0}).value == 7
    g, x, d = _phi_over_div(reads=True)
    assert execute(g, {x: 5, d: 2}).value == 2
    # The Div's trap passes from the inner Phi to the outer, which the
    # Return reads.
    assert execute(g, {x: 5, d: 0}).trapped == TRAP_DIV_BY_ZERO


def test_a_step_limit_in_a_phi_operand_is_not_deferred():
    g, x, d = _phi_over_div(reads=False)
    full = execute(g, {x: 5, d: 1})
    assert full.value == 7
    # The budget runs out while the Phi operands are evaluated.
    cut = execute(g, {x: 5, d: 1}, max_steps=3)
    assert cut.trapped == TRAP_STEP_LIMIT and cut.steps == 4


def test_divide_by_const_zero_traps_instead_of_folding():
    g, names = build_div_graph(divisor_const=0)
    assert execute(g, {names["x"]: 1}).trapped == TRAP_DIV_BY_ZERO


def test_step_limit_trap_counts_every_step():
    g, _ = build_infinite_loop()
    result = execute(g, max_steps=50)
    assert result.trapped == TRAP_STEP_LIMIT
    assert result.steps == 51


def test_volatile_load_needs_an_input():
    g, names = build_div_graph()
    with pytest.raises(InterpreterError, match="no input value"):
        execute(g, {names["x"]: 1})


def test_inputs_must_be_32_bit_integers():
    g, names = build_div_graph()
    for bad in (2**40, 2**31, -(2**31) - 1, 1.0, True, "3", None):
        with pytest.raises(InterpreterError, match="not a 32-bit signed integer"):
            execute(g, {names["x"]: bad, names["d"]: 1})
    assert execute(g, {names["x"]: -(2**31), names["d"]: 2**31 - 1}).value == -1


def test_non_volatile_load_reads_zero():
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=123, block=entry)
    load = g.add_node(NodeKind.LOAD, block=entry)
    g.add_edge(load, addr, DF, 0)
    finish_return(g, entry, load)
    assert execute(g).value == 0


def test_stores_are_never_demanded():
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    val = g.add_node(NodeKind.CONST, value=9, block=entry)
    store = g.add_node(NodeKind.STORE, volatile=True, block=entry)
    g.add_edge(store, addr, DF, 0)
    g.add_edge(store, val, DF, 1)
    finish_return(g, entry, val)
    result = execute(g)
    assert result.ok and result.value == 9
    assert store in g


def test_missing_start_block_is_an_error():
    with pytest.raises(InterpreterError, match="no start block"):
        execute(FirmGraph())


def test_block_without_transfer_is_an_error():
    g, entry, _ = func_graph()
    g.add_node(NodeKind.CONST, value=1, block=entry)
    with pytest.raises(InterpreterError, match="no control transfer"):
        execute(g)


def test_phi_in_the_start_block_is_an_error():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    phi = g.add_node(NodeKind.PHI, block=entry)
    g.add_edge(phi, c, DF, 0)
    finish_return(g, entry, phi)
    with pytest.raises(InterpreterError, match="read before any predecessor"):
        execute(g)


def test_lowered_graphs_execute_too():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.TARGET_CONST, value=9, block=entry)
    addi = g.add_node(NodeKind.TARGET_ADD_I, value=5, block=entry)
    g.add_edge(addi, c, DF, 0)
    ret = g.add_node(NodeKind.TARGET_RETURN, block=entry)
    g.add_edge(ret, addi, DF, 0)
    g.add_edge(g.end_block, ret, EdgeKind.CONTROLFLOW, 0)
    result = execute(g)
    assert result.ok and result.value == 14
    assert result.steps == 3


def test_lowered_cmp_immediate_uses_its_relation():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.TARGET_CONST, value=2, block=entry)
    cmpi = g.add_node(
        NodeKind.TARGET_CMP_I, value=3, relation=Relation.LESS, block=entry
    )
    g.add_edge(cmpi, c, DF, 0)
    ret = g.add_node(NodeKind.TARGET_RETURN, block=entry)
    g.add_edge(ret, cmpi, DF, 0)
    g.add_edge(g.end_block, ret, EdgeKind.CONTROLFLOW, 0)
    assert execute(g).value == 1  # 2 < 3



_OPERANDS = (-(2**31), 2**31 - 1, -1, 0, 1, 31, 32, 33)
_BINARY_CASES = [(name, None) for name in "Add Sub Mul And Or Xor Shl Shr".split()] + [
    ("Cmp", rel) for rel in Relation
]


def _op_graph(kind, target, arity, **attrs):
    """Return(kind(Load, ...)) over `arity` volatile Loads, in IR or target
    kinds; returns (graph, load ids, op id)."""
    g, entry, _ = func_graph()
    const = NodeKind.TARGET_CONST if target else NodeKind.CONST
    load = NodeKind.TARGET_LOAD if target else NodeKind.LOAD
    op = g.add_node(kind, block=entry, **attrs)
    loads = []
    for pos in range(arity):
        addr = g.add_node(const, value=pos, block=entry)
        ld = g.add_node(load, volatile=True, block=entry)
        g.add_edge(ld, addr, DF, 0)
        g.add_edge(op, ld, DF, pos)
        loads.append(ld)
    ret = g.add_node(NodeKind.TARGET_RETURN if target else NodeKind.RETURN, block=entry)
    g.add_edge(ret, op, DF, 0)
    g.add_edge(g.end_block, ret, EdgeKind.CONTROLFLOW, 0)
    return g, loads, op


@pytest.mark.parametrize(
    "name,relation",
    _BINARY_CASES,
    ids=[n if r is None else f"Cmp-{r.value}" for n, r in _BINARY_CASES],
)
def test_every_binary_form_runs_the_ir_semantics(name, relation):
    """X(a, b), TargetX(a, b) and TargetXI(a; imm b) all agree with X's
    entry in apply_binary."""
    ir_kind = NodeKind(name)
    plain, loads_p, _ = _op_graph(ir_kind, False, 2, relation=relation)
    target, loads_t, _ = _op_graph(NodeKind(f"Target{name}"), True, 2, relation=relation)
    imm, (load_i,), imm_op = _op_graph(
        NodeKind(f"Target{name}I"), True, 1, relation=relation, value=0
    )
    for a in _OPERANDS:
        for b in _OPERANDS:
            want = apply_binary(ir_kind, a, b, relation)
            assert execute(plain, dict(zip(loads_p, (a, b)))).value == want, (a, b)
            assert execute(target, dict(zip(loads_t, (a, b)))).value == want, (a, b)
            imm.set_value(imm_op, b)
            assert execute(imm, {load_i: a}).value == want, (a, b)


def test_not_and_load_forms_run_the_ir_semantics():
    for kind, target in ((NodeKind.NOT, False), (NodeKind.TARGET_NOT, True)):
        g, (ld,), _ = _op_graph(kind, target, 1)
        for a in _OPERANDS:
            assert execute(g, {ld: a}).value == apply_not(a)
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.TARGET_CONST, value=123, block=entry)
    ld = g.add_node(NodeKind.TARGET_LOAD, block=entry)
    g.add_edge(ld, addr, DF, 0)
    ret = g.add_node(NodeKind.TARGET_RETURN, block=entry)
    g.add_edge(ret, ld, DF, 0)
    g.add_edge(g.end_block, ret, EdgeKind.CONTROLFLOW, 0)
    result = execute(g)
    assert result.ok and result.value == 0
