"""Lowering to target kinds: immediate forms, plain retyping, and the
whole-graph contract."""

import pytest

from conftest import DF, build_counting_loop, build_diamond, build_div_graph, finish_return, func_graph
from firmfold.cfgfold import optimize
from firmfold.errors import ContractError, VerificationError
from firmfold.interp import execute
from firmfold.ir import IMMEDIATE_KINDS, TARGET_KINDS, NodeKind, Relation
from firmfold.isel import run_instruction_selection, select_immediate, select_plain
from firmfold.verifier import verify


def _x_plus_const(kind=NodeKind.ADD, const_value=5, const_first=False, relation=None):
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    x = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(x, addr, DF, 0)
    c = g.add_node(NodeKind.CONST, value=const_value, block=entry)
    op = g.add_node(kind, relation=relation, block=entry)
    a, b = (c, x) if const_first else (x, c)
    g.add_edge(op, a, DF, 0)
    g.add_edge(op, b, DF, 1)
    ret = finish_return(g, entry, op)
    return g, {"x": x, "c": c, "op": op, "ret": ret}


def test_select_immediate_absorbs_the_constant():
    g, names = _x_plus_const(const_value=42)
    op = names["op"]
    assert select_immediate(g, op) is True
    node = g.node(op)
    assert node.kind is NodeKind.TARGET_ADD_I
    assert node.value == 42
    assert g.operands_of(op) == [(names["x"], 0)]
    assert names["c"] in g  # the Const stays for the cleanup sweep
    assert select_immediate(g, op) is False


def test_select_immediate_keeps_the_relation():
    g, names = _x_plus_const(kind=NodeKind.CMP, const_value=3, relation=Relation.LESS)
    assert select_immediate(g, names["op"]) is True
    node = g.node(names["op"])
    assert node.kind is NodeKind.TARGET_CMP_I
    assert node.value == 3
    assert node.relation is Relation.LESS


def test_select_immediate_needs_the_constant_on_the_right():
    g, names = _x_plus_const(kind=NodeKind.SUB, const_first=True)
    assert select_immediate(g, names["op"]) is False
    assert g.node(names["op"]).kind is NodeKind.SUB


def test_normalize_const_leaves_non_commutative_alone():
    # select_immediate only takes a left Const of a commutative op; a
    # non-commutative one keeps its operands where they are.
    g, names = _x_plus_const(kind=NodeKind.SUB, const_first=True)
    assert select_immediate(g, names["op"]) is False
    assert g.operands_of(names["op"]) == [(names["c"], 0), (names["x"], 1)]


def test_select_immediate_takes_a_left_constant_of_a_commutative_op():
    g, names = _x_plus_const(const_value=42, const_first=True)
    op = names["op"]
    assert select_immediate(g, op) is True
    node = g.node(op)
    assert node.kind is NodeKind.TARGET_ADD_I
    assert node.value == 42
    assert g.operands_of(op) == [(names["x"], 0)]
    assert select_immediate(g, op) is False


def test_select_immediate_takes_the_right_of_two_constants():
    g, entry, _ = func_graph()
    c1 = g.add_node(NodeKind.CONST, value=3, block=entry)
    c2 = g.add_node(NodeKind.CONST, value=4, block=entry)
    add = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(add, c1, DF, 0)
    g.add_edge(add, c2, DF, 1)
    div = g.add_node(NodeKind.DIV, block=entry)
    g.add_edge(div, c1, DF, 0)
    g.add_edge(div, c2, DF, 1)
    finish_return(g, entry, add)
    assert select_immediate(g, add) is True
    assert g.node(add).value == 4
    assert g.operands_of(add) == [(c1, 0)]
    assert select_immediate(g, div) is False  # no immediate form
    assert g.operands_of(div) == [(c1, 0), (c2, 1)]


def test_select_plain_retypes_in_place():
    g, names = _x_plus_const(kind=NodeKind.SUB, const_first=True)
    assert select_plain(g, names["op"]) is True
    assert g.node(names["op"]).kind is NodeKind.TARGET_SUB
    assert select_plain(g, names["c"]) is True
    assert g.node(names["c"]).kind is NodeKind.TARGET_CONST
    assert g.node(names["c"]).value == 5
    # anchors have no target form and stay put
    assert select_plain(g, g.start_block) is False
    assert select_plain(g, 99999) is False


def test_full_selection_on_a_folded_add():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=3, block=entry)
    finish_return(g, entry, c)
    run_instruction_selection(g)
    kinds = {node.kind for _nid, node in g.items()}
    assert kinds == {
        NodeKind.BLOCK,
        NodeKind.START,
        NodeKind.END,
        NodeKind.TARGET_CONST,
        NodeKind.TARGET_RETURN,
    }
    result = execute(g)
    assert result.ok and result.value == 3


def test_full_selection_keeps_left_constants_as_target_consts():
    g, names = _x_plus_const(kind=NodeKind.SUB, const_first=True)
    run_instruction_selection(g)
    assert g.node(names["op"]).kind is NodeKind.TARGET_SUB
    assert g.node(names["c"]).kind is NodeKind.TARGET_CONST
    assert g.operands_of(names["op"])[0] == (names["c"], 0)
    result = execute(g, {names["x"]: 2})
    assert result.ok and result.value == 3  # 5 - 2


def test_full_selection_absorbs_right_constants():
    g, names = _x_plus_const(const_value=42)
    run_instruction_selection(g)
    assert g.node(names["op"]).kind is NodeKind.TARGET_ADD_I
    assert names["c"] not in g  # nothing reads the Const anymore
    result = execute(g, {names["x"]: 1})
    assert result.ok and result.value == 43


def test_full_selection_on_a_loop():
    g, names = build_counting_loop(bound=5)
    optimize(g)
    run_instruction_selection(g)
    assert verify(g) == []
    kinds = {node.kind for _nid, node in g.items()}
    assert NodeKind.TARGET_PHI in kinds
    assert NodeKind.TARGET_COND in kinds
    assert NodeKind.TARGET_ADD_I in kinds  # counter step absorbed its 1
    assert NodeKind.TARGET_CMP_I in kinds  # bound absorbed too
    assert kinds.issubset(TARGET_KINDS | {NodeKind.BLOCK, NodeKind.START, NodeKind.END})
    result = execute(g)
    assert result.ok and result.value == 5


def test_full_selection_on_a_dynamic_diamond():
    g, names = build_diamond(cond_const=None)
    optimize(g)
    run_instruction_selection(g)
    assert verify(g) == []
    for inputs, expected in (({names["cond_src"]: 9}, 10), ({names["cond_src"]: 0}, 20)):
        result = execute(g, inputs)
        assert result.ok and result.value == expected


def test_selection_rejects_already_lowered_graphs():
    g, names = _x_plus_const()
    run_instruction_selection(g)
    with pytest.raises(ContractError, match="expects an IR-only graph"):
        run_instruction_selection(g)


def test_selection_rejects_graphs_with_div_or_mod():
    g, _names = build_div_graph()
    with pytest.raises(ContractError, match="survived instruction selection.*Div"):
        run_instruction_selection(g)


def test_selection_verifies_its_input():
    g, names = _x_plus_const()
    g.node(names["op"]).value = 1  # stray attribute, V8
    with pytest.raises(VerificationError, match="before instruction selection"):
        run_instruction_selection(g)


def test_immediate_kinds_all_have_arity_one():
    g, names = _x_plus_const()
    run_instruction_selection(g)
    for nid, node in g.items():
        if node.kind in IMMEDIATE_KINDS:
            assert len(g.operands_of(nid)) == 1
