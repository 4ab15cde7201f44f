"""Control-flow cleanup rules, one at a time and through optimize()."""

import itertools
import random

import pytest

from conftest import (
    CF,
    DF,
    build_add_graph,
    build_counting_loop,
    build_diamond,
    build_div_graph,
    build_infinite_loop,
    build_jmp_chain,
    finish_return,
    func_graph,
    golden_corpus,
    sized_gen_spec,
)
from firmfold import cfgfold
from firmfold.cfgfold import (
    _exhaust_unused,
    bypass_empty_block,
    cleanup_round,
    fix_edge_position,
    fold_cond,
    fold_redundant_cond,
    merge_blocks,
    optimize,
    remove_unreachable_block,
    remove_unreachable_node,
    remove_unreachable_phi_operand,
    simplify_trivial_phi,
    trapping_nodes,
)
from firmfold.constfold import fold_dataflow_fixpoint
from firmfold.errors import ContractError, GraphError, InterpreterError, VerificationError
from firmfold.graphio import generate
from firmfold.interp import TRAP_STEP_LIMIT, execute
from firmfold.ir import BINARY_KINDS, INT_MAX, INT_MIN, EdgeKind, NodeKind, Relation
from firmfold.verifier import verify
from reference_dce import dead_nodes, remove_unused_node, remove_unused_to_fixpoint
from test_optimize_schedule import _blocks, _cond, _const, _jmp, _load, _op


def _block_census(g):
    return sorted(n for n, node in g.items() if node.kind is NodeKind.BLOCK)


def _kind_census(g):
    return sorted(node.kind.value for _nid, node in g.items())


def test_fold_cond_takes_the_true_branch():
    g, names = build_diamond(cond_const=1)
    assert fold_cond(g, names["cond"]) is True
    cond = names["cond"]
    assert g.node(cond).kind is NodeKind.JMP
    assert g.operands_of(cond) == []
    taken = g.control_in_edges(names["then_b"])
    assert len(taken) == 1 and taken[0].kind is EdgeKind.CONTROLFLOW
    assert g.control_in_edges(names["else_b"]) == []


def test_fold_cond_takes_the_false_branch_on_zero():
    g, names = build_diamond(cond_const=0)
    assert fold_cond(g, names["cond"]) is True
    assert g.control_in_edges(names["then_b"]) == []
    assert len(g.control_in_edges(names["else_b"])) == 1


def test_fold_cond_ignores_dynamic_conditions():
    g, names = build_diamond(cond_const=None)
    assert fold_cond(g, names["cond"]) is False
    assert g.node(names["cond"]).kind is NodeKind.COND


def test_unreachable_block_then_node_removal():
    g, names = build_diamond(cond_const=0)
    fold_cond(g, names["cond"])
    then_b, then_jmp = names["then_b"], names["then_jmp"]
    assert remove_unreachable_block(g) is True
    # the dead arm goes, and its Jmp with it, in the same call
    assert then_b not in g and then_jmp not in g
    # the start block, the end block and the still reachable join stay
    assert names["entry"] in g and g.end_block in g and names["join"] in g
    assert remove_unreachable_block(g) is False
    assert remove_unreachable_node(g, names["phi"]) is False  # still housed


def test_phi_operand_prune_renumber_and_simplify():
    g, names = build_diamond(cond_const=0)
    phi, join = names["phi"], names["join"]
    fold_cond(g, names["cond"])
    remove_unreachable_block(g)
    assert names["then_jmp"] not in g

    # predecessor 0 (the then side) is gone; the operand follows
    assert remove_unreachable_phi_operand(g, phi) is True
    assert [pos for _op, pos in g.operands_of(phi)] == [1]

    # positions are compacted and the Phi operand moves with them
    assert fix_edge_position(g, join) is True
    assert [e.position for e in g.control_in_edges(join)] == [0]
    assert [pos for _op, pos in g.operands_of(phi)] == [0]
    assert fix_edge_position(g, join) is False

    # one operand left: the Phi dissolves into it
    ret = names["ret"]
    assert simplify_trivial_phi(g, phi) is True
    assert phi not in g
    (op, _pos), = g.operands_of(ret)
    assert g.node(op).value == 20


def test_fix_edge_position_rejects_non_blocks():
    g, names = build_add_graph()
    with pytest.raises(GraphError, match="expects a Block"):
        fix_edge_position(g, names["add"])


def test_simplify_trivial_phi_keeps_self_loops():
    g, entry, _ = func_graph()
    phi = g.add_node(NodeKind.PHI, block=entry)
    g.add_edge(phi, phi, DF, 0)
    assert simplify_trivial_phi(g, phi) is False
    assert phi in g


def test_remove_unused_node_rules():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    vol = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(vol, addr, DF, 0)
    plain = g.add_node(NodeKind.LOAD, block=entry)
    g.add_edge(plain, addr, DF, 0)
    store = g.add_node(NodeKind.STORE, volatile=True, block=entry)
    g.add_edge(store, addr, DF, 0)
    g.add_edge(store, c, DF, 1)
    quiet_store = g.add_node(NodeKind.STORE, block=entry)
    g.add_edge(quiet_store, addr, DF, 0)
    g.add_edge(quiet_store, c, DF, 1)

    assert remove_unused_node(g, vol) is False  # volatile loads stay
    assert remove_unused_node(g, store) is False  # stores stay
    assert remove_unused_node(g, quiet_store) is False  # non-volatile ones too
    assert remove_unused_node(g, c) is False  # the store reads it
    assert remove_unused_node(g, plain) is True
    assert remove_unused_node(g, addr) is False  # vol and store read it


def _sweep_matches_the_references(g):
    """_exhaust_unused deletes exactly the greatest dead set, a superset of
    what remove_unused_node run to its fixpoint deletes; returns the swept
    graph."""
    oracle, swept = g.copy(), g.copy()
    remove_unused_to_fixpoint(oracle)
    dead = dead_nodes(g)
    assert _exhaust_unused(swept) is bool(dead)
    deleted = set(g.node_ids()) - set(swept.node_ids())
    assert deleted == dead
    assert deleted >= set(g.node_ids()) - set(oracle.node_ids())
    return swept


def test_unused_sweep_matches_the_references_on_the_golden_corpus():
    for g in golden_corpus():
        _sweep_matches_the_references(g)
        fold_dataflow_fixpoint(g)
        _sweep_matches_the_references(g)


def test_unused_sweep_deletes_a_dead_chain():
    g, names = build_add_graph()
    entry = names["entry"]
    c1 = g.add_node(NodeKind.CONST, value=1, block=entry)
    c2 = g.add_node(NodeKind.CONST, value=2, block=entry)
    add = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(add, c1, DF, 0)
    g.add_edge(add, c2, DF, 1)
    neg = g.add_node(NodeKind.NOT, block=entry)
    g.add_edge(neg, add, DF, 0)
    swept = _sweep_matches_the_references(g)
    assert not {c1, c2, add, neg} & set(swept.node_ids())
    assert {names["a"], names["b"], names["add"]} <= set(swept.node_ids())


def test_unused_sweep_counts_each_operand_edge():
    g, names = build_add_graph()
    entry = names["entry"]
    x = g.add_node(NodeKind.CONST, value=3, block=entry)
    double = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(double, x, DF, 0)
    g.add_edge(double, x, DF, 1)
    swept = _sweep_matches_the_references(g)
    assert x not in swept and double not in swept
    # With a live reader beside the dead Add(x, x), x stays.
    live = g.add_node(NodeKind.NOT, block=entry)
    g.add_edge(live, x, DF, 0)
    g.retarget_edge(g.in_edges(names["add"], DF)[0], live)
    swept = _sweep_matches_the_references(g)
    assert double not in swept and x in swept and live in swept


def _same_verdict(before, after):
    """Runs both graphs, asserts one verdict and returns both results."""
    a, b = execute(before), execute(after)
    assert (a.value, a.trapped) == (b.value, b.trapped)
    return a, b


def test_unused_sweep_deletes_a_self_reading_phi():
    g, names = build_counting_loop(bound=5)
    seven = g.add_node(NodeKind.CONST, value=7, block=names["entry"])
    idle = g.add_node(NodeKind.PHI, block=names["header"])
    g.add_edge(idle, seven, DF, 0)
    g.add_edge(idle, idle, DF, 1)
    oracle = g.copy()
    assert remove_unused_to_fixpoint(oracle) is False
    swept = _sweep_matches_the_references(g)
    assert set(g.node_ids()) - set(swept.node_ids()) == {seven, idle}
    before, after = _same_verdict(g, swept)
    assert after.value == 5 and after.steps < before.steps


def test_unused_sweep_deletes_a_dead_phi_add_cycle():
    g, names = build_add_graph()
    entry = names["entry"]
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    phi = g.add_node(NodeKind.PHI, block=entry)
    add = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(phi, add, DF, 0)
    g.add_edge(add, phi, DF, 0)
    g.add_edge(add, c, DF, 1)
    oracle = g.copy()
    assert remove_unused_to_fixpoint(oracle) is False
    swept = _sweep_matches_the_references(g)
    assert set(g.node_ids()) - set(swept.node_ids()) == {c, phi, add}
    _before, after = _same_verdict(g, swept)
    assert after.value == 3
    assert _exhaust_unused(swept) is False


def test_optimize_deletes_an_unread_loop_accumulator():
    # The generator's loop shape: acc = Phi(0, acc_next) in the header,
    # acc_next = acc + 1 in the body, and nothing else reads either.
    g, names = build_counting_loop(bound=5)
    zero = g.add_node(NodeKind.CONST, value=0, block=names["entry"])
    one = g.add_node(NodeKind.CONST, value=1, block=names["body"])
    acc = g.add_node(NodeKind.PHI, block=names["header"])
    acc_next = g.add_node(NodeKind.ADD, block=names["body"])
    g.add_edge(acc, zero, DF, 0)
    g.add_edge(acc, acc_next, DF, 1)
    g.add_edge(acc_next, acc, DF, 0)
    g.add_edge(acc_next, one, DF, 1)
    assert verify(g) == []
    oracle = g.copy()
    remove_unused_to_fixpoint(oracle)
    assert {acc, acc_next} <= set(oracle.node_ids())
    optimized = g.copy()
    optimize(optimized)
    assert not {zero, one, acc, acc_next} & set(optimized.node_ids())
    before, after = _same_verdict(g, optimized)
    assert after.value == 5 and after.steps < before.steps


def test_unused_sweep_keeps_volatile_loads_and_stores():
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    vol = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(vol, addr, DF, 0)
    store = g.add_node(NodeKind.STORE, volatile=True, block=entry)
    g.add_edge(store, addr, DF, 0)
    g.add_edge(store, c, DF, 1)
    plain = g.add_node(NodeKind.LOAD, block=entry)
    g.add_edge(plain, addr, DF, 0)
    swept = _sweep_matches_the_references(g)
    assert {addr, c, vol, store} <= set(swept.node_ids())
    assert plain not in swept


def test_merge_blocks_collapses_jmp_chain():
    g, names = build_jmp_chain(k=2, ret_value=7)
    entry = names["entry"]
    hop1, hop2 = names["hops"]
    assert merge_blocks(g, hop1) is True
    assert hop1 not in g
    assert merge_blocks(g, hop2) is True
    assert merge_blocks(g, names["tail"]) is True
    assert _block_census(g) == [entry, g.end_block]
    assert g.block_of(names["ret"]) == entry
    result = execute(g)
    assert result.ok and result.value == 7


def test_merge_blocks_guards():
    g, names = build_diamond(cond_const=None)
    # two predecessors
    assert merge_blocks(g, names["join"]) is False
    # reached through a True edge, not a plain Jmp
    assert merge_blocks(g, names["then_b"]) is False
    # anchors stay
    assert merge_blocks(g, names["entry"]) is False
    assert merge_blocks(g, g.end_block) is False

    # a block whose only entry is its own Jmp must not merge into itself
    h, entry, _ = func_graph()
    b = h.add_node(NodeKind.BLOCK)
    jmp = h.add_node(NodeKind.JMP, block=b)
    h.add_edge(b, jmp, CF, 0)
    assert merge_blocks(h, b) is False

    # a single-predecessor block with a Phi stays put
    k, entry2, _ = func_graph()
    c = k.add_node(NodeKind.CONST, value=3, block=entry2)
    j = k.add_node(NodeKind.JMP, block=entry2)
    b2 = k.add_node(NodeKind.BLOCK)
    k.add_edge(b2, j, CF, 0)
    phi = k.add_node(NodeKind.PHI, block=b2)
    k.add_edge(phi, c, DF, 0)
    finish_return(k, b2, phi)
    assert merge_blocks(k, b2) is False


def test_cleanup_round_settles_a_static_diamond():
    g, names = build_diamond(cond_const=0)
    assert cleanup_round(g) is True
    assert _block_census(g) == [names["entry"], g.end_block]
    (op, _pos), = g.operands_of(names["ret"])
    assert g.node(op).value == 20
    assert verify(g) == []
    assert cleanup_round(g) is False
    result = execute(g)
    assert result.ok and result.value == 20


def test_one_sweep_per_rule_settles_the_golden_corpus(monkeypatch):
    # optimize's round loop is the only loop that repeats cleanup: a second
    # sweep of each rule, right after its sweep in cleanup_round, finds nothing.
    sweep = cfgfold._sweep

    def sweep_twice(g, rule, kinds):
        fired = sweep(g, rule, kinds)
        assert sweep(g, rule, kinds) is False, rule.__name__
        return fired

    monkeypatch.setattr(cfgfold, "_sweep", sweep_twice)
    for g in golden_corpus():
        optimize(g)


def test_optimize_static_diamond_end_to_end():
    g, names = build_diamond(cond_const=1)
    rounds = []
    assert optimize(g, on_round=lambda r, graph: rounds.append(r)) is True
    assert rounds == [1, 2]  # one working round, one quiet round
    (op, _pos), = g.operands_of(names["ret"])
    assert g.node(op).value == 10
    assert optimize(g) is False


def test_optimize_round_limit():
    g, _ = build_diamond(cond_const=0)
    with pytest.raises(ContractError, match="exceeded 1 round"):
        optimize(g, max_rounds=1)
    g2, _ = build_diamond(cond_const=0)
    optimize(g2, max_rounds=2)  # exactly enough


def test_optimize_verifies_its_input():
    g, names = build_add_graph()
    extra = g.add_node(NodeKind.CONST, value=5, block=names["entry"])
    g.add_edge(names["add"], extra, DF, 2)
    with pytest.raises(VerificationError, match="before optimize"):
        optimize(g)


def test_optimize_keeps_divide_by_zero():
    g, names = build_div_graph(divisor_const=0)
    optimize(g)
    assert names["div"] in g
    assert g.node(names["div"]).kind is NodeKind.DIV
    result = execute(g, {names["x"]: 7})
    assert result.trapped == "divide-by-zero"


def test_optimize_deletes_an_unread_phi_over_a_trapping_div():
    # The Div's trap is deferred into the Phi nobody reads, so the graph
    # returns 7 before optimize as well as after.
    g, entry, _ = func_graph()
    loads = []
    for addr_value in (0, 1):
        addr = g.add_node(NodeKind.CONST, value=addr_value, block=entry)
        loads.append(g.add_node(NodeKind.LOAD, volatile=True, block=entry))
        g.add_edge(loads[-1], addr, DF, 0)
    x, d = loads
    div = g.add_node(NodeKind.DIV, block=entry)
    g.add_edge(div, x, DF, 0)
    g.add_edge(div, d, DF, 1)
    jmp = g.add_node(NodeKind.JMP, block=entry)
    after = g.add_node(NodeKind.BLOCK)
    g.add_edge(after, jmp, CF, 0)
    phi = g.add_node(NodeKind.PHI, block=after)
    g.add_edge(phi, div, DF, 0)
    finish_return(g, after, g.add_node(NodeKind.CONST, value=7, block=after))
    assert verify(g) == [] and len(g) == 14
    inputs = {x: 5, d: 0}
    assert execute(g, inputs).value == 7
    optimized = g.copy()
    optimize(optimized)
    assert len(optimized) == 10 and div not in optimized and phi not in optimized
    assert execute(optimized, inputs).value == 7


def test_optimize_refines_a_phi_read_before_its_sibling_is_assigned():
    # On first entry p1 reads its sibling p2, which holds no value yet: an
    # InterpreterError, not a trap. Neither Phi is read, so optimize deletes
    # both, and the graph returns 3.
    g, entry, _ = func_graph()
    one = g.add_node(NodeKind.CONST, value=1, block=entry)
    jmp = g.add_node(NodeKind.JMP, block=entry)
    after = g.add_node(NodeKind.BLOCK)
    g.add_edge(after, jmp, CF, 0)
    p2 = g.add_node(NodeKind.PHI, block=after)
    g.add_edge(p2, one, DF, 0)
    p1 = g.add_node(NodeKind.PHI, block=after)
    g.add_edge(p1, p2, DF, 0)
    finish_return(g, after, g.add_node(NodeKind.CONST, value=3, block=after))
    assert verify(g) == []
    with pytest.raises(InterpreterError, match="read before any predecessor"):
        execute(g)
    optimize(g)
    assert p1 not in g and p2 not in g
    assert execute(g).value == 3


def test_optimize_keeps_infinite_loops():
    g, _ = build_infinite_loop()
    optimize(g)
    result = execute(g, max_steps=100)
    assert result.trapped == "step-limit"
    assert result.steps == 101


def test_optimize_removes_a_dead_loop():
    # The entry's Cond(Const 0) skips a loop whose header re-tests a
    # volatile Load. Each loop block keeps a predecessor inside the loop,
    # so only a walk from the start block shows the loop is dead.
    g, entry, _ = func_graph()
    zero = g.add_node(NodeKind.CONST, value=0, block=entry)
    cond = g.add_node(NodeKind.COND, block=entry)
    g.add_edge(cond, zero, DF, 0)
    header = g.add_node(NodeKind.BLOCK)
    body = g.add_node(NodeKind.BLOCK)
    exit_b = g.add_node(NodeKind.BLOCK)
    g.add_edge(header, cond, EdgeKind.TRUE, 0)
    g.add_edge(exit_b, cond, EdgeKind.FALSE, 0)
    addr = g.add_node(NodeKind.CONST, value=0, block=header)
    load = g.add_node(NodeKind.LOAD, volatile=True, block=header)
    g.add_edge(load, addr, DF, 0)
    loop_cond = g.add_node(NodeKind.COND, block=header)
    g.add_edge(loop_cond, load, DF, 0)
    g.add_edge(body, loop_cond, EdgeKind.TRUE, 0)
    g.add_edge(header, loop_cond, EdgeKind.FALSE, 1)
    back = g.add_node(NodeKind.JMP, block=body)
    g.add_edge(header, back, CF, 2)
    ret = finish_return(g, exit_b, g.add_node(NodeKind.CONST, value=7, block=exit_b))
    assert verify(g) == [] and len(g) == 15
    assert execute(g).value == 7
    optimize(g)
    assert _kind_census(g) == ["Block", "Block", "Const", "End", "Return", "Start"]
    (op, _pos), = g.operands_of(ret)
    assert g.node(op).value == 7
    assert verify(g) == []
    assert execute(g).value == 7


def test_optimize_removes_a_dead_chain_in_one_round():
    # Cond(Const 1) never takes its False arm, a chain of three blocks
    # that feeds operand 1 of the join's Phi.
    g, entry, _ = func_graph()
    one = g.add_node(NodeKind.CONST, value=1, block=entry)
    taken = g.add_node(NodeKind.CONST, value=3, block=entry)
    untaken = g.add_node(NodeKind.CONST, value=9, block=entry)
    cond = g.add_node(NodeKind.COND, block=entry)
    g.add_edge(cond, one, DF, 0)
    join = g.add_node(NodeKind.BLOCK)
    g.add_edge(join, cond, EdgeKind.TRUE, 0)
    chain = [g.add_node(NodeKind.BLOCK) for _ in range(3)]
    g.add_edge(chain[0], cond, EdgeKind.FALSE, 0)
    for block, nxt in zip(chain, chain[1:]):
        g.add_edge(nxt, g.add_node(NodeKind.JMP, block=block), CF, 0)
    g.add_edge(join, g.add_node(NodeKind.JMP, block=chain[-1]), CF, 1)
    phi = g.add_node(NodeKind.PHI, block=join)
    g.add_edge(phi, taken, DF, 0)
    g.add_edge(phi, untaken, DF, 1)
    finish_return(g, join, phi)
    assert verify(g) == []
    assert execute(g).value == 3
    rounds = []
    optimize(g, on_round=lambda r, graph: rounds.append(r))
    assert rounds == [1, 2]  # one working round, one quiet round
    assert _kind_census(g) == ["Block", "Block", "Const", "End", "Return", "Start"]
    assert execute(g).value == 3


def test_optimize_leaves_a_real_loop_running():
    g, names = build_counting_loop(bound=5)
    optimize(g)
    assert verify(g) == []
    assert g.node(names["phi"]).kind is NodeKind.PHI
    assert g.node(names["cond"]).kind is NodeKind.COND
    assert _block_census(g) == sorted(
        [names["entry"], names["header"], names["body"], names["after"], g.end_block]
    )
    result = execute(g)
    assert result.ok and result.value == 5


# -- empty arms and redundant branches ---------------------------------------

EDGE_VALUES = (INT_MIN, -1, 0, 1, INT_MAX)


def _verdicts(g):
    """(value, trapped) of g with its volatile Loads fed EDGE_VALUES: every
    combination for up to two Loads, else one value for all Loads at a
    time."""
    loads = sorted(n for n, node in g.items() if node.kind is NodeKind.LOAD and node.volatile)
    if len(loads) <= 2:
        mixes = itertools.product(EDGE_VALUES, repeat=len(loads))
    else:
        mixes = ((v,) * len(loads) for v in EDGE_VALUES)
    return [
        (r.value, r.trapped)
        for r in (execute(g, dict(zip(loads, mix))) for mix in mixes)
    ]


def _control_in(g, block):
    return [(e.kind, e.position, e.dst) for e in g.control_in_edges(block)]


def _optimize_keeps_verdicts(g):
    """optimize a copy of g; both verify and give the same verdicts."""
    assert verify(g) == []
    optimized = g.copy()
    optimize(optimized)
    assert cfgfold._plain_control(optimized)
    assert _verdicts(optimized) == _verdicts(g)
    return optimized


def test_bypass_puts_both_arms_of_a_phi_diamond_on_one_cond():
    g, names = build_diamond()
    before = _verdicts(g)
    cond, join = names["cond"], names["join"]
    assert bypass_empty_block(g, names["then_b"]) is True
    assert bypass_empty_block(g, names["else_b"]) is True
    assert names["then_b"] not in g and names["then_jmp"] not in g
    assert names["else_b"] not in g and names["else_jmp"] not in g
    assert _control_in(g, join) == [(EdgeKind.TRUE, 0, cond), (EdgeKind.FALSE, 1, cond)]
    assert verify(g) == [] and cfgfold._plain_control(g)
    assert _verdicts(g) == before
    # the Phi tells the two edges apart
    assert fold_redundant_cond(g, cond, trapping_nodes(g)) is False
    optimized = _optimize_keeps_verdicts(build_diamond()[0])
    assert optimized.node(cond).kind is NodeKind.COND and names["phi"] in optimized
    assert _kind_census(optimized) == sorted(
        ["Block", "Block", "Block", "Start", "End", "Const", "Load", "Cond",
         "Const", "Const", "Phi", "Return"]
    )


def _empty_diamond(condition):
    """A Cond in the entry over condition(g, entry), two arms that hold
    only a Jmp, and a join without Phis that returns a Load."""
    g, entry, _ = func_graph()
    then_b, else_b, join = _blocks(g, 3)
    cond = _cond(g, entry, condition(g, entry), (then_b, 0), (else_b, 0))
    _jmp(g, then_b, join, 0)
    _jmp(g, else_b, join, 1)
    finish_return(g, join, _load(g, join))
    return g, cond


def test_a_diamond_of_empty_arms_without_phis_folds_away():
    g, cond = _empty_diamond(
        lambda g, entry: _op(g, NodeKind.ADD, entry, _load(g, entry), _load(g, entry))
    )
    optimized = _optimize_keeps_verdicts(g)
    # one code block: the condition went unread, its Loads stay
    assert _kind_census(optimized) == sorted(
        ["Block", "Block", "Start", "End", "Const", "Load", "Const", "Load",
         "Const", "Load", "Return"]
    )
    assert _block_census(optimized) == [g.start_block, g.end_block]
    assert cond not in optimized


def test_a_loop_body_that_only_jumps_back_becomes_a_self_edge():
    # i = Phi(0, n) and n = i + 1 in the header, which loops while n < x;
    # the body holds only its Jmp back to the header.
    g, entry, _ = func_graph()
    x = _load(g, entry)
    zero, one = _const(g, entry, 0), _const(g, entry, 1)
    header, body, exit_b = _blocks(g, 3)
    _jmp(g, entry, header, 0)
    i = g.add_node(NodeKind.PHI, block=header)
    n = _op(g, NodeKind.ADD, header, i, one)
    g.add_edge(i, zero, DF, 0)
    g.add_edge(i, n, DF, 1)
    less = g.add_node(NodeKind.CMP, relation=Relation.LESS, block=header)
    g.add_edge(less, n, DF, 0)
    g.add_edge(less, x, DF, 1)
    cond = _cond(g, header, less, (body, 0), (exit_b, 0))
    back = _jmp(g, body, header, 1)
    finish_return(g, exit_b, i)
    before = _verdicts(g)
    assert bypass_empty_block(g, body) is True
    assert body not in g and back not in g
    assert _control_in(g, header)[1] == (EdgeKind.TRUE, 1, cond)
    assert g.block_of(cond) == header
    assert verify(g) == [] and cfgfold._plain_control(g)
    assert _verdicts(g) == before
    assert execute(g, {x: 1}).value == 0 and execute(g, {x: 4}).value == 3


def test_bypass_refuses_an_arm_with_a_phi_or_a_second_member():
    for member in ("phi", "load"):
        g, names = build_diamond()
        arm = names["then_b"]
        if member == "phi":
            phi = g.add_node(NodeKind.PHI, block=arm)
            g.add_edge(phi, names["cond_src"], DF, 0)
        else:
            _load(g, arm)
        assert verify(g) == []
        assert bypass_empty_block(g, arm) is False
        _optimize_keeps_verdicts(g)


def test_bypass_refuses_a_true_edge_into_a_non_cond():
    g, entry, _ = func_graph()
    arm, tail = _blocks(g, 2)
    jmp = g.add_node(NodeKind.JMP, block=entry)
    g.add_edge(arm, jmp, EdgeKind.TRUE, 0)
    _jmp(g, arm, tail, 0)
    finish_return(g, tail, _const(g, tail, 1))
    assert bypass_empty_block(g, arm) is False
    # and a block entered by a plain Controlflow edge is merge_blocks' case
    g, names = build_jmp_chain(2)
    assert bypass_empty_block(g, names["hops"][0]) is False


def _redundant_cond_over(condition):
    """entry jumps to b, where condition(g, entry, b) is read by a Cond
    whose True and False edges both enter the tail; the tail returns a Load."""
    g, entry, _ = func_graph()
    b, tail = _blocks(g, 2)
    _jmp(g, entry, b, 0)
    cond = _cond(g, b, condition(g, entry, b), (tail, 0), (tail, 1))
    finish_return(g, tail, _load(g, entry))
    return g, cond


def test_a_redundant_cond_over_a_div_through_a_phi_is_kept():
    def through_phi(g, entry, b):
        div = _op(g, NodeKind.DIV, entry, _load(g, entry), _load(g, entry))
        phi = g.add_node(NodeKind.PHI, block=b)
        g.add_edge(phi, div, DF, 0)
        return phi

    g, cond = _redundant_cond_over(through_phi)
    phi = g.operands_of(cond)[0][0]
    assert phi in trapping_nodes(g)
    assert fold_redundant_cond(g, cond, trapping_nodes(g)) is False
    optimized = _optimize_keeps_verdicts(g)
    assert optimized.node(cond).kind is NodeKind.COND
    assert "divide-by-zero" in {t for _v, t in _verdicts(optimized)}


def test_a_redundant_cond_over_a_volatile_load_folds_and_keeps_the_load():
    g, cond = _redundant_cond_over(lambda g, entry, b: _load(g, b))
    load = g.operands_of(cond)[0][0]
    before = _verdicts(g)
    assert trapping_nodes(g) == set()
    assert fold_redundant_cond(g, cond, trapping_nodes(g)) is True
    assert g.node(cond).kind is NodeKind.JMP and g.operands_of(cond) == []
    assert [(k, p) for k, p, _dst in _control_in(g, g.in_edges(cond)[0].src)] == [
        (EdgeKind.CONTROLFLOW, 0)
    ]
    assert verify(g) == [] and _verdicts(g) == before
    optimized = _optimize_keeps_verdicts(_redundant_cond_over(lambda g, entry, b: _load(g, b))[0])
    assert load in optimized and optimized.node(load).kind is NodeKind.LOAD
    assert NodeKind.COND not in {node.kind for _nid, node in optimized.items()}


def test_a_redundant_cond_keeps_its_lower_edge_and_renumbers_the_join():
    # The join's third predecessor moves down to position 1.
    g, entry, _ = func_graph()
    b, other, join = _blocks(g, 3)
    _cond(g, entry, _load(g, entry), (b, 0), (other, 0))
    cond = _cond(g, b, _load(g, entry), (join, 1), (join, 0))
    _load(g, other)
    other_jmp = _jmp(g, other, join, 2)
    finish_return(g, join, _load(g, entry))
    assert fold_redundant_cond(g, cond, trapping_nodes(g)) is True
    assert _control_in(g, join) == [
        (EdgeKind.CONTROLFLOW, 0, cond), (EdgeKind.CONTROLFLOW, 1, other_jmp)
    ]
    assert verify(g) == []


def _with_div_and_mod(seed):
    """A generated graph with about a third of its binary ops retyped to
    Div or Mod, seeded."""
    rng = random.Random(50_000 + seed)
    g = generate(seed, sized_gen_spec(rng))
    binary = [nid for nid, node in g.items() if node.kind in BINARY_KINDS]
    for nid in rng.sample(binary, len(binary) // 3):
        g.retype_node(nid, rng.choice((NodeKind.DIV, NodeKind.MOD)))
    return g, rng


def test_optimize_keeps_every_trap_on_graphs_with_div_and_mod():
    # Verdicts before and after optimize on seeded inputs that hit zero
    # divisors and INT_MIN / -1; a run that hits the step limit on either
    # side says nothing, since no rule keeps that trap.
    compared = trapped = 0
    for seed in range(300):
        g, rng = _with_div_and_mod(seed)
        assert verify(g) == []
        optimized = g.copy()
        optimize(optimized)
        loads = sorted(n for n, node in g.items() if node.kind is NodeKind.LOAD and node.volatile)
        for _ in range(4):
            inputs = {n: rng.choice((*EDGE_VALUES, rng.randint(-9, 9))) for n in loads}
            a, b = execute(g, inputs, 20_000), execute(optimized, inputs, 20_000)
            if TRAP_STEP_LIMIT in (a.trapped, b.trapped):
                continue
            assert (a.value, a.trapped) == (b.value, b.trapped), seed
            compared += 1
            trapped += a.trapped is not None
    assert compared > 900 and trapped > 20


class _CountingTable(dict):
    """An incidence table that counts the lists read from it."""

    reads = 0

    def __getitem__(self, key):
        _CountingTable.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        _CountingTable.reads += 1
        return super().get(key, default)


def _redundant_diamonds_over_a_chain(k, div_at_base):
    """s_1 = x - 1, ..., s_k = s_{k-1} - 1 in the entry, then k diamonds in
    a row, diamond i a Cond over s_i whose two arms hold only a Jmp to the
    next. With div_at_base, x is a Div and no Cond may fold; otherwise x is
    a Load and a Div the last block returns sits aside."""
    g, entry, _ = func_graph()
    x = _load(g, entry)
    side = _op(g, NodeKind.DIV, entry, _load(g, entry), _load(g, entry))
    if div_at_base:
        x = side
    one = _const(g, entry, 1)
    links = []
    for _ in range(k):
        x = _op(g, NodeKind.SUB, entry, x, one)
        links.append(x)
    (block,) = _blocks(g, 1)
    _jmp(g, entry, block, 0)
    for link in links:
        then_b, else_b, nxt = _blocks(g, 3)
        _cond(g, block, link, (then_b, 0), (else_b, 0))
        _jmp(g, then_b, nxt, 0)
        _jmp(g, else_b, nxt, 1)
        block = nxt
    finish_return(g, block, side)
    return g


@pytest.mark.parametrize("div_at_base", [False, True])
def test_the_trap_analysis_is_linear_in_the_conds_over_a_shared_chain(div_at_base):
    # Once the arms are bypassed, one redundant-branch sweep reads incidence
    # lists in proportion to the graph, however many Conds share the chain:
    # a walk per Cond would read k(k+1)/2 links.
    counts = {}
    for k in (100, 400, 1600):
        g = _redundant_diamonds_over_a_chain(k, div_at_base)
        assert verify(g) == []
        assert cfgfold._CLEANUP_STEPS["bypass"](g)
        g._in, g._out = _CountingTable(g._in), _CountingTable(g._out)
        _CountingTable.reads = 0
        fired = cfgfold._CLEANUP_STEPS["redundant"](g)
        counts[k] = _CountingTable.reads
        assert fired is not div_at_base
        conds = sum(node.kind is NodeKind.COND for _nid, node in g.items())
        assert conds == (k if div_at_base else 0)
    assert counts[400] <= 4 * counts[100] * 1.25
    assert counts[1600] <= 4 * counts[400] * 1.25
