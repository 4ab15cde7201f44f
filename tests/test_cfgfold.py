"""Control-flow cleanup rules, one at a time and through optimize()."""

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
)
from firmfold import cfgfold
from firmfold.cfgfold import (
    _exhaust_unused,
    cleanup_round,
    fix_edge_position,
    fold_cond,
    merge_blocks,
    optimize,
    remove_unreachable_block,
    remove_unreachable_node,
    remove_unreachable_phi_operand,
    simplify_trivial_phi,
)
from firmfold.constfold import fold_dataflow_fixpoint
from firmfold.errors import ContractError, GraphError, InterpreterError, VerificationError
from firmfold.interp import execute
from firmfold.ir import EdgeKind, NodeKind
from firmfold.verifier import verify
from reference_dce import dead_nodes, remove_unused_node, remove_unused_to_fixpoint


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
