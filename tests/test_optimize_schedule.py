"""optimize's due rules against the every-round driver.

optimize runs a rule only while a rule that can give it a new match has
fired since it last ran (cfgfold._ENABLES). tests/reference_optimize.py
keeps the driver that ran every rule every round; a skipped rule is one
that would have missed there, so both must leave the same graph.

The first part checks that on the golden corpus, on seeded graphs of wide
shapes, on graphs with Div and Mod, and on hand-built corners, and that
optimize's output is a fixpoint of every rule. The second part gives each
entry of the table a witness: a hand-built graph on which optimize without
that one entry leaves a different graph or a rule that still fires.
"""

import random

import pytest

from conftest import (
    CF,
    DF,
    build_jmp_chain,
    finish_return,
    func_graph,
    golden_corpus,
)
from firmfold import cfgfold
from firmfold.cfgfold import cleanup_round, optimize
from firmfold.constfold import fold_dataflow_fixpoint
from firmfold.errors import VerificationError
from firmfold.graphio import GenSpec, generate, to_json
from firmfold.ir import BINARY_KINDS, EdgeKind, NodeKind
from firmfold.isel import run_instruction_selection
from firmfold.verifier import verify
from reference_optimize import reference_optimize

K = NodeKind
TRUE, FALSE = EdgeKind.TRUE, EdgeKind.FALSE


def _outcome(run, g):
    """The canonical text of g after run, and the VerificationError run
    raised on the way out, if any: the graph is compared either way."""
    try:
        run(g)
    except VerificationError as exc:
        return to_json(g), str(exc)
    return to_json(g), None


def _settled(g) -> bool:
    """Whether no rule fires on g: neither the dataflow fixpoint nor any
    step of a standalone cleanup round."""
    return not fold_dataflow_fixpoint(g) and not cleanup_round(g)


def _assert_same_as_reference(g, lower=True):
    ours, ref = g.copy(), g.copy()
    optimize(ours)
    reference_optimize(ref)
    assert to_json(ours) == to_json(ref)
    # a check that finds nothing to do changes nothing
    assert _settled(ours)
    if lower:
        run_instruction_selection(ours)
        run_instruction_selection(ref)
        assert to_json(ours) == to_json(ref)


# Builders for small graphs. Blocks are wired as in graphio: a Block's
# control edge points at its predecessor's transfer, at a position.


def _blocks(g, n):
    return [g.add_node(K.BLOCK) for _ in range(n)]


def _const(g, block, value):
    return g.add_node(K.CONST, value=value, block=block)


def _op(g, kind, block, *operands):
    nid = g.add_node(kind, block=block)
    for pos, operand in enumerate(operands):
        g.add_edge(nid, operand, DF, pos)
    return nid


def _load(g, block):
    load = g.add_node(K.LOAD, volatile=True, block=block)
    g.add_edge(load, _const(g, block, 0), DF, 0)
    return load


def _jmp(g, block, to, pos):
    jmp = g.add_node(K.JMP, block=block)
    g.add_edge(to, jmp, CF, pos)
    return jmp


def _cond(g, block, operand, true_to, false_to):
    """A Cond in block over operand; true_to and false_to are (block, position)."""
    cond = _op(g, K.COND, block, operand)
    g.add_edge(true_to[0], cond, TRUE, true_to[1])
    g.add_edge(false_to[0], cond, FALSE, false_to[1])
    return cond


# -- the differential ----------------------------------------------------------


def test_golden_corpus_matches_the_every_round_driver():
    for g in golden_corpus():
        assert cfgfold._plain_control(g)
        _assert_same_as_reference(g)


def test_optimize_keeps_plain_control_on_the_golden_corpus():
    # bypass_empty_block moves an edge onto a Cond, in place of the one it
    # deletes; a Cond still has one True and one False edge, and no Jmp
    # gains an edge.
    for g in golden_corpus():
        optimize(g)
        assert cfgfold._plain_control(g)


def _wide_spec(rng) -> GenSpec:
    blocks = rng.randint(4, 40)
    return GenSpec(
        blocks=blocks,
        ops_per_block=rng.randint(1, 8),
        const_ratio=rng.uniform(0.0, 1.0),
        loop_count=min(rng.randint(0, 3), (blocks - 2) // 3),
        input_count=rng.randint(0, 3),
    )


@pytest.mark.parametrize("first", range(0, 2000, 250))
def test_seeded_wide_graphs_match_the_every_round_driver(first):
    for seed in range(first, first + 250):
        _assert_same_as_reference(generate(seed, _wide_spec(random.Random(seed))))


def test_graphs_with_div_and_mod_match_the_every_round_driver():
    # isel rejects Div and Mod, so only optimize's output is compared.
    for seed in range(300):
        rng = random.Random(70_000 + seed)
        g = generate(seed, _wide_spec(rng))
        binary = [nid for nid, node in g.items() if node.kind in BINARY_KINDS]
        for nid in rng.sample(binary, len(binary) // 3):
            g.retype_node(nid, rng.choice((K.DIV, K.MOD)))
        assert verify(g) == []
        _assert_same_as_reference(g, lower=False)


def _add_chain(outer_first, k=6):
    """Return((..(x + 1) + 2 ..) + k) for a volatile Load x; outer_first
    gives the outermost Add the smallest id."""
    g, entry, _ = func_graph()
    x = _load(g, entry)
    adds = [g.add_node(K.ADD, block=entry) for _ in range(k)]
    if not outer_first:
        adds.reverse()
    inner = x
    for i, add in enumerate(reversed(adds)):
        g.add_edge(add, inner, DF, 0)
        g.add_edge(add, _const(g, entry, i + 1), DF, 1)
        inner = add
    finish_return(g, entry, inner)
    return g


def _phi_free_ring():
    """Three Adds a_i = a_{i-1} + Const, read by one more Add the Return
    reads: a dataflow cycle through no Phi, which verify accepts."""
    g, entry, _ = func_graph()
    ring = [g.add_node(K.ADD, block=entry) for _ in range(3)]
    for i, add in enumerate(ring):
        g.add_edge(add, ring[i - 1], DF, 0)
        g.add_edge(add, _const(g, entry, i + 1), DF, 1)
    finish_return(g, entry, _op(g, K.ADD, entry, ring[0], _const(g, entry, 7)))
    return g


def _dead_loop():
    """A Cond on Const 0 skips a loop that re-tests a volatile Load."""
    g, entry, _ = func_graph()
    header, body, exit_b = _blocks(g, 3)
    _cond(g, entry, _const(g, entry, 0), (header, 0), (exit_b, 0))
    _cond(g, header, _load(g, header), (body, 0), (header, 1))
    _jmp(g, body, header, 2)
    finish_return(g, exit_b, _const(g, exit_b, 7))
    return g


HAND_BUILT = {
    "dead loop": _dead_loop,
    "jump chain": lambda: build_jmp_chain(6)[0],
    "assoc chain, outermost first": lambda: _add_chain(True),
    "assoc chain, innermost first": lambda: _add_chain(False),
    "ring of Adds through no Phi": _phi_free_ring,
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_graphs_match_the_every_round_driver(name):
    g = HAND_BUILT[name]()
    assert verify(g) == []
    _assert_same_as_reference(g)


def test_a_merge_and_assoc_graph_runs_one_round_without_position_rules(monkeypatch):
    # A verified graph keeps V4 and V7 until a control edge goes, so the
    # position rules have nothing to do here and never run; reassociation
    # makes only the unused sweep due, and block merging nothing.
    g, names = build_jmp_chain(4)
    entry, tail = names["entry"], names["tail"]
    (ret,) = [nid for nid in g.members_of(tail) if g.node(nid).kind is K.RETURN]
    (edge,) = g.operand_edges(ret)
    x = _load(g, entry)
    inner = _op(g, K.ADD, entry, x, _const(g, entry, 2))
    g.retarget_edge(edge, _op(g, K.ADD, tail, inner, _const(g, tail, 3)))
    assert verify(g) == []
    calls = []
    for name in ("fix_edge_position", "remove_unreachable_phi_operand"):
        monkeypatch.setattr(cfgfold, name, lambda g, nid, name=name: calls.append(name))
    rounds = []
    assert optimize(g, on_round=lambda r, _g: rounds.append(r)) is True
    assert rounds == [1]
    assert calls == []
    assert sorted(node.kind.value for _nid, node in g.items()) == sorted(
        ["Block", "Block", "Start", "End", "Const", "Load", "Add", "Const", "Return"]
    )


def test_a_graph_without_plain_control_runs_every_rule_each_round(monkeypatch):
    # One Jmp enters two blocks. Merging the second deletes the Jmp, and
    # with it the first block's edge from it: a rewrite _ENABLES does not
    # foresee for merge_blocks. verify accepts the graph, so optimize
    # falls back to running every rule every round, as the reference does.
    g, entry, _ = func_graph()
    first, second = _blocks(g, 2)
    jmp = _jmp(g, entry, first, 0)
    g.add_edge(second, jmp, CF, 0)
    finish_return(g, first, _const(g, first, 1))
    _jmp(g, second, first, 1)
    assert verify(g) == []
    assert not cfgfold._plain_control(g)
    _assert_same_as_reference(g)
    # with the table alone, the orphaned position would stay
    expected = _outcome(reference_optimize, g.copy())
    monkeypatch.setattr(cfgfold, "_plain_control", lambda g: True)
    assert _outcome(optimize, g.copy()) != expected


def test_the_position_rules_become_due_together():
    # fix_edge_position relies on remove_unreachable_phi_operand having run
    # right before it in the same round.
    table = cfgfold._ENABLES
    assert {r for r in table if "fep" in table[r]} == {r for r in table if "phi_op" in table[r]}


# -- witnesses for the table -------------------------------------------------------


def _cut_join(y_in_dead_block=False, busy_arm=False):
    """A join of three arms whose third arm a Cond on Const 1 cuts in round
    1. Its Phi p = Phi(4, 4, y) reads y on that arm, so p folds only in
    round 2: y lives in the entry, so remove_unreachable_phi_operand prunes
    it, or in the cut arm's own block, which the reachability sweep deletes.
    The other two arms are empty, so round 1 bypasses them and the split's
    Cond enters the join by both edges, which fold_redundant_cond folds once
    p is gone; with busy_arm the left arm holds a volatile Load and stays.
    Returns the graph, the join, p, the Const 4 and a volatile Load x."""
    g, entry, _ = func_graph()
    split, left, right, join = _blocks(g, 4)
    x = _load(g, entry)
    four = _const(g, entry, 4)
    if y_in_dead_block:
        (cut,) = _blocks(g, 1)
        y = _const(g, cut, 9)
        _jmp(g, cut, join, 2)
        _cond(g, entry, _const(g, entry, 1), (split, 0), (cut, 0))
    else:
        y = _const(g, entry, 9)
        _cond(g, entry, _const(g, entry, 1), (split, 0), (join, 2))
    _cond(g, split, x, (left, 0), (right, 0))
    if busy_arm:
        _load(g, left)
    _jmp(g, left, join, 0)
    _jmp(g, right, join, 1)
    p = _op(g, K.PHI, join, four, four, y)
    return g, join, p, four, x


def _w_fold_then_cond():
    # round 2 folds p, and only then can the Cond over p fold; the tail's
    # Phi, which tells its two edges apart, keeps fold_redundant_cond off it
    g, join, p, four, x = _cut_join()
    (tail,) = _blocks(g, 1)
    _cond(g, join, p, (tail, 0), (tail, 1))
    finish_return(g, tail, _op(g, K.PHI, tail, x, four))
    return g


def _w_fold_then_assoc():
    # round 2 folds p, which makes p + x a link under the outer Add
    g, join, p, _four, x = _cut_join()
    inner = _op(g, K.ADD, join, p, x)
    finish_return(g, join, _op(g, K.ADD, join, inner, _const(g, join, 3)))
    return g


def _w_fold_then_unused():
    # round 2 folds p and then p * 5, whose Const 5 nothing else reads; the
    # busy arm keeps the split's Cond, whose fold would make the sweep due
    g, join, p, _four, _x = _cut_join(busy_arm=True)
    finish_return(g, join, _op(g, K.MUL, join, p, _const(g, join, 5)))
    return g


def _w_cut_join_returns_p(y_in_dead_block):
    g, join, p, _four, _x = _cut_join(y_in_dead_block)
    finish_return(g, join, p)
    return g


def _w_cond_in_round_two_cuts_a_block():
    # round 2 folds the Cond over p; its untaken arm holds z, which the
    # tail's Phi reads, so the sweep leaves that Phi one operand
    g, join, p, _four, x = _cut_join()
    dead, tail = _blocks(g, 2)
    _cond(g, join, p, (tail, 0), (dead, 0))
    z = _const(g, dead, 9)
    _jmp(g, dead, tail, 1)
    finish_return(g, tail, _op(g, K.PHI, tail, x, z))
    return g


def _w_cond_in_round_two_prunes_a_phi():
    # as above, but the untaken edge enters the tail directly, so phi_op,
    # not the sweep, leaves the tail's Phi one operand
    g, join, p, _four, x = _cut_join()
    (tail,) = _blocks(g, 1)
    _cond(g, join, p, (tail, 0), (tail, 1))
    finish_return(g, tail, _op(g, K.PHI, tail, x, _const(g, join, 9)))
    return g


def _w_join_loses_position_zero(by_cond):
    # The join's position 0 goes, by folding a Cond on Const 0 or by
    # deleting a block nothing enters. Two arms of a dynamic Cond keep the
    # join from merging, so only phi_op and fix_edge_position mend its Phi
    # and its positions.
    g, entry, _ = func_graph()
    join, mid = _blocks(g, 2)
    if by_cond:
        _cond(g, entry, _const(g, entry, 0), (join, 0), (mid, 0))
    else:
        (dead,) = _blocks(g, 1)
        _jmp(g, dead, join, 0)
        _jmp(g, entry, mid, 0)
    _cond(g, mid, _load(g, entry), (join, 1), (join, 2))
    phi = _op(g, K.PHI, join, *(_load(g, entry) for _ in range(3)))
    finish_return(g, join, phi)
    return g


def _w_cond_frees_its_const():
    # no Phi, no dead block: only the unused sweep removes the Const 1
    g, entry, _ = func_graph()
    (join,) = _blocks(g, 1)
    _cond(g, entry, _const(g, entry, 1), (join, 0), (join, 1))
    finish_return(g, join, _load(g, entry))
    return g


def _w_unreachable_block_frees_a_value():
    # a block nothing enters returns x + 2; deleting it leaves x + 2 unread
    g, entry, end = func_graph()
    x = _load(g, entry)
    finish_return(g, entry, x)
    (dead,) = _blocks(g, 1)
    ret = _op(g, K.RETURN, dead, _op(g, K.ADD, entry, x, _const(g, entry, 2)))
    g.add_edge(end, ret, CF, 1)
    return g


def _phi_becomes_const(g, entry):
    """Round 1 folds a Cond on Const 1 into the join it enters twice; phi_op
    then leaves q = Phi(0, v) one operand and simplify replaces it by the
    Const 0, so a Cond over q can fold only in round 2. Returns the join,
    q and the Const 0."""
    (join,) = _blocks(g, 1)
    _cond(g, entry, _const(g, entry, 1), (join, 0), (join, 1))
    zero = _const(g, entry, 0)
    return join, _op(g, K.PHI, join, zero, _load(g, entry)), zero


def _w_simplify_then_cond():
    # Round 2 folds the Cond over q (Const 0: the False edge to b is
    # taken); nothing else fires before it, and the Return keeps the Const
    # 0 live. a, entered by the True edge and by b's Jmp, then has b's Jmp
    # alone, so only that fold makes a and b mergeable. The Cond enters two
    # blocks, so it is not redundant, and b's Load keeps b from being
    # bypassed.
    g, entry, _ = func_graph()
    join, q, zero = _phi_becomes_const(g, entry)
    a, b = _blocks(g, 2)
    _cond(g, join, q, (a, 0), (b, 0))
    _load(g, b)
    _jmp(g, b, a, 1)
    finish_return(g, a, zero)
    return g


def _w_simplify_then_cond_and_assoc():
    # round 2 folds the Cond over q (Const 0: the False edge is taken),
    # which cuts the tail's position 1; phi_op and simplify then replace
    # the tail's Phi by the link l, under the Add the Return reads
    g, entry, _ = func_graph()
    join, q, _zero = _phi_becomes_const(g, entry)
    (tail,) = _blocks(g, 1)
    _cond(g, join, q, (tail, 1), (tail, 0))
    link = _op(g, K.ADD, entry, _load(g, entry), _const(g, entry, 4))
    phi = _op(g, K.PHI, tail, link, _load(g, entry))
    finish_return(g, tail, _op(g, K.ADD, tail, phi, _const(g, tail, 3)))
    return g


def _w_cut_ring():
    # Round 2 folds the Cond over q and deletes its untaken arm, which
    # holds r2 of the ring r1 = r2 + 5, r2 = r1 + 5. r1 keeps one operand,
    # so the chain n = (r1 + 7) + 8, which ran into the ring, now ends at
    # r1 and reassociates. r1's lone operand fails V3 on the way out.
    g, entry, _ = func_graph()
    join, q, _zero = _phi_becomes_const(g, entry)
    dead, tail = _blocks(g, 2)
    _cond(g, join, q, (dead, 0), (tail, 0))
    _jmp(g, dead, tail, 1)
    r1 = g.add_node(K.ADD, block=entry)
    r2 = _op(g, K.ADD, dead, r1, _const(g, dead, 5))
    g.add_edge(r1, r2, DF, 0)
    g.add_edge(r1, _const(g, entry, 5), DF, 1)
    link = _op(g, K.ADD, entry, r1, _const(g, entry, 7))
    finish_return(g, tail, _op(g, K.ADD, tail, link, _const(g, tail, 8)))
    return g


def _w_simplify_then_fold():
    # A loop whose body Phi q = Phi(h) reads the header Phi h = Phi(3, q).
    # simplify replaces q by h, which leaves h = Phi(3, h): a fold.
    g, entry, _ = func_graph()
    header, body, exit_b = _blocks(g, 3)
    _jmp(g, entry, header, 0)
    h = g.add_node(K.PHI, block=header)
    q = _op(g, K.PHI, body, h)
    g.add_edge(h, _const(g, entry, 3), DF, 0)
    g.add_edge(h, q, DF, 1)
    _cond(g, header, _load(g, header), (body, 0), (exit_b, 0))
    _jmp(g, body, header, 1)
    finish_return(g, exit_b, h)
    return g


def _w_assoc_frees_links():
    return _add_chain(True, k=2)


def _w_cond_empties_its_block():
    # x holds only a Cond over q, which round 2 folds (Const 0: the False
    # edge to s is taken). a then has s's Jmp alone and merges into s, and
    # x, entered by the outer Cond's True edge, holds only a Jmp; bypassing
    # it moves s's edge onto the outer Cond, whose False edge enters s too.
    g, entry, _ = func_graph()
    join, q, zero = _phi_becomes_const(g, entry)
    x, a, s = _blocks(g, 3)
    _cond(g, join, _load(g, join), (x, 0), (s, 0))
    _cond(g, x, q, (a, 0), (s, 1))
    _jmp(g, s, a, 1)
    finish_return(g, a, zero)
    return g


def _w_div_cut_from_a_phi(in_cut_arm):
    # Round 2 folds the Cond over q (Const 0) and cuts the join's position
    # 2, where its Phi p reads a Div: in the cut arm, which the sweep
    # deletes, or in the entry, where phi_op prunes the edge. The Cond over
    # p, whose edges both enter the tail, then cannot trap. The Const 0 and
    # the Div stay read, so the unused sweep finds nothing.
    g, entry, _ = func_graph()
    join0, q, zero = _phi_becomes_const(g, entry)
    mid, join, tail = _blocks(g, 3)
    if in_cut_arm:
        (cut,) = _blocks(g, 1)
        div = _op(g, K.DIV, cut, _load(g, entry), _load(g, entry))
        _jmp(g, cut, join, 2)
        _cond(g, join0, q, (cut, 0), (mid, 0))
    else:
        div = _op(g, K.DIV, entry, _load(g, entry), _load(g, entry))
        _cond(g, join0, q, (join, 2), (mid, 0))
    _cond(g, mid, _load(g, entry), (join, 0), (join, 1))
    p = _op(g, K.PHI, join, zero, _load(g, entry), div)
    _cond(g, join, p, (tail, 0), (tail, 1))
    finish_return(g, tail, zero if in_cut_arm else div)
    return g


def _w_dead_phi_was_the_last():
    # Round 1 folds the inner Cond, over the Phi s; round 2's sweep then
    # deletes s, the last Phi of the block that both edges of the outer
    # Cond enter.
    g, entry, _ = func_graph()
    inner, tail = _blocks(g, 2)
    _cond(g, entry, _load(g, entry), (inner, 0), (inner, 1))
    s = _op(g, K.PHI, inner, _load(g, entry), _load(g, entry))
    _cond(g, inner, s, (tail, 0), (tail, 1))
    finish_return(g, tail, _load(g, entry))
    return g


def _w_empty_diamond(condition):
    # Round 1 bypasses both empty arms and folds the Cond, whose edges then
    # both enter the join; the join's one edge and the unread condition are
    # left for round 2.
    g, entry, _ = func_graph()
    then_b, else_b, join = _blocks(g, 3)
    _cond(g, entry, condition(g, entry), (then_b, 0), (else_b, 0))
    _jmp(g, then_b, join, 0)
    _jmp(g, else_b, join, 1)
    finish_return(g, join, _load(g, entry))
    return g


def _w_redundant_cond_empties_its_block():
    # Round 1 folds x's Cond, over a Load in the entry, into a Jmp, so x,
    # entered by the outer Cond's True edge, holds only a Jmp. s keeps two
    # predecessors, so nothing merges x away first.
    g, entry, _ = func_graph()
    x, y, s = _blocks(g, 3)
    _cond(g, entry, _load(g, entry), (x, 0), (y, 0))
    _cond(g, x, _load(g, entry), (s, 0), (s, 1))
    _load(g, y)
    _jmp(g, y, s, 2)
    finish_return(g, s, _load(g, entry))
    return g


# (rule that fired, rule it makes due) -> a graph on which optimize without
# that one entry leaves a different graph or a rule that still fires.
WITNESSES = {
    ("fold", "fold_cond"): _w_fold_then_cond,
    ("fold", "assoc"): _w_fold_then_assoc,
    ("fold", "unused"): _w_fold_then_unused,
    ("fold_cond", "reach"): _w_cond_in_round_two_cuts_a_block,
    ("fold_cond", "phi_op"): lambda: _w_join_loses_position_zero(True),
    ("fold_cond", "fep"): lambda: _w_join_loses_position_zero(True),
    ("fold_cond", "unused"): _w_cond_frees_its_const,
    ("fold_cond", "merge"): _w_simplify_then_cond,
    ("reach", "fold"): lambda: _w_cut_join_returns_p(True),
    ("reach", "phi_op"): lambda: _w_join_loses_position_zero(False),
    ("reach", "fep"): lambda: _w_join_loses_position_zero(False),
    ("reach", "simplify"): _w_cond_in_round_two_cuts_a_block,
    ("reach", "assoc"): _w_cut_ring,
    ("reach", "unused"): _w_unreachable_block_frees_a_value,
    ("phi_op", "fold"): lambda: _w_cut_join_returns_p(False),
    ("phi_op", "simplify"): _w_cond_in_round_two_prunes_a_phi,
    ("simplify", "fold"): _w_simplify_then_fold,
    ("simplify", "fold_cond"): _w_simplify_then_cond,
    ("simplify", "assoc"): _w_simplify_then_cond_and_assoc,
    ("assoc", "unused"): _w_assoc_frees_links,
    ("fold", "redundant"): lambda: _w_cut_join_returns_p(False),
    ("fold_cond", "bypass"): _w_cond_empties_its_block,
    ("reach", "redundant"): lambda: _w_div_cut_from_a_phi(True),
    ("phi_op", "redundant"): lambda: _w_div_cut_from_a_phi(False),
    ("unused", "redundant"): _w_dead_phi_was_the_last,
    ("bypass", "redundant"): _w_cond_empties_its_block,
    ("redundant", "merge"): lambda: _w_empty_diamond(_load),
    ("redundant", "unused"): lambda: _w_empty_diamond(
        lambda g, entry: _op(g, K.ADD, entry, _load(g, entry), _const(g, entry, 3))
    ),
    ("redundant", "bypass"): _w_redundant_cond_empties_its_block,
}


def _table_without(rule, target):
    table = dict(cfgfold._ENABLES)
    table[rule] = table[rule] - {target}
    return table


@pytest.mark.parametrize("rule, target", sorted(WITNESSES))
def test_each_witness_needs_its_entry(monkeypatch, rule, target):
    build = WITNESSES[(rule, target)]
    assert verify(build()) == []
    expected = _outcome(reference_optimize, build())
    ours = build()
    assert _outcome(optimize, ours) == expected
    assert _settled(ours)
    monkeypatch.setattr(cfgfold, "_ENABLES", _table_without(rule, target))
    broken = build()
    assert _outcome(optimize, broken) != expected or not _settled(broken)


def _single_entry_block(phi_operand=None, read=True):
    """entry jumps to b, which returns; with phi_operand, b holds
    q = Phi(phi_operand), returned when read is set. Returns g, b, q."""
    g, entry, _ = func_graph()
    (b,) = _blocks(g, 1)
    _jmp(g, entry, b, 0)
    x = _load(g, entry)
    q = None if phi_operand is None else _op(g, K.PHI, b, phi_operand(g, entry))
    finish_return(g, b, q if q is not None and read else x)
    return g, b, q


def _m_fold_phi_frees_a_block():
    return _single_entry_block(lambda g, entry: _const(g, entry, 5))[0]


def _m_dead_predecessor():
    g, entry, _ = func_graph()
    join, dead = _blocks(g, 2)
    _jmp(g, entry, join, 0)
    _jmp(g, dead, join, 1)
    finish_return(g, join, _load(g, entry))
    return g


def _m_pruned_operand_goes_unread():
    # The join has one predecessor but its Phi two operands, as after a cut
    # before phi_op runs; the pruned x + 2 is read nowhere else.
    g, entry, _ = func_graph()
    (join,) = _blocks(g, 1)
    _jmp(g, entry, join, 0)
    x = _load(g, entry)
    pruned = _op(g, K.ADD, entry, x, _const(g, entry, 2))
    finish_return(g, join, _op(g, K.PHI, join, x, pruned))
    return g


def _m_simplify_frees_a_block():
    return _single_entry_block(_load)[0]


def _m_dead_phi_frees_a_block():
    return _single_entry_block(_load, read=False)[0]


def _arm(member=None, dead_predecessor=False):
    """A Cond over a Load enters arm, whose Jmp enters join, and join; with
    member, arm holds member(g, entry, arm) too, and with dead_predecessor
    a block nothing enters jumps to arm as well."""
    g, entry, _ = func_graph()
    arm, join = _blocks(g, 2)
    _cond(g, entry, _load(g, entry), (arm, 0), (join, 0))
    if member is not None:
        member(g, entry, arm)
    _jmp(g, arm, join, 1)
    if dead_predecessor:
        (dead,) = _blocks(g, 1)
        _jmp(g, dead, arm, 1)
    finish_return(g, join, _load(g, entry))
    return g


def _m_phi_was_the_last_of_a_join():
    g, entry, _ = func_graph()
    (join,) = _blocks(g, 1)
    _cond(g, entry, _load(g, entry), (join, 0), (join, 1))
    _op(g, K.PHI, join, _load(g, entry))
    finish_return(g, join, _load(g, entry))
    return g


# Entries with no witness of the first kind, because whenever the rule can
# fire in optimize the target is due anyway:
# - fold -> merge: fold_phi can free a single-entry block only of a Phi with
#   one operand, and simplify has replaced every such Phi by then;
# - reach -> merge: the sweep fires only in round 1, where every rule is
#   due, or after fold_cond in the same round, and fold_cond makes merge due;
# - phi_op -> unused: phi_op fires only after fold_cond or the sweep in the
#   same round, and both make unused due;
# - simplify -> merge and unused -> merge: simplify fires in round 1 or
#   after phi_op or the sweep, and unused after a rule that makes merge due;
# - fold -> bypass: as fold -> merge, the Phi would be an arm's;
# - reach -> bypass: the sweep fires only in round 1 or after fold_cond in
#   the same round, and fold_cond makes bypass due;
# - simplify -> bypass and simplify -> redundant: simplify fires in round 1
#   or after phi_op or the sweep in the same round, and those fire only in
#   round 1 or after fold_cond or the sweep, which make bypass due; phi_op
#   and the sweep make redundant due;
# - unused -> bypass: unused fires after a rule that makes bypass due, or
#   after phi_op or assoc, which fire only after such a rule in the same
#   round.
# Each is still a rewrite that gives its target a match, shown here on a
# graph where one application of the rule does so.
MASKED = {
    ("fold", "merge"): _m_fold_phi_frees_a_block,
    ("reach", "merge"): _m_dead_predecessor,
    ("phi_op", "unused"): _m_pruned_operand_goes_unread,
    ("simplify", "merge"): _m_simplify_frees_a_block,
    ("unused", "merge"): _m_dead_phi_frees_a_block,
    ("fold", "bypass"): lambda: _arm(
        lambda g, entry, arm: _op(g, K.PHI, arm, _const(g, entry, 5))
    ),
    ("reach", "bypass"): lambda: _arm(dead_predecessor=True),
    ("simplify", "bypass"): lambda: _arm(
        lambda g, entry, arm: _op(g, K.PHI, arm, _load(g, entry))
    ),
    ("simplify", "redundant"): _m_phi_was_the_last_of_a_join,
    ("unused", "bypass"): lambda: _arm(
        lambda g, entry, arm: _op(g, K.ADD, arm, _load(g, entry), _const(g, arm, 2))
    ),
}


def test_every_entry_has_a_witness():
    table = cfgfold._ENABLES
    pairs = {(rule, target) for rule in table for target in table[rule]}
    assert pairs == set(WITNESSES) | set(MASKED)
    assert not set(WITNESSES) & set(MASKED)


@pytest.mark.parametrize("rule, target", sorted(MASKED))
def test_each_masked_entry_is_a_rewrite_that_gives_a_match(rule, target):
    steps = dict(cfgfold._CLEANUP_STEPS, fold=fold_dataflow_fixpoint)
    g = MASKED[(rule, target)]()
    assert not steps[target](g.copy())
    assert steps[rule](g)
    assert steps[target](g.copy())
