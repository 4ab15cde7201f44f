"""Folding rules and the wavefront driver, fold_dataflow_fixpoint.

The driver tests pin down the visit order by recording the calls it makes
through constfold.fold_not, the first rule it tries on every visit: ids
are handed out monotonically and a front is visited ascending, so a chain
built outermost-first needs one front per link, while the same chain
built innermost-first cascades through in a single front.
"""

import pytest

from conftest import DF, build_add_graph, finish_return, func_graph
from firmfold import constfold
from firmfold.cfgfold import optimize
from firmfold.constfold import (
    fold_assoc_comm,
    fold_binary,
    fold_dataflow_fixpoint,
    fold_not,
    fold_phi,
)
from firmfold.errors import InterpreterError
from firmfold.interp import execute
from firmfold.ir import EdgeKind, FirmGraph, NodeKind, Relation
from firmfold.verifier import verify


def _only_const_value(g, user):
    (operand, _pos), = g.operands_of(user)
    node = g.node(operand)
    assert node.kind is NodeKind.CONST
    return node.value


def _count_add_node(monkeypatch, limit=None):
    """A one-item list holding the number of FirmGraph.add_node calls made
    from now on. With a limit, the call after the limit-th raises, so a
    rule that keeps adding nodes fails instead of hanging."""
    calls = [0]
    add_node = FirmGraph.add_node

    def counting(self, *args, **kwargs):
        calls[0] += 1
        if limit is not None and calls[0] > limit:
            raise RuntimeError(f"more than {limit} add_node calls")
        return add_node(self, *args, **kwargs)

    monkeypatch.setattr(FirmGraph, "add_node", counting)
    return calls


def _record_visits(monkeypatch):
    """The (id, live) pairs fold_dataflow_fixpoint hands to fold_not, in
    call order."""
    visits = []
    rule = constfold.fold_not

    def recording(g, nid):
        visits.append((nid, nid in g))
        return rule(g, nid)

    monkeypatch.setattr(constfold, "fold_not", recording)
    return visits


def test_first_front_is_the_users_of_every_const(monkeypatch):
    g, names = build_add_graph()
    entry = names["entry"]
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    load = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(load, addr, DF, 0)
    neg = g.add_node(NodeKind.NOT, block=entry)  # reads no Const
    g.add_edge(neg, load, DF, 0)
    visits = _record_visits(monkeypatch)
    assert fold_dataflow_fixpoint(g) is True
    # add and load read Consts; only the folded add's users come next
    assert visits == [(names["add"], True), (load, True), (names["ret"], True)]


def test_fold_not():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=0, block=entry)
    n = g.add_node(NodeKind.NOT, block=entry)
    g.add_edge(n, c, DF, 0)
    ret = finish_return(g, entry, n)
    const = fold_not(g, n)
    assert const is not None
    assert n not in g
    assert g.node(const).value == -1
    assert g.users_of(const) == [(ret, 0)]


def test_fold_not_leaves_dynamic_operands():
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    load = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(load, addr, DF, 0)
    n = g.add_node(NodeKind.NOT, block=entry)
    g.add_edge(n, load, DF, 0)
    assert fold_not(g, n) is None
    assert n in g


def _binary_graph(kind, a, b, relation=None):
    g, entry, _ = func_graph()
    ca = g.add_node(NodeKind.CONST, value=a, block=entry)
    cb = g.add_node(NodeKind.CONST, value=b, block=entry)
    op = g.add_node(kind, relation=relation, block=entry)
    g.add_edge(op, ca, DF, 0)
    g.add_edge(op, cb, DF, 1)
    ret = finish_return(g, entry, op)
    return g, op, ret


@pytest.mark.parametrize(
    "kind,a,b,relation,expected",
    [
        (NodeKind.ADD, 1, 2, None, 3),
        (NodeKind.SUB, -(2**31), 1, None, 2**31 - 1),
        (NodeKind.MUL, 65536, 65536, None, 0),
        (NodeKind.AND, 12, 10, None, 8),
        (NodeKind.SHL, 1, 33, None, 2),
        (NodeKind.SHR, -8, 1, None, -4),
        (NodeKind.DIV, -7, 2, None, -3),
        (NodeKind.MOD, 7, -2, None, 1),
        (NodeKind.CMP, 1, 2, Relation.LESS, 1),
        (NodeKind.CMP, 2, 2, Relation.LESS, 0),
    ],
)
def test_fold_binary_values(kind, a, b, relation, expected):
    g, op, ret = _binary_graph(kind, a, b, relation)
    const = fold_binary(g, op)
    assert const is not None
    assert op not in g
    assert g.node(const).value == expected
    assert g.users_of(const) == [(ret, 0)]


def test_fold_binary_never_divides_by_const_zero():
    for kind in (NodeKind.DIV, NodeKind.MOD):
        g, op, _ = _binary_graph(kind, 7, 0)
        assert fold_binary(g, op) is None
        assert op in g


def test_fold_binary_needs_two_const_operands():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    load = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(load, addr, DF, 0)
    op = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(op, c, DF, 0)
    g.add_edge(op, load, DF, 1)
    assert fold_binary(g, op) is None


def test_fold_rules_skip_wrong_kinds_and_dead_ids():
    g, names = build_add_graph()
    assert fold_not(g, names["add"]) is None
    assert fold_phi(g, names["add"]) is None
    assert fold_binary(g, names["a"]) is None
    assert fold_binary(g, 99999) is None
    assert fold_not(g, 99999) is None
    assert fold_phi(g, 99999) is None


def _phi_graph(operands):
    """A two-predecessor join whose Phi reads the given entry consts."""
    g, entry, _ = func_graph()
    c = {v: g.add_node(NodeKind.CONST, value=v, block=entry) for v in set(operands)}
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    load = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(load, addr, DF, 0)
    cond = g.add_node(NodeKind.COND, block=entry)
    g.add_edge(cond, load, DF, 0)
    bt = g.add_node(NodeKind.BLOCK)
    bf = g.add_node(NodeKind.BLOCK)
    g.add_edge(bt, cond, EdgeKind.TRUE, 0)
    g.add_edge(bf, cond, EdgeKind.FALSE, 0)
    jt = g.add_node(NodeKind.JMP, block=bt)
    jf = g.add_node(NodeKind.JMP, block=bf)
    join = g.add_node(NodeKind.BLOCK)
    g.add_edge(join, jt, EdgeKind.CONTROLFLOW, 0)
    g.add_edge(join, jf, EdgeKind.CONTROLFLOW, 1)
    phi = g.add_node(NodeKind.PHI, block=join)
    for pos, v in enumerate(operands):
        g.add_edge(phi, c[v], DF, pos)
    ret = finish_return(g, join, phi)
    return g, phi, ret, c, load


def test_fold_phi_single_const():
    g, phi, ret, consts, _ = _phi_graph([4, 4])
    const = fold_phi(g, phi)
    assert const == consts[4]
    assert phi not in g
    assert g.users_of(const) == [(ret, 0)]


def test_fold_phi_ignores_self_references():
    g, phi, ret, consts, _ = _phi_graph([4, 4])
    g.add_edge(phi, phi, DF, 2)
    assert fold_phi(g, phi) == consts[4]


def test_fold_phi_mixed_operands_stay():
    g, phi, _, _, _ = _phi_graph([4, 5])
    assert fold_phi(g, phi) is None
    assert phi in g

    g, phi, _, _, load = _phi_graph([4, 4])
    e = g.operand_edges(phi)[1]
    g.retarget_edge(e, load)
    assert fold_phi(g, phi) is None


def test_fold_phi_needs_at_least_one_real_operand():
    g, phi, _, _, _ = _phi_graph([4, 4])
    for e in g.operand_edges(phi):
        g.retarget_edge(e, phi)
    assert fold_phi(g, phi) is None


def test_fold_assoc_comm_merges_constants():
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=3, block=entry)
    x = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(x, addr, DF, 0)
    c12 = g.add_node(NodeKind.CONST, value=12, block=entry)
    inner = g.add_node(NodeKind.AND, block=entry)
    g.add_edge(inner, x, DF, 0)
    g.add_edge(inner, c12, DF, 1)
    c10 = g.add_node(NodeKind.CONST, value=10, block=entry)
    outer = g.add_node(NodeKind.AND, block=entry)
    g.add_edge(outer, inner, DF, 0)
    g.add_edge(outer, c10, DF, 1)
    ret = finish_return(g, entry, outer)

    c3 = fold_assoc_comm(g, outer)
    assert c3 is not None
    assert g.node(c3).value == 8  # 12 & 10
    assert g.operands_of(outer) == [(x, 0), (c3, 1)]
    assert g.users_of(outer) == [(ret, 0)]
    # the inner node is disconnected from outer but not deleted here
    assert inner in g
    assert g.users_of(inner) == []


def test_fold_assoc_comm_handles_shared_const_node():
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    x = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(x, addr, DF, 0)
    c5 = g.add_node(NodeKind.CONST, value=5, block=entry)
    inner = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(inner, x, DF, 0)
    g.add_edge(inner, c5, DF, 1)
    outer = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(outer, inner, DF, 0)
    g.add_edge(outer, c5, DF, 1)
    finish_return(g, entry, outer)
    c3 = fold_assoc_comm(g, outer)
    assert g.node(c3).value == 10
    assert g.operands_of(outer) == [(x, 0), (c3, 1)]


def test_fold_assoc_comm_requires_the_shape():
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    x = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(x, addr, DF, 0)
    c1 = g.add_node(NodeKind.CONST, value=1, block=entry)
    sub = g.add_node(NodeKind.SUB, block=entry)
    g.add_edge(sub, x, DF, 0)
    g.add_edge(sub, c1, DF, 1)
    outer_sub = g.add_node(NodeKind.SUB, block=entry)
    g.add_edge(outer_sub, sub, DF, 0)
    g.add_edge(outer_sub, c1, DF, 1)
    finish_return(g, entry, outer_sub)
    assert fold_assoc_comm(g, outer_sub) is None  # Sub is not commutative

    # commutative outer over a different inner kind
    orr = g.add_node(NodeKind.OR, block=entry)
    g.add_edge(orr, sub, DF, 0)
    g.add_edge(orr, c1, DF, 1)
    assert fold_assoc_comm(g, orr) is None

    # no constant on the outer node
    both = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(both, sub, DF, 0)
    g.add_edge(both, sub, DF, 1)
    assert fold_assoc_comm(g, both) is None


def _nested_add_chain(k, outer_first, volatile=False):
    """Return((...((x + c) + c)...)) with k Add nodes over Consts c; x is
    a Const, or a volatile Load when volatile is set.

    outer_first controls id order: True allocates the outermost Add with
    the smallest id, False with the largest. Returns the graph, the Adds
    from the outermost in, x and the Return.
    """
    g, entry, _ = func_graph()
    order = list(range(k))
    adds = {}
    for i in order if outer_first else reversed(order):
        adds[i] = g.add_node(NodeKind.ADD, block=entry)
    consts = [g.add_node(NodeKind.CONST, value=i + 1, block=entry) for i in range(k + 1)]
    x = consts[k]
    if volatile:
        x = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
        g.add_edge(x, consts[k], DF, 0)
    for i in range(k):
        inner = adds[i + 1] if i + 1 < k else x
        g.add_edge(adds[i], inner, DF, 0)
        g.add_edge(adds[i], consts[i], DF, 1)
    ret = finish_return(g, entry, adds[0])
    return g, [adds[i] for i in order], x, ret


def test_each_front_is_the_users_of_the_last_fronts_consts(monkeypatch):
    g, adds, _x, ret = _nested_add_chain(5, outer_first=True)
    visits = _record_visits(monkeypatch)
    fold_dataflow_fixpoint(g)
    # the seed front visits every Add; later fronts hold only the one user
    # of the Const just made, never an id an earlier front visited
    expected = sorted(adds) + adds[3::-1] + [ret]
    assert visits == [(nid, True) for nid in expected]


def test_wavefront_count_outermost_first_is_one_per_link(monkeypatch):
    g, _adds, _x, ret = _nested_add_chain(5, outer_first=True)
    visits = _record_visits(monkeypatch)
    assert fold_dataflow_fixpoint(g) is True
    # 5 Adds in the seed front, then one front per remaining link and one
    # quiet front for the Return
    assert len(visits) == 10
    assert _only_const_value(g, ret) == 1 + 2 + 3 + 4 + 5 + 6


def test_wavefront_count_innermost_first_cascades_in_one_front(monkeypatch):
    g, _adds, _x, ret = _nested_add_chain(5, outer_first=False)
    visits = _record_visits(monkeypatch)
    assert fold_dataflow_fixpoint(g) is True
    assert len(visits) == 6
    assert _only_const_value(g, ret) == 1 + 2 + 3 + 4 + 5 + 6


def test_fold_dataflow_fixpoint_skips_dead_ids(monkeypatch):
    g, adds, _x, ret = _nested_add_chain(5, outer_first=False)
    visits = _record_visits(monkeypatch)
    fold_dataflow_fixpoint(g)
    # the second front also names the four outer Adds, folded away by then
    assert visits == [(nid, True) for nid in sorted(adds)] + [(ret, True)]


@pytest.mark.parametrize("k", [5, 40])
@pytest.mark.parametrize("outer_first", [True, False])
def test_optimize_settles_an_assoc_chain_in_one_round(monkeypatch, k, outer_first):
    g, _adds, x, ret = _nested_add_chain(k, outer_first, volatile=True)
    before = g.copy()
    rounds = []
    added = _count_add_node(monkeypatch)
    optimize(g, on_round=lambda n, _g: rounds.append(n))
    # one round reassociates the whole chain; reassociation makes only the
    # unused sweep due, which runs later in the same round, so no round follows
    assert rounds == [1]
    # one fresh Const per link that still has a link below it when visited:
    # the outermost's call settles the chain in one rewrite, and each inner
    # link, dead by then, settles its own shorter chain once
    assert added[0] == k - 1
    (add, _pos), = g.operands_of(ret)
    assert g.node(add).kind is NodeKind.ADD
    (op0, _), (c, _) = g.operands_of(add)
    assert op0 == x
    assert g.node(c).kind is NodeKind.CONST and g.node(c).value == k * (k + 1) // 2
    for value in (3, -7):
        a, b = execute(before, {x: value}), execute(g, {x: value})
        assert (a.value, a.trapped) == (b.value, b.trapped)
        assert b.value == value + k * (k + 1) // 2


def _add_ring(n):
    """n Adds a_i = a_{i-1} + Const, indices mod n, so the Adds form a
    dataflow cycle through no Phi; one more Add a_0 + Const, read by the
    Return, makes the ring live. Returns the graph and its node ids."""
    g, entry, _ = func_graph()
    ring = [g.add_node(NodeKind.ADD, block=entry) for _ in range(n)]
    for i, add in enumerate(ring):
        g.add_edge(add, ring[i - 1], DF, 0)
        g.add_edge(add, g.add_node(NodeKind.CONST, value=i + 1, block=entry), DF, 1)
    reader = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(reader, ring[0], DF, 0)
    g.add_edge(reader, g.add_node(NodeKind.CONST, value=7, block=entry), DF, 1)
    finish_return(g, entry, reader)
    return g, list(g.node_ids())


@pytest.mark.parametrize("n", [2, 3])
def test_fold_assoc_comm_refuses_a_chain_that_runs_into_a_cycle(monkeypatch, n):
    g, ids = _add_ring(n)
    assert verify(g) == []  # the verifier accepts a cycle through no Phi
    with pytest.raises(InterpreterError):
        execute(g, {})
    # a walk around the ring that kept rewriting would add a Const per step
    _count_add_node(monkeypatch, limit=100)
    assert [fold_assoc_comm(g, nid) for nid in ids] == [None] * len(ids)
    optimize(g)
    assert verify(g) == []
    with pytest.raises(InterpreterError):
        execute(g, {})


def test_fold_dataflow_fixpoint_reports_change_once():
    g, names = build_add_graph()
    assert fold_dataflow_fixpoint(g) is True
    assert _only_const_value(g, names["ret"]) == 3
    # dead inputs are someone else's job; folding only rewrites values
    assert names["a"] in g
    assert names["b"] in g
    assert fold_dataflow_fixpoint(g) is False
