"""Graph container: construction legality, mutation, and bookkeeping."""

import copy
import random

import pytest

import reference_ir
from conftest import DF, build_add_graph, func_graph
from firmfold.errors import GraphError, NoBlockError
from firmfold.ir import EdgeKind, FirmGraph, NodeKind, Relation


def test_ids_are_dense_and_ascending():
    g, entry, _ = func_graph()
    a = g.add_node(NodeKind.CONST, value=1, block=entry)
    b = g.add_node(NodeKind.CONST, value=2, block=entry)
    assert b == a + 1
    assert list(g.node_ids()) == sorted(g.node_ids())


def test_ids_are_never_reused():
    g, entry, _ = func_graph()
    a = g.add_node(NodeKind.CONST, value=1, block=entry)
    g.delete_node(a)
    b = g.add_node(NodeKind.CONST, value=2, block=entry)
    assert b > a
    assert a not in g


def test_add_node_attribute_legality():
    g, entry, _ = func_graph()
    with pytest.raises(GraphError, match="cannot carry a value"):
        g.add_node(NodeKind.ADD, value=1, block=entry)
    with pytest.raises(GraphError, match="requires a value"):
        g.add_node(NodeKind.CONST, block=entry)
    with pytest.raises(GraphError, match="requires a relation"):
        g.add_node(NodeKind.CMP, block=entry)
    with pytest.raises(GraphError, match="cannot carry a relation"):
        g.add_node(NodeKind.ADD, relation=Relation.LESS, block=entry)
    with pytest.raises(GraphError, match="cannot carry a volatile"):
        g.add_node(NodeKind.ADD, volatile=True, block=entry)
    with pytest.raises(GraphError, match="outside 32-bit"):
        g.add_node(NodeKind.CONST, value=2**31, block=entry)


def test_add_node_rejects_attributes_the_format_cannot_carry():
    g, entry, _ = func_graph()
    for value in (1.5, True, "3"):
        with pytest.raises(GraphError, match="value must be an integer"):
            g.add_node(NodeKind.CONST, value=value, block=entry)
    for volatile in (1, 0, "yes"):
        with pytest.raises(GraphError, match="volatile must be a boolean"):
            g.add_node(NodeKind.LOAD, volatile=volatile, block=entry)
    assert len(g) == 4


def test_add_node_volatile_defaults_to_false_on_memory_kinds():
    g, entry, _ = func_graph()
    load = g.add_node(NodeKind.LOAD, block=entry)
    assert g.node(load).volatile is False
    store = g.add_node(NodeKind.STORE, volatile=True, block=entry)
    assert g.node(store).volatile is True


def _memberships(g):
    return sum(1 for _nid, n in g.items() if n.block is not None)


def test_add_node_containment():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    assert g.block_of(c) == entry
    assert g.node(c).block == entry
    assert c in g.members_of(entry)
    size = len(g)
    with pytest.raises(GraphError, match="needs a containing block"):
        g.add_node(NodeKind.CONST, value=1)
    with pytest.raises(GraphError, match="not contained in a block"):
        g.add_node(NodeKind.BLOCK, block=entry)
    with pytest.raises(GraphError, match=f"containing block {c} is not a Block"):
        g.add_node(NodeKind.CONST, value=1, block=c)
    with pytest.raises(GraphError, match="unknown node id 999"):
        g.add_node(NodeKind.CONST, value=1, block=999)
    # A refused node is not left behind.
    assert len(g) == size


def test_set_block_homes_only_an_orphan_in_a_block():
    g, entry, end = func_graph()
    side = g.add_node(NodeKind.BLOCK)
    c = g.add_node(NodeKind.CONST, value=1, block=side)
    before = g.edge_count
    g.delete_node(side)
    assert g.node(c).block is None
    assert g.edge_count == before - 1
    with pytest.raises(NoBlockError):
        g.block_of(c)
    with pytest.raises(GraphError, match="a Block is not contained in a block"):
        g.set_block(entry, end)
    with pytest.raises(GraphError, match="is not a Block"):
        g.set_block(c, c)
    with pytest.raises(GraphError, match="unknown node id"):
        g.set_block(c, 999)
    g.set_block(c, end)
    assert g.block_of(c) == end
    assert g.members_of(end) == sorted([c, *[n for n, node in g.items() if node.kind is NodeKind.END]])
    assert g.edge_count == before
    with pytest.raises(GraphError, match=f"node {c} is already in block {end}"):
        g.set_block(c, entry)


def test_move_members_rehomes_a_whole_block():
    g, entry, _ = func_graph()
    side = g.add_node(NodeKind.BLOCK)
    moved = [g.add_node(NodeKind.CONST, value=v, block=side) for v in range(3)]
    before = g.edge_count
    stay = g.members_of(entry)
    g.move_members(side, entry)
    assert g.members_of(side) == []
    assert g.members_of(entry) == sorted(stay + moved)
    assert all(g.block_of(m) == entry for m in moved)
    assert g.edge_count == before
    with pytest.raises(GraphError, match="two distinct blocks"):
        g.move_members(entry, entry)
    with pytest.raises(GraphError, match="is not a Block"):
        g.move_members(side, moved[0])


def test_add_edge_rules():
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    ret = g.add_node(NodeKind.RETURN, block=entry)
    with pytest.raises(GraphError, match="needs a position"):
        g.add_edge(ret, c, DF)
    with pytest.raises(GraphError, match="needs a position"):
        g.add_edge(ret, c, DF, -1)
    assert not hasattr(EdgeKind, "BLOCK")
    with pytest.raises(GraphError, match="must start at the target Block"):
        g.add_edge(ret, ret, EdgeKind.CONTROLFLOW, 0)
    with pytest.raises(GraphError, match="unknown node id"):
        g.add_edge(ret, 999, DF, 0)


def test_edge_count_tracks_mutations():
    g, names = build_add_graph()
    before = g.edge_count
    # One per edge and one per block membership.
    assert before == len(list(g.edges())) + _memberships(g) == 4 + 6
    extra = g.add_node(NodeKind.CONST, value=9, block=names["entry"])
    assert g.edge_count == before + 1  # its membership
    g.delete_node(extra)
    assert g.edge_count == before


def test_delete_node_removes_incident_edges():
    g, names = build_add_graph()
    add = names["add"]
    g.delete_node(names["ret"])
    g.delete_node(add)
    assert add not in g
    assert g.users_of(names["a"]) == []
    assert g.users_of(names["b"]) == []
    assert g.edge_count == len(list(g.edges())) + _memberships(g)


def test_delete_node_handles_self_loops_once():
    g, entry, _ = func_graph()
    phi = g.add_node(NodeKind.PHI, block=entry)
    g.add_edge(phi, phi, DF, 0)
    before = g.edge_count
    g.delete_node(phi)
    assert g.edge_count == before - 2  # self edge and membership
    assert g.edge_count == len(list(g.edges())) + _memberships(g)


def test_delete_node_refuses_anchor_nodes():
    g, entry, _ = func_graph()
    start = [n for n, node in g.items() if node.kind is NodeKind.START][0]
    with pytest.raises(GraphError, match="refusing to delete"):
        g.delete_node(start)
    x = g.add_node(NodeKind.CONST, value=1, block=entry)
    y = g.add_node(NodeKind.NOT, block=entry)
    g.add_edge(y, x, DF, 0)
    before = g.signature(), g.edge_count
    # A bad id anywhere in the set refuses the whole call, before any change.
    with pytest.raises(GraphError, match="refusing to delete"):
        g.delete_nodes([x, start])
    with pytest.raises(GraphError, match="unknown node id"):
        g.delete_nodes([x, 10**9])
    assert (g.signature(), g.edge_count) == before
    g.delete_nodes([x, x])  # a repeated id deletes the node once
    assert x not in g and g.in_edges(y) == [] and g.out_edges(y) == []
    assert g.edge_count == before[1] - 2  # its membership and y's operand edge


def test_retype_node_keeps_legal_attributes():
    g, entry, _ = func_graph()
    cmp = g.add_node(NodeKind.CMP, relation=Relation.LESS, block=entry)
    g.retype_node(cmp, NodeKind.TARGET_CMP)
    assert g.node(cmp).kind is NodeKind.TARGET_CMP
    assert g.node(cmp).relation is Relation.LESS

    c = g.add_node(NodeKind.CONST, value=7, block=entry)
    g.retype_node(c, NodeKind.TARGET_CONST)
    assert g.node(c).value == 7

    load = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.retype_node(load, NodeKind.TARGET_LOAD)
    assert g.node(load).volatile is True


def test_retype_node_drops_illegal_attributes():
    g, entry, _ = func_graph()
    cmp = g.add_node(NodeKind.CMP, relation=Relation.LESS, block=entry)
    g.retype_node(cmp, NodeKind.ADD)
    assert g.node(cmp).relation is None


def test_retype_node_refuses_anchors():
    g, entry, _ = func_graph()
    jmp = g.add_node(NodeKind.JMP, block=entry)
    with pytest.raises(GraphError, match="cannot retype"):
        g.retype_node(entry, NodeKind.JMP)
    with pytest.raises(GraphError, match="cannot retype"):
        g.retype_node(jmp, NodeKind.BLOCK)


def test_retype_node_keeps_edges():
    g, names = build_add_graph()
    add = names["add"]
    g.retype_node(add, NodeKind.SUB)
    assert [op for op, _ in g.operands_of(add)] == [names["a"], names["b"]]
    assert g.users_of(add) == [(names["ret"], 0)]


def test_retype_edge_only_between_control_kinds():
    g, entry, _ = func_graph()
    jmp = g.add_node(NodeKind.JMP, block=entry)
    b2 = g.add_node(NodeKind.BLOCK)
    e = g.add_edge(b2, jmp, EdgeKind.CONTROLFLOW, 0)
    g.retype_edge(e, EdgeKind.TRUE)
    assert e.kind is EdgeKind.TRUE
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    ret = g.add_node(NodeKind.RETURN, block=b2)
    df = g.add_edge(ret, c, DF, 0)
    with pytest.raises(GraphError, match="cannot retype"):
        g.retype_edge(df, EdgeKind.CONTROLFLOW)
    g.delete_edge(e)
    with pytest.raises(GraphError, match="not in the graph"):
        g.retype_edge(e, EdgeKind.CONTROLFLOW)


def test_retarget_edge_updates_incidence():
    g, names = build_add_graph()
    edge = g.operand_edges(names["add"])[0]
    g.retarget_edge(edge, names["b"])
    assert g.users_of(names["a"]) == []
    assert [u for u, _ in g.users_of(names["b"])] == [names["add"], names["add"]]


def test_redirect_users_moves_only_dataflow():
    g, names = build_add_graph()
    c9 = g.add_node(NodeKind.CONST, value=9, block=names["entry"])
    moved = g.redirect_users(names["add"], c9)
    assert moved == 1
    assert g.users_of(names["add"]) == []
    assert g.users_of(c9) == [(names["ret"], 0)]
    # the add's membership is untouched
    assert g.block_of(names["add"]) == names["entry"]
    with pytest.raises(GraphError, match="two distinct nodes"):
        g.redirect_users(c9, c9)


def test_users_and_operands_are_ordered():
    g, entry, _ = func_graph()
    a = g.add_node(NodeKind.CONST, value=1, block=entry)
    phi = g.add_node(NodeKind.PHI, block=entry)
    g.add_edge(phi, a, DF, 1)
    g.add_edge(phi, a, DF, 0)
    assert g.operands_of(phi) == [(a, 0), (a, 1)]
    assert g.users_of(a) == [(phi, 0), (phi, 1)]
    # within one position, ids ascend
    b = g.add_node(NodeKind.CONST, value=2, block=entry)
    g.add_edge(phi, b, DF, 0)
    g.add_edge(phi, a, DF, 0)
    assert g.operands_of(phi) == [(a, 0), (a, 0), (b, 0), (a, 1)]
    with pytest.raises(GraphError, match="unknown node id"):
        g.operands_of(12345)


def test_ordered_views_match_the_keyed_sort():
    # operand_edges and control_in_edges order short lists without a keyed
    # sort; the order must be the keyed sort's, ties on position broken by
    # the destination and full ties kept in insertion order.
    rng = random.Random(2024)
    for _ in range(400):
        g, entry, _ = func_graph()
        targets = [g.add_node(NodeKind.JMP, block=entry) for _ in range(3)]
        block = g.add_node(NodeKind.BLOCK)
        for _ in range(rng.randint(0, 5)):
            kind = rng.choice(list(EdgeKind))
            g.add_edge(block, rng.choice(targets), kind, rng.randint(0, 2))
        for view, keep in (
            (g.operand_edges, lambda e: e.kind is EdgeKind.DATAFLOW),
            (g.control_in_edges, lambda e: e.kind is not EdgeKind.DATAFLOW),
        ):
            expected = sorted(
                (e for e in g.out_edges(block) if keep(e)), key=lambda e: (e.position, e.dst)
            )
            got = view(block)
            assert len(got) == len(expected)
            assert all(a is b for a, b in zip(got, expected))


def test_block_of_raises_without_membership():
    g, entry, _ = func_graph()
    with pytest.raises(NoBlockError):
        g.block_of(entry)


def test_control_helpers():
    g, entry, _ = func_graph()
    j1 = g.add_node(NodeKind.JMP, block=entry)
    side = g.add_node(NodeKind.BLOCK)
    j2 = g.add_node(NodeKind.JMP, block=side)
    b = g.add_node(NodeKind.BLOCK)
    g.add_edge(b, j2, EdgeKind.CONTROLFLOW, 1)
    g.add_edge(b, j1, EdgeKind.CONTROLFLOW, 0)
    assert [(e.dst, e.position, e.kind) for e in g.control_in_edges(b)] == [
        (j1, 0, EdgeKind.CONTROLFLOW),
        (j2, 1, EdgeKind.CONTROLFLOW),
    ]


def test_binary_operands_matches_only_positions_0_and_1():
    g, names = build_add_graph()
    add, a, b = names["add"], names["a"], names["b"]
    assert [(e.dst, e.position) for e in g.binary_operands(add)] == [(a, 0), (b, 1)]
    assert g.binary_operands(names["ret"]) is None  # one operand
    g.operand_edges(add)[1].position = 2
    assert g.binary_operands(add) is None  # a gap
    g.operand_edges(add)[1].position = 0
    assert g.binary_operands(add) is None  # two at position 0
    g.operand_edges(add)[1].position = 1
    g.add_edge(add, a, DF, 2)
    assert g.binary_operands(add) is None  # three operands
    assert g.binary_operands(names["entry"]) is None  # no operands at all


def test_copy_is_independent_and_identical():
    g, names = build_add_graph()
    h = g.copy()
    assert h.signature() == g.signature()
    h.delete_node(names["ret"])
    assert names["ret"] in g
    assert h.signature() != g.signature()
    # ids keep advancing past the copied range
    g2 = g.copy()
    nid = g2.add_node(NodeKind.CONST, value=5, block=names["entry"])
    assert nid not in g


def test_copy_keeps_the_incidence_order():
    from firmfold.cfgfold import optimize
    from firmfold.graphio import generate

    g = generate(31)
    optimize(g)  # its rewrites leave some in-lists out of edges() order
    h = g.copy()

    def rows(lst):
        return [(e.src, e.dst, e.kind, e.position) for e in lst]

    # Out-lists are copied as they are; each in-list gets its edges in the
    # order edges() visits them.
    expected_in = {nid: [] for nid in g.node_ids()}
    for e in g.edges():
        expected_in[e.dst].append((e.src, e.dst, e.kind, e.position))
    assert list(h.node_ids()) == list(g.node_ids())
    assert {nid: rows(lst) for nid, lst in h._out.items()} == {
        nid: rows(lst) for nid, lst in g._out.items()
    }
    assert {nid: rows(lst) for nid, lst in h._in.items()} == expected_in
    assert expected_in != {nid: rows(lst) for nid, lst in g._in.items()}
    blocks = [nid for nid, n in g.items() if n.kind is NodeKind.BLOCK]
    assert [h.members_of(b) for b in blocks] == [g.members_of(b) for b in blocks]
    assert [n.block for n in h._nodes.values()] == [n.block for n in g._nodes.values()]
    assert (h._next_id, h.edge_count) == (g._next_id, g.edge_count)


def test_unknown_node_queries_raise():
    g = FirmGraph()
    with pytest.raises(GraphError, match="unknown node id"):
        g.node(0)
    with pytest.raises(GraphError, match="unknown node id"):
        g.members_of(0)


def _check_bookkeeping(g):
    """Recount memberships and edges from the node table and the edge lists,
    and check that block_of, members_of and edge_count agree."""
    homes = {}
    for nid, n in g.items():
        if n.block is None:
            with pytest.raises(NoBlockError):
                g.block_of(nid)
        else:
            assert g.node(n.block).kind is NodeKind.BLOCK
            assert g.block_of(nid) == n.block
            homes.setdefault(n.block, []).append(nid)
    for nid, n in g.items():
        if n.kind is NodeKind.BLOCK:
            assert n.block is None
            assert g.members_of(nid) == sorted(homes.pop(nid, []))
    assert homes == {}
    # A deleted Block's member set goes with it.
    assert all(block in g for block in g._members)
    edges = list(g.edges())
    assert g.edge_count == len(edges) + _memberships(g)
    assert sum(len(g.in_edges(nid)) for nid in g.node_ids()) == len(edges)
    for nid in g.node_ids():
        assert all(e.src == nid and e in g.in_edges(e.dst) for e in g.out_edges(nid))
        assert all(e.dst == nid and e in g.out_edges(e.src) for e in g.in_edges(nid))


def _incidence_rows(g):
    def rows(lst):
        return [(e.src, e.dst, e.kind, e.position) for e in lst]

    return (
        {nid: rows(lst) for nid, lst in g._out.items()},
        {nid: rows(lst) for nid, lst in g._in.items()},
    )


def _delete_several(g, rng, pool, blocks):
    """Delete a sample through delete_nodes and, on a deep copy, one node at
    a time through the reference; the two graphs must agree in every table.

    The sample mixes pool members, a Block whose other members survive, an
    Add with one of its operands (an edge between two doomed nodes), a
    self-reading Phi and a repeated id."""
    doomed = rng.sample(pool, rng.randint(1, min(3, len(pool))))
    user = rng.choice([nid for nid in pool if g.out_edges(nid)] or pool)
    doomed += [user] + [e.dst for e in g.out_edges(user)][:1]
    phi = g.add_node(NodeKind.PHI, block=rng.choice(blocks))
    g.add_edge(phi, phi, DF, 0)
    doomed.append(phi)
    homes = [b for b in blocks[1:] if set(g.members_of(b)) - set(doomed)]
    if homes:
        victim = rng.choice(homes)
        blocks.remove(victim)
    else:
        victim = g.add_node(NodeKind.BLOCK)
        pool.append(g.add_node(NodeKind.CONST, value=7, block=victim))
    doomed.append(victim)
    doomed.append(rng.choice(doomed))
    ref = copy.deepcopy(g)
    for nid in dict.fromkeys(doomed):
        reference_ir.delete_node(ref, nid)
    g.delete_nodes(doomed)
    pool[:] = [nid for nid in pool if nid in g]
    assert g.signature() == ref.signature()
    assert g.edge_count == ref.edge_count
    assert [g.members_of(b) for b in blocks] == [ref.members_of(b) for b in blocks]
    assert _incidence_rows(g) == _incidence_rows(ref)
    if not pool:
        pool.append(g.add_node(NodeKind.CONST, value=0, block=rng.choice(blocks)))


def test_random_mutation_soak_keeps_bookkeeping_consistent():
    from firmfold.graphio import from_json, to_json

    rng = random.Random(1234)
    g, entry, end = func_graph()
    blocks = [entry] + [g.add_node(NodeKind.BLOCK) for _ in range(3)]
    pool = [g.add_node(NodeKind.CONST, value=v, block=rng.choice(blocks)) for v in range(4)]
    seen = set()
    for step in range(600):
        roll = rng.random()
        side = blocks[1:]
        orphans = [nid for nid in pool if g.node(nid).block is None]
        if roll < 0.4 or len(pool) < 2:
            nid = g.add_node(NodeKind.ADD, block=rng.choice(blocks))
            g.add_edge(nid, rng.choice(pool), DF, 0)
            g.add_edge(nid, rng.choice(pool), DF, 1)
            pool.append(nid)
            action = "add"
        elif roll < 0.58:
            # deleting drops edges of everything still pointing at it
            g.delete_node(pool.pop(rng.randrange(len(pool))))
            action = "delete member"
        elif roll < 0.65:
            _delete_several(g, rng, pool, blocks)
            action = "delete several"
        elif roll < 0.72:
            blocks.append(g.add_node(NodeKind.BLOCK))
            action = "add block"
        elif roll < 0.8 and side:
            victim = rng.choice(side)
            blocks.remove(victim)
            g.delete_node(victim)  # its members stay, without a block
            action = "delete block"
        elif roll < 0.88 and side:
            frm = rng.choice(side)
            to = rng.choice([b for b in blocks if b != frm])
            g.move_members(frm, to)
            if rng.random() < 0.5:
                blocks.remove(frm)
                g.delete_node(frm)
            action = "merge blocks"
        elif roll < 0.94 and orphans:
            g.set_block(rng.choice(orphans), rng.choice(blocks))
            action = "home orphan"
        elif roll < 0.97:
            h = g.copy()
            assert h.signature() == g.signature()
            _check_bookkeeping(h)
            action = "copy"
        else:
            h = from_json(to_json(g))
            assert h.signature() == g.signature()
            assert to_json(h) == to_json(g)
            _check_bookkeeping(h)
            action = "round trip"
        seen.add(action)
        _check_bookkeeping(g)
    assert seen == {
        "add", "delete member", "delete several", "add block", "delete block", "merge blocks",
        "home orphan", "copy", "round trip",
    }
