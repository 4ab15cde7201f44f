"""Structural rule catalog: clean graphs stay silent, each broken graph
trips exactly its own rule."""

import random

import pytest

from conftest import (
    broken_graphs,
    build_add_graph,
    build_counting_loop,
    build_diamond,
    sized_gen_spec,
)
from firmfold.errors import GraphError
from firmfold.graphio import from_payload, generate, to_payload
from firmfold.ir import ANCHOR_KINDS, Edge, EdgeKind, NodeKind
from firmfold.verifier import Violation, format_violations, verify
from reference_verifier import reference_verify


def test_clean_graphs_have_no_findings():
    for g in (
        build_add_graph()[0],
        build_diamond(cond_const=1)[0],
        build_diamond(cond_const=None)[0],
        build_counting_loop()[0],
        generate(3),
    ):
        assert verify(g) == []


def test_verify_does_not_mutate():
    g, _ = build_diamond(cond_const=None)
    before = g.signature()
    verify(g)
    assert g.signature() == before


@pytest.mark.parametrize("rule", [f"V{i}" for i in range(1, 11)])
def test_each_rule_fires_alone(rule):
    g = broken_graphs()[rule]
    findings = verify(g)
    assert [v.rule for v in findings] == [rule]


def test_violation_messages_name_the_problem():
    graphs = broken_graphs()
    assert "containing blocks" in verify(graphs["V1"])[0].message
    assert "operand positions" in verify(graphs["V2"])[0].message
    assert "2 operands" not in verify(graphs["V2"])[0].message
    assert "operands, expected 2" in verify(graphs["V3"])[0].message
    assert "predecessors at" in verify(graphs["V4"])[0].message
    assert "True and 0 False" in verify(graphs["V5"])[0].message
    assert "control transfers" in verify(graphs["V6"])[0].message
    assert "predecessor positions" in verify(graphs["V7"])[0].message
    assert "stray value" in verify(graphs["V8"])[0].message
    assert "found 2" in verify(graphs["V9"])[0].message
    assert "missing node" in verify(graphs["V10"])[0].message


def test_findings_carry_node_ids():
    v3 = verify(broken_graphs()["V3"])[0]
    assert len(v3.nodes) == 1
    assert all(isinstance(n, int) for n in v3.nodes)


def test_missing_value_is_reported_too():
    g, names = build_add_graph()
    g.node(names["a"]).value = None
    findings = verify(g)
    assert [v.rule for v in findings] == ["V8"]
    assert "missing value" in findings[0].message


def test_value_out_of_range_is_reported():
    g, names = build_add_graph()
    g.node(names["a"]).value = 2**31
    findings = verify(g)
    assert [v.rule for v in findings] == ["V8"]
    assert "outside 32-bit range" in findings[0].message


def test_unset_anchor_blocks_are_v9():
    g, _ = build_add_graph()
    g.start_block = None
    findings = verify(g)
    assert [v.rule for v in findings] == ["V9"]
    assert "start block" in findings[0].message


def test_format_violations_layout():
    findings = verify(broken_graphs()["V3"])
    text = format_violations(findings)
    line = text.splitlines()[0]
    rule, ids, message = line.split("\t")
    assert rule == "V3"
    assert ids.startswith("[") and ids.endswith("]")
    assert "operands" in message


# -- the one-pass verifier against the rule-by-rule reference ---------------


def _rehome(g, nid, block):
    """Set (or, for None, clear) a membership straight in the tables, past
    the checks of set_block."""
    node = g.node(nid)
    if node.block is not None:
        g._members[node.block].discard(nid)
    node.block = block
    if block is not None:
        g._members.setdefault(block, set()).add(nid)


def _forge(g, rng, dst):
    """An edge or a membership the public mutators would refuse, put
    straight into the tables."""
    src = rng.choice(list(g.node_ids()))
    kind = rng.choice([None] + list(EdgeKind))
    if kind is None:
        _rehome(g, src, dst)
    else:
        edge = Edge(src, dst, kind, rng.randint(0, 3))
        g._out[edge.src].append(edge)
        g._in.get(edge.dst, []).append(edge)


def _corrupt(g, rng):
    ids = list(g.node_ids())
    choice = rng.randrange(6)
    if choice == 0:
        members = [nid for nid, n in g.items() if n.block is not None]
        edges = list(g.edges())
        pick = rng.randrange(len(members) + len(edges))
        if pick < len(members):
            _rehome(g, members[pick], None)
        else:
            g.delete_edge(edges[pick - len(members)])
    elif choice == 1:
        edge = rng.choice(list(g.edges()))
        positions = [-1, 0, 1, 2, 3, 4]
        if edge.kind is EdgeKind.DATAFLOW:
            # The reference sorts control positions, so only operands go None.
            positions.append(None)
        edge.position = rng.choice(positions)
    elif choice == 2:
        g.node(rng.choice(ids)).kind = rng.choice(list(NodeKind))
    elif choice == 3:
        victims = [nid for nid, n in g.items() if n.kind not in ANCHOR_KINDS]
        if victims:
            g.delete_node(rng.choice(victims))
    elif choice == 4:
        _forge(g, rng, rng.choice(ids))
    else:
        g.node(rng.choice(ids)).value = rng.choice([None, 2**31])


def test_verify_matches_the_reference_on_corrupted_graphs():
    seen_rules = set()
    findings = 0
    for seed in range(400):
        rng = random.Random(31_000 + seed)
        g = generate(seed, sized_gen_spec(rng))
        if rng.random() < 0.25:
            # Loading keeps the file's node order, which need not be by id.
            payload = to_payload(g)
            rng.shuffle(payload["nodes"])
            g = from_payload(payload)
        for _ in range(rng.randint(1, 4)):
            _corrupt(g, rng)
        if rng.random() < 0.1:
            # A dangling edge or membership comes last: the mutators cannot
            # delete it.
            _forge(g, rng, 10**6)
        expected = reference_verify(g)
        assert verify(g) == expected, f"seed {seed}"
        seen_rules.update(v.rule for v in expected)
        findings += len(expected)
    assert seen_rules == {f"V{i}" for i in range(1, 11)}
    assert findings > 500


def test_verify_matches_the_reference_on_broken_graphs():
    for g in broken_graphs().values():
        assert verify(g) == reference_verify(g)


def test_a_node_cannot_join_a_second_block():
    g, names = build_add_graph()
    entry, end = names["entry"], g.end_block
    jmp = g.add_node(NodeKind.JMP, block=entry)
    for block in (entry, end):
        with pytest.raises(GraphError, match=f"node {jmp} is already in block {entry}"):
            g.set_block(jmp, block)
    assert g.block_of(jmp) == entry
    assert jmp in g.members_of(entry) and jmp not in g.members_of(end)


def test_findings_of_a_graph_breaking_several_rules():
    g, names = build_add_graph()
    entry, add, ret = names["entry"], names["add"], names["ret"]
    # Two Jmps in the entry block, which already holds a Return.
    jmp = g.add_node(NodeKind.JMP, block=entry)
    jmp2 = g.add_node(NodeKind.JMP, block=entry)
    # A Const left without a block when its block is deleted.
    side = g.add_node(NodeKind.BLOCK)
    orphan = g.add_node(NodeKind.CONST, value=1, block=side)
    g.delete_node(side)
    g.add_edge(add, names["a"], EdgeKind.DATAFLOW, 2)
    g.node(add).value = 5
    g.node(names["b"]).value = 2**31
    findings = verify(g)
    assert findings == [
        Violation("V1", (orphan,), f"node {orphan} (Const) has 0 containing blocks, expected 1"),
        Violation("V3", (add,), f"Add node {add} has 3 operands, expected 2"),
        Violation("V6", (ret, jmp, jmp2), f"block {entry} contains 3 control transfers"),
        Violation("V8", (names["b"],), f"value {2**31} on node {names['b']} outside 32-bit range"),
        Violation("V8", (add,), f"stray value attribute on Add node {add}"),
    ]
    assert findings == reference_verify(g)
