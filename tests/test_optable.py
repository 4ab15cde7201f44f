"""Pins every per-kind fact the rest of the package reads from ir.

Each public kind set and map is spelled out here by kind name, over all
48 kinds, so a refactor of how ir declares them cannot move a member
unnoticed. The golden digests cannot see the kinds the generator never
emits (Div, Mod, Store, non-volatile Load, TargetStore, TargetLoad); these
tables can. Attribute legality is pinned through the two mutators that
enforce it, add_node and retype_node.
"""

import pytest

from conftest import func_graph
from firmfold import ir
from firmfold.errors import GraphError
from firmfold.ir import NodeKind, Relation

ALL_KINDS = (
    "Block Start End Return Jmp Cond Phi "
    "Const Not Add Sub Mul Div Mod And Or Xor Shl Shr Cmp Load Store "
    "TargetConst TargetNot TargetAdd TargetAddI TargetSub TargetSubI "
    "TargetMul TargetMulI TargetAnd TargetAndI TargetOr TargetOrI "
    "TargetXor TargetXorI TargetShl TargetShlI TargetShr TargetShrI "
    "TargetCmp TargetCmpI TargetPhi TargetJmp TargetCond TargetReturn "
    "TargetLoad TargetStore"
).split()

_IMM_BASES = "Add Sub Mul And Or Xor Shl Shr Cmp".split()

SETS = {
    "BINARY_KINDS": "Add Sub Mul Div Mod And Or Xor Shl Shr Cmp".split(),
    "COMMUTATIVE_KINDS": "Add Mul And Or Xor".split(),
    "TARGET_KINDS": [k for k in ALL_KINDS if k.startswith("Target")],
    "CONTROL_TRANSFER_KINDS": (
        "Jmp Cond Return TargetJmp TargetCond TargetReturn".split()
    ),
    "IMMEDIATE_KINDS": [f"Target{b}I" for b in _IMM_BASES],
    "TARGET_BINARY_KINDS": [f"Target{b}" for b in _IMM_BASES],
    "VALUE_KINDS": ["Const", "TargetConst"] + [f"Target{b}I" for b in _IMM_BASES],
    "RELATION_KINDS": "Cmp TargetCmp TargetCmpI".split(),
    "MEMORY_KINDS": "Load Store TargetLoad TargetStore".split(),
    "ANCHOR_KINDS": "Block Start End".split(),
    # What cleanup may delete when unused (a Load only when not volatile).
    "PURE_KINDS": "Const Not Phi Load Add Sub Mul Div Mod And Or Xor Shl Shr Cmp".split(),
}

ARITY = {
    "Block": 0, "Start": 0, "End": 0, "Return": 1, "Jmp": 0, "Cond": 1,
    "Phi": None, "Const": 0, "Not": 1, "Load": 1, "Store": 2,
    "TargetConst": 0, "TargetNot": 1, "TargetPhi": None, "TargetJmp": 0,
    "TargetCond": 1, "TargetReturn": 1, "TargetLoad": 1, "TargetStore": 2,
}
ARITY.update({k: 2 for k in SETS["BINARY_KINDS"] + SETS["TARGET_BINARY_KINDS"]})
ARITY.update({k: 1 for k in SETS["IMMEDIATE_KINDS"]})

PLAIN_TARGET_OF = {
    k: f"Target{k}"
    for k in "Const Not Add Sub Mul And Or Xor Shl Shr Cmp Phi Jmp Cond Return Load Store".split()
}
IMMEDIATE_TARGET_OF = {b: f"Target{b}I" for b in _IMM_BASES}


def _names(kinds):
    return sorted(k.value for k in kinds)


def test_there_are_48_kinds():
    assert sorted(k.value for k in NodeKind) == sorted(ALL_KINDS)
    assert len(ALL_KINDS) == 48


@pytest.mark.parametrize("name", sorted(SETS))
def test_kind_set_membership(name):
    actual = getattr(ir, name)
    assert isinstance(actual, frozenset)
    assert _names(actual) == sorted(SETS[name])


def test_arity_of_every_kind():
    assert {k.value: a for k, a in ir.ARITY.items()} == ARITY
    assert len(ir.ARITY) == 48


def test_target_maps():
    assert {k.value: t.value for k, t in ir.PLAIN_TARGET_OF.items()} == PLAIN_TARGET_OF
    assert {k.value: t.value for k, t in ir.IMMEDIATE_TARGET_OF.items()} == IMMEDIATE_TARGET_OF


def _attempt(kind, **attrs):
    """add_node's verdict on one kind and attribute set: the node's
    attributes, or the error message."""
    g, entry, _ = func_graph()
    block = None if kind is NodeKind.BLOCK else entry
    try:
        nid = g.add_node(kind, block=block, **attrs)
    except GraphError as exc:
        return str(exc)
    n = g.node(nid)
    return (n.value, n.relation, n.volatile)


@pytest.mark.parametrize("name", ALL_KINDS)
def test_add_node_attribute_legality_per_kind(name):
    kind = NodeKind(name)
    takes_value = name in SETS["VALUE_KINDS"]
    takes_relation = name in SETS["RELATION_KINDS"]
    takes_volatile = name in SETS["MEMORY_KINDS"]
    base = {}
    if takes_value:
        base["value"] = 5
    if takes_relation:
        base["relation"] = Relation.LESS
    # The minimal legal attribute set is accepted; volatile defaults to False.
    assert _attempt(kind, **base) == (
        5 if takes_value else None,
        Relation.LESS if takes_relation else None,
        False if takes_volatile else None,
    )
    if takes_volatile:
        assert _attempt(kind, volatile=True, **base)[2] is True
    else:
        assert _attempt(kind, volatile=True, **base) == (
            f"{name} cannot carry a volatile attribute"
        )
    if takes_value:
        assert _attempt(kind, **{**base, "value": None}) == f"{name} requires a value attribute"
    else:
        assert _attempt(kind, value=1, **base) == f"{name} cannot carry a value attribute"
    if takes_relation:
        assert _attempt(kind, **{**base, "relation": None}) == (
            f"{name} requires a relation attribute"
        )
    else:
        assert _attempt(kind, relation=Relation.EQUAL, **base) == (
            f"{name} cannot carry a relation attribute"
        )


@pytest.mark.parametrize("name", ALL_KINDS)
def test_retype_node_attribute_legality_per_kind(name):
    kind = NodeKind(name)
    g, entry, _ = func_graph()
    carrier = g.add_node(NodeKind.TARGET_CMP_I, value=7, relation=Relation.LESS, block=entry)
    load = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    plain = g.add_node(NodeKind.NOT, block=entry)
    if name in SETS["ANCHOR_KINDS"]:
        for nid in (carrier, load, plain):
            with pytest.raises(GraphError, match="cannot retype"):
                g.retype_node(nid, kind)
        return
    for nid in (carrier, load, plain):
        g.retype_node(nid, kind)
        assert g.node(nid).kind is kind
    c, ld, p = g.node(carrier), g.node(load), g.node(plain)
    assert c.value == (7 if name in SETS["VALUE_KINDS"] else None)
    assert c.relation is (Relation.LESS if name in SETS["RELATION_KINDS"] else None)
    if name in SETS["MEMORY_KINDS"]:
        assert (c.volatile, ld.volatile, p.volatile) == (False, True, False)
    else:
        assert (c.volatile, ld.volatile, p.volatile) == (None, None, None)
    assert p.value is None and p.relation is None
