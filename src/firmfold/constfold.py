"""Dataflow constant folding in wavefronts.

fold_dataflow_fixpoint seeds its first front with the users of every
Const. It visits each front in ascending id order and tries, per node, to
fold a Not, then a binary operation, then a Phi. Folding replaces the node
with a Const, whose users go into the next front, so each productive visit
shrinks the graph; ids that an earlier visit deleted are skipped. Folding
stops at the first empty front.

Individual rules are exposed as functions; each returns the id of the
Const the node collapsed to, or None when the pattern does not apply.
"""

from __future__ import annotations

from .arith import apply_binary, apply_not
from .errors import NoBlockError
from .ir import BINARY_KINDS, COMMUTATIVE_KINDS, Edge, EdgeKind, FirmGraph, NodeKind

# Enum members as module globals: see the note in ir.
_CONST, _NOT, _PHI = NodeKind.CONST, NodeKind.NOT, NodeKind.PHI
_DATAFLOW = EdgeKind.DATAFLOW


def _replace_with_const(g: FirmGraph, nid: int, value: int) -> int | None:
    try:
        block = g.block_of(nid)
    except NoBlockError:
        return None
    const = g.add_node(_CONST, value=value, block=block)
    g.redirect_users(nid, const)
    g.delete_node(nid)
    return const


def fold_not(g: FirmGraph, nid: int) -> int | None:
    """Not(Const) becomes a Const in the same block. Users follow."""
    if nid not in g or g.node(nid).kind is not _NOT:
        return None
    ops = g.operands_of(nid)
    if len(ops) != 1 or ops[0][1] != 0:
        return None
    operand = g.node(ops[0][0])
    if operand.kind is not _CONST:
        return None
    return _replace_with_const(g, nid, apply_not(operand.value))


def fold_binary(g: FirmGraph, nid: int) -> int | None:
    """A binary operation over two Consts becomes a Const.

    Division and remainder by a zero Const are left untouched; runtime
    gets to trap instead.
    """
    if nid not in g:
        return None
    node = g.node(nid)
    if node.kind not in BINARY_KINDS:
        return None
    edges = g.binary_operands(nid)
    if edges is None:
        return None
    a = g.node(edges[0].dst)
    b = g.node(edges[1].dst)
    if a.kind is not _CONST or b.kind is not _CONST:
        return None
    value = apply_binary(node.kind, a.value, b.value, node.relation)
    if value is None:
        return None
    return _replace_with_const(g, nid, value)


def fold_phi(g: FirmGraph, nid: int) -> int | None:
    """A Phi whose operands are one single Const (plus optional self
    references) is that Const. Existing users are redirected to it."""
    if nid not in g or g.node(nid).kind is not _PHI:
        return None
    const: int | None = None
    for target, _pos in g.operands_of(nid):
        if target == nid:
            continue
        if g.node(target).kind is not _CONST:
            return None
        if const is None:
            const = target
        elif target != const:
            return None
    if const is None:
        return None
    g.redirect_users(nid, const)
    g.delete_node(nid)
    return const


def _split_const(g: FirmGraph, nid: int) -> tuple[Edge, Edge] | None:
    """(Const edge, other edge) when exactly one of nid's two operands is
    a Const, else None."""
    edges = g.binary_operands(nid)
    if edges is None:
        return None
    first, second = edges
    first_const = g.node(first.dst).kind is _CONST
    if first_const is (g.node(second.dst).kind is _CONST):
        return None
    return (first, second) if first_const else (second, first)


def fold_assoc_comm(g: FirmGraph, nid: int) -> int | None:
    """Reassociate a chain (...((x K c1) K c2)...) K ck, for commutative
    K, into x K c in one rewrite, c = c1 K c2 K ... K ck.

    The match starts at nid, which must have exactly one Const operand,
    and follows the other operand while it is a K node with exactly one
    Const operand, folding each link's constant on the way; x is the
    first node that is not such a link. The rewrite puts a fresh Const c
    in nid's block; nid keeps its id with x at position 0 and c at
    position 1. The links below nid and the old constants are left for
    unused-node removal. Returns c, or None when nid has no link below
    it, has no block, or its chain runs into a dataflow cycle.
    """
    if nid not in g:
        return None
    kind = g.node(nid).kind
    if kind not in COMMUTATIVE_KINDS:
        return None
    split = _split_const(g, nid)
    if split is None:
        return None
    const_edge, x_edge = split
    value = g.node(const_edge.dst).value
    chain = {nid}
    x = x_edge.dst
    while g.node(x).kind is kind and (split := _split_const(g, x)) is not None:
        if x in chain:
            return None
        chain.add(x)
        value = apply_binary(kind, g.node(split[0].dst).value, value)
        x = split[1].dst
    if len(chain) == 1:
        return None
    try:
        block = g.block_of(nid)
    except NoBlockError:
        return None
    const = g.add_node(_CONST, value=value, block=block)
    g.retarget_edge(x_edge, x)
    g.set_position(x_edge, 0)
    g.retarget_edge(const_edge, const)
    g.set_position(const_edge, 1)
    return const


def fold_dataflow_fixpoint(g: FirmGraph) -> bool:
    """Fold wavefronts from the users of every Const until a front is
    empty. Returns True when anything folded."""
    consts = [nid for nid, node in g.items() if node.kind is _CONST]
    front = {e.src for c in consts for e in g.in_edges(c, _DATAFLOW)}
    changed = False
    while front:
        users: set[int] = set()
        for nid in sorted(front):
            if nid not in g:
                continue
            const = fold_not(g, nid)
            if const is None:
                const = fold_binary(g, nid)
            if const is None:
                const = fold_phi(g, nid)
            if const is not None:
                changed = True
                users.update(e.src for e in g.in_edges(const, _DATAFLOW))
        front = users
    return changed
