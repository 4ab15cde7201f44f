"""Dataflow constant folding driven by a two-set worklist.

The worklist keeps candidate node ids in a `now` set and collects the
users of freshly created constants in a `next` set. One wavefront step
visits the `now` ids in ascending order and tries, per node, to fold a
Not, then a binary operation, then a Phi. Folding replaces the node with
a Const, so each productive visit shrinks the graph; ids that died or
were already rewritten by an earlier visit are skipped.

Individual rules are exposed as functions; each returns the id of the
Const the node collapsed to, or None when the pattern does not apply.
"""

from __future__ import annotations

from .arith import apply_binary, apply_not
from .errors import GraphError, NoBlockError
from .ir import BINARY_KINDS, COMMUTATIVE_KINDS, Edge, EdgeKind, FirmGraph, NodeKind

# Enum members as module globals: see the note in ir.
_CONST, _NOT, _PHI = NodeKind.CONST, NodeKind.NOT, NodeKind.PHI
_DATAFLOW = EdgeKind.DATAFLOW


class Worklist:
    """Two node-id sets with O(1) swap, reusing the cleared set."""

    __slots__ = ("now", "next")

    def __init__(self) -> None:
        self.now: set[int] = set()
        self.next: set[int] = set()

    def swap(self) -> None:
        self.now.clear()
        self.now, self.next = self.next, self.now


def collect_const_users(g: FirmGraph, const: int | None, into: set[int]) -> bool:
    """Add the users of one Const (or of every Const) to a set.

    Returns True when the set actually grew.
    """
    if const is None:
        sources = [nid for nid, n in g.items() if n.kind is _CONST]
    else:
        if const not in g or g.node(const).kind is not _CONST:
            raise GraphError(f"node {const} is not a live Const")
        sources = [const]
    before = len(into)
    for c in sources:
        for e in g.in_edges(c, _DATAFLOW):
            into.add(e.src)
    return len(into) > before


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
    """Reassociate (x K c1) K c2 into x K c3 for commutative K.

    The two constants meet in a fresh Const c3 = c1 K c2 placed in the
    outer node's block; the outer node keeps its id with x at position 0
    and c3 at position 1. The inner node and the old constants are left
    for unused-node removal. Returns c3, or None if the shape is absent.
    """
    if nid not in g:
        return None
    kind = g.node(nid).kind
    if kind not in COMMUTATIVE_KINDS:
        return None
    outer = _split_const(g, nid)
    if outer is None:
        return None
    const_edge, inner_edge = outer
    inner = inner_edge.dst
    if inner == nid or g.node(inner).kind is not kind:
        return None
    split = _split_const(g, inner)
    if split is None:
        return None
    c1_edge, x_edge = split
    x = x_edge.dst
    if x == nid:
        return None
    try:
        block = g.block_of(nid)
    except NoBlockError:
        return None
    value = apply_binary(kind, g.node(c1_edge.dst).value, g.node(const_edge.dst).value)
    c3 = g.add_node(_CONST, value=value, block=block)
    g.retarget_edge(inner_edge, x)
    inner_edge.position = 0
    g.retarget_edge(const_edge, c3)
    const_edge.position = 1
    return c3


def wavefront_step(g: FirmGraph, wl: Worklist) -> bool:
    """Visit wl.now once, collecting users of new Consts into wl.next.

    Returns True when at least one node folded.
    """
    fired = False
    for nid in sorted(wl.now):
        if nid not in g:
            continue
        const = fold_not(g, nid)
        if const is None:
            const = fold_binary(g, nid)
        if const is None:
            const = fold_phi(g, nid)
        if const is not None:
            fired = True
            collect_const_users(g, const, wl.next)
    return fired


def fold_dataflow_fixpoint(g: FirmGraph) -> bool:
    """Seed with the users of all Consts, then step wavefronts to rest.

    Returns True when anything folded.
    """
    wl = Worklist()
    collect_const_users(g, None, wl.now)
    changed = False
    while wl.now:
        if wavefront_step(g, wl):
            changed = True
        wl.swap()
    return changed
