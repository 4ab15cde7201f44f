"""Two references for the dead-code sweep, FirmGraph.delete_unused.

remove_unused_node is the earlier per-node rule, once a cleanup rule in
cfgfold. remove_unused_to_fixpoint runs it until quiet and so deletes the
*least* dead set, since a node goes only once nothing reads it and a dead
cycle keeps its readers. The mark-sweep must delete a superset of that.

dead_nodes is the *greatest* dead set, computed naively from the readers'
side: start from every pure, non-volatile node and drop, until nothing
changes, each node that a node outside the set reads. The mark-sweep must
delete exactly that set.
"""

from __future__ import annotations

from firmfold.ir import PURE_KINDS, EdgeKind, FirmGraph


def remove_unused_node(g: FirmGraph, nid: int) -> bool:
    """Delete a pure value node nothing reads.

    Applies to Const, Not, the binary operations, Phi and non-volatile
    Load; control transfers and volatile memory accesses stay put.
    """
    if nid not in g:
        return False
    node = g.node(nid)
    if node.kind not in PURE_KINDS or node.volatile:
        return False
    if g.in_edges(nid, EdgeKind.DATAFLOW):
        return False
    g.delete_node(nid)
    return True


def remove_unused_to_fixpoint(g: FirmGraph) -> bool:
    """Sweep remove_unused_node over the pure nodes until a sweep deletes
    nothing; True when anything was deleted."""
    deleted = False
    while True:
        pure = [nid for nid, node in g.items() if node.kind in PURE_KINDS]
        if not any([remove_unused_node(g, nid) for nid in pure]):
            return deleted
        deleted = True


def dead_nodes(g: FirmGraph) -> set[int]:
    """The ids of the pure, non-volatile nodes that no live node reads."""
    dead = {nid for nid, node in g.items() if node.kind in PURE_KINDS and not node.volatile}
    changed = True
    while changed:
        changed = False
        for nid in sorted(dead):
            if any(e.src not in dead for e in g.in_edges(nid, EdgeKind.DATAFLOW)):
                dead.discard(nid)
                changed = True
    return dead
