"""The earlier one-node-at-a-time FirmGraph.delete_node, kept as the oracle
for FirmGraph.delete_nodes.

It removes each incident edge from both of its incidence lists with
list.remove, so it fixes the order the survivors' lists must keep. The
tests delete a set of nodes through both and compare the graphs.
"""

from __future__ import annotations

from firmfold.errors import GraphError
from firmfold.ir import Edge, FirmGraph, NodeKind


def delete_node(g: FirmGraph, nid: int) -> None:
    """Remove a node and every incident edge; a deleted Block's members
    are left without a block."""
    node = g.node(nid)
    if node.kind is NodeKind.START or node.kind is NodeKind.END:
        raise GraphError(f"refusing to delete the {node.kind.value} node")
    seen: dict[int, Edge] = {}
    for e in g._out[nid]:
        seen[id(e)] = e
    for e in g._in[nid]:
        seen[id(e)] = e
    for e in seen.values():
        g._out[e.src].remove(e)
        g._in[e.dst].remove(e)
    if node.block is not None:
        g._members[node.block].discard(nid)
    for m in g._members.pop(nid, ()):
        g._nodes[m].block = None
    del g._nodes[nid]
    del g._out[nid]
    del g._in[nid]
