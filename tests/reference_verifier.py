"""The rule-by-rule verifier, kept as the reference for firmfold.verifier.

This is the verifier as it was before it became a single pass: each of
V1..V10 walks the graph on its own, through the public FirmGraph queries
only. It is slow and plain on purpose. The differential tests assert that
firmfold.verifier.verify returns exactly the same findings, in the same
order, on every graph they build.
"""

from __future__ import annotations

from firmfold.errors import NoBlockError
from firmfold.ir import (
    ARITY,
    INT_MAX,
    INT_MIN,
    CONTROL_TRANSFER_KINDS,
    MEMORY_KINDS,
    RELATION_KINDS,
    VALUE_KINDS,
    EdgeKind,
    FirmGraph,
    NodeKind,
)
from firmfold.verifier import Violation


def _pos(e) -> int:
    return -1 if e.position is None else e.position


def reference_verify(g: FirmGraph) -> list[Violation]:
    """Run every structural rule; an empty list means the graph is clean."""
    out: list[Violation] = []

    # V1: every non-Block node lives in a block.
    for nid, n in g.items():
        if n.kind is NodeKind.BLOCK:
            continue
        try:
            g.block_of(nid)
        except NoBlockError:
            out.append(
                Violation(
                    "V1",
                    (nid,),
                    f"node {nid} ({n.kind.value}) has 0 containing blocks, expected 1",
                )
            )

    # V2: operand positions are 0..n-1 with no duplicates.
    for nid, n in g.items():
        poss = sorted(_pos(e) for e in g.out_edges(nid, EdgeKind.DATAFLOW))
        if poss and poss != list(range(len(poss))):
            out.append(
                Violation(
                    "V2",
                    (nid,),
                    f"node {nid} ({n.kind.value}) has operand positions {poss}",
                )
            )

    # V3: operand count matches the kind's arity.
    for nid, n in g.items():
        expected = ARITY.get(n.kind)
        count = len(g.out_edges(nid, EdgeKind.DATAFLOW))
        if expected is None:
            if count < 1:
                out.append(
                    Violation(
                        "V3", (nid,), f"{n.kind.value} node {nid} needs at least one operand"
                    )
                )
        elif count != expected:
            out.append(
                Violation(
                    "V3",
                    (nid,),
                    f"{n.kind.value} node {nid} has {count} operands, expected {expected}",
                )
            )

    # V4: Phi operand positions match the block's predecessor positions.
    for nid, n in g.items():
        if n.kind not in (NodeKind.PHI, NodeKind.TARGET_PHI):
            continue
        try:
            block = g.block_of(nid)
        except NoBlockError:
            continue  # V1 reports the missing block
        pred_pos = {_pos(e) for e in g.control_in_edges(block)}
        op_pos = {_pos(e) for e in g.out_edges(nid, EdgeKind.DATAFLOW)}
        if op_pos != pred_pos:
            out.append(
                Violation(
                    "V4",
                    (nid,),
                    f"{n.kind.value} node {nid} covers positions {sorted(op_pos)} "
                    f"but block {block} has predecessors at {sorted(pred_pos)}",
                )
            )

    # V5: every Cond has exactly one True and one False successor edge.
    for nid, n in g.items():
        if n.kind not in (NodeKind.COND, NodeKind.TARGET_COND):
            continue
        t = len(g.in_edges(nid, EdgeKind.TRUE))
        f = len(g.in_edges(nid, EdgeKind.FALSE))
        if t != 1 or f != 1:
            out.append(
                Violation(
                    "V5",
                    (nid,),
                    f"{n.kind.value} node {nid} has {t} True and {f} False edges",
                )
            )

    # V6: at most one control transfer per block.
    for nid, n in g.items():
        if n.kind is not NodeKind.BLOCK:
            continue
        transfers = [
            m for m in g.members_of(nid) if g.node(m).kind in CONTROL_TRANSFER_KINDS
        ]
        if len(transfers) > 1:
            out.append(
                Violation(
                    "V6",
                    tuple(transfers),
                    f"block {nid} contains {len(transfers)} control transfers",
                )
            )

    # V7: control predecessor positions are 0..k-1 with no duplicates.
    for nid, n in g.items():
        if n.kind is not NodeKind.BLOCK:
            continue
        poss = sorted(_pos(e) for e in g.control_in_edges(nid))
        if poss and poss != list(range(len(poss))):
            out.append(
                Violation(
                    "V7", (nid,), f"block {nid} has predecessor positions {poss}"
                )
            )

    # V8: attributes appear exactly on the kinds that may carry them.
    for nid, n in g.items():
        kv = n.kind.value
        if (n.value is not None) != (n.kind in VALUE_KINDS):
            what = "missing" if n.value is None else "stray"
            out.append(Violation("V8", (nid,), f"{what} value attribute on {kv} node {nid}"))
        elif n.value is not None and not (INT_MIN <= n.value <= INT_MAX):
            out.append(
                Violation("V8", (nid,), f"value {n.value} on node {nid} outside 32-bit range")
            )
        if (n.relation is not None) != (n.kind in RELATION_KINDS):
            what = "missing" if n.relation is None else "stray"
            out.append(
                Violation("V8", (nid,), f"{what} relation attribute on {kv} node {nid}")
            )
        if (n.volatile is not None) != (n.kind in MEMORY_KINDS):
            what = "missing" if n.volatile is None else "stray"
            out.append(
                Violation("V8", (nid,), f"{what} volatile attribute on {kv} node {nid}")
            )

    # V9: function anchors.
    starts = [nid for nid, n in g.items() if n.kind is NodeKind.START]
    ends = [nid for nid, n in g.items() if n.kind is NodeKind.END]
    if len(starts) != 1:
        out.append(
            Violation("V9", tuple(starts), f"expected exactly one Start, found {len(starts)}")
        )
    if len(ends) != 1:
        out.append(
            Violation("V9", tuple(ends), f"expected exactly one End, found {len(ends)}")
        )
    start_block_ok = (
        g.start_block is not None
        and g.start_block in g
        and g.node(g.start_block).kind is NodeKind.BLOCK
    )
    if not start_block_ok:
        out.append(
            Violation("V9", (), f"start block {g.start_block!r} is not a live Block")
        )
    end_block_ok = (
        g.end_block is not None
        and g.end_block in g
        and g.node(g.end_block).kind is NodeKind.BLOCK
    )
    if not end_block_ok:
        out.append(Violation("V9", (), f"end block {g.end_block!r} is not a live Block"))
    if len(starts) == 1 and start_block_ok:
        try:
            if g.block_of(starts[0]) != g.start_block:
                out.append(
                    Violation(
                        "V9", (starts[0],), f"Start node {starts[0]} is not in the start block"
                    )
                )
        except NoBlockError:
            pass  # V1 reports it
    if len(ends) == 1 and end_block_ok:
        try:
            if g.block_of(ends[0]) != g.end_block:
                out.append(
                    Violation("V9", (ends[0],), f"End node {ends[0]} is not in the end block")
                )
        except NoBlockError:
            pass
    if start_block_ok and g.control_in_edges(g.start_block):
        out.append(
            Violation(
                "V9",
                (g.start_block,),
                f"start block {g.start_block} has control predecessors",
            )
        )

    # V10: no membership or edge may reference a missing node.
    for nid in g.node_ids():
        try:
            block = g.block_of(nid)
        except NoBlockError:
            pass
        else:
            if block not in g:
                out.append(
                    Violation(
                        "V10",
                        (nid, block),
                        f"membership of node {nid} in block {block} references a missing node",
                    )
                )
        for e in g.out_edges(nid):
            if e.src not in g or e.dst not in g:
                out.append(
                    Violation("V10", (e.src, e.dst), f"edge {e!r} references a missing node")
                )

    return out
