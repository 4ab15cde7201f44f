"""Structural well-formedness checks.

verify() never mutates and never raises on representable graphs; it
returns every finding as data so callers can render or count them. Each
rule has a stable id (V1..V10) that tests and the CLI key off.

verify() is one pass over the nodes, reading FirmGraph's tables directly.
It reads each node's block field and outgoing edges once (and a Cond's
incoming edges, for V5) and settles the per-node rules V1-V3, V5, V8 and
V10 on the spot. What the block-level rules need (Phi operand positions, each node's
control-predecessor positions, each block's control transfers) is
collected on the way, and V4, V6 and V7 are settled after the walk. V9
checks the function anchors last. Findings come ordered by rule, V1
first, and within a rule by node id (the node table's order, which is
ascending for every graph built through FirmGraph or saved by graphio).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NoBlockError
from .ir import (
    INT_MAX,
    INT_MIN,
    OPS,
    ROLE_COND,
    ROLE_END,
    ROLE_PHI,
    ROLE_START,
    ROLE_TRANSFER,
    EdgeKind,
    FirmGraph,
    NodeKind,
)


@dataclass(frozen=True)
class Violation:
    rule: str
    nodes: tuple[int, ...]
    message: str


# Enum members as module globals: see the note in ir.
_BLOCK = NodeKind.BLOCK
_DATAFLOW, _TRUE, _FALSE = EdgeKind.DATAFLOW, EdgeKind.TRUE, EdgeKind.FALSE

# Per kind, what the walk reads of the op table:
# (arity or None, role bits, value legal, relation legal, volatile legal).
_FACTS = {k: (d.arity, d.role, d.value, d.relation, d.volatile) for k, d in OPS.items()}

# Most nodes list their operands in position order; a prefix of this list
# settles V2 for them without a call.
_IN_ORDER = [0, 1]


def _dense(poss: list) -> bool:
    """Whether raw positions are 0..n-1 in some order (None counts as -1)."""
    if poss == list(range(len(poss))):
        return True
    return _sorted_pos(poss) == list(range(len(poss)))


def _sorted_pos(poss) -> list[int]:
    return sorted(-1 if p is None else p for p in poss)


def verify(g: FirmGraph) -> list[Violation]:
    """Run every structural rule; an empty list means the graph is clean."""
    v1, v2, v3, v5, v8, v10 = [], [], [], [], [], []
    nodes = g._nodes
    outs = g._out
    facts = _FACTS
    phis = []  # (phi id, its containing block, operand positions)
    ctrl_pos: dict[int, list] = {}  # node -> positions of its control edges
    transfers: dict[int, list[int]] = {}  # block -> control transfers in it
    blocks = []
    starts = []
    ends = []

    for nid, n in nodes.items():
        kind = n.kind
        arity, role, value_ok, relation_ok, volatile_ok = facts[kind]
        home = n.block
        if home is not None:
            if role & ROLE_TRANSFER:
                transfers.setdefault(home, []).append(nid)
            # V10: no membership may name a missing block.
            if home not in nodes:
                v10.append(
                    Violation(
                        "V10",
                        (nid, home),
                        f"membership of node {nid} in block {home} references a missing node",
                    )
                )
        poss = []
        ctrl = None
        for e in outs[nid]:
            if e.kind is _DATAFLOW:
                poss.append(e.position)
            elif ctrl is None:
                ctrl = [e.position]
            else:
                ctrl.append(e.position)
            # V10: no edge may reference a missing node.
            if e.dst not in nodes or e.src not in nodes:
                v10.append(
                    Violation("V10", (e.src, e.dst), f"edge {e!r} references a missing node")
                )

        # V1: every non-Block node lives in a block.
        if kind is _BLOCK:
            blocks.append(nid)
        elif home is None:
            v1.append(
                Violation(
                    "V1",
                    (nid,),
                    f"node {nid} ({kind.value}) has 0 containing blocks, expected 1",
                )
            )
        if ctrl is not None:
            ctrl_pos[nid] = ctrl

        # V2: operand positions are 0..n-1 with no duplicates.
        count = len(poss)
        if count and poss != _IN_ORDER[:count] and not _dense(poss):
            v2.append(
                Violation(
                    "V2",
                    (nid,),
                    f"node {nid} ({kind.value}) has operand positions {_sorted_pos(poss)}",
                )
            )

        # V3: operand count matches the kind's arity.
        if arity is None:
            if count < 1:
                v3.append(
                    Violation("V3", (nid,), f"{kind.value} node {nid} needs at least one operand")
                )
        elif count != arity:
            v3.append(
                Violation(
                    "V3",
                    (nid,),
                    f"{kind.value} node {nid} has {count} operands, expected {arity}",
                )
            )

        if role:
            if role & ROLE_PHI and home is not None:
                phis.append((nid, home, poss))
            elif role & ROLE_START:
                starts.append(nid)
            elif role & ROLE_END:
                ends.append(nid)
            elif role & ROLE_COND:
                # V5: every Cond has exactly one True and one False successor edge.
                t = f = 0
                for e in g._in[nid]:
                    if e.kind is _TRUE:
                        t += 1
                    elif e.kind is _FALSE:
                        f += 1
                if t != 1 or f != 1:
                    v5.append(
                        Violation(
                            "V5", (nid,), f"{kind.value} node {nid} has {t} True and {f} False edges"
                        )
                    )

        # V8: attributes appear exactly on the kinds that may carry them.
        value = n.value
        if (value is not None) != value_ok:
            what = "missing" if value is None else "stray"
            v8.append(Violation("V8", (nid,), f"{what} value attribute on {kind.value} node {nid}"))
        elif value is not None and not (INT_MIN <= value <= INT_MAX):
            v8.append(Violation("V8", (nid,), f"value {value} on node {nid} outside 32-bit range"))
        if (n.relation is not None) != relation_ok:
            what = "missing" if n.relation is None else "stray"
            v8.append(
                Violation("V8", (nid,), f"{what} relation attribute on {kind.value} node {nid}")
            )
        if (n.volatile is not None) != volatile_ok:
            what = "missing" if n.volatile is None else "stray"
            v8.append(
                Violation("V8", (nid,), f"{what} volatile attribute on {kind.value} node {nid}")
            )

    # V4: Phi operand positions match the block's predecessor positions.
    v4 = []
    for nid, home, poss in phis:
        pred_pos = set(_sorted_pos(ctrl_pos.get(home, ())))
        op_pos = set(_sorted_pos(poss))
        if op_pos != pred_pos:
            v4.append(
                Violation(
                    "V4",
                    (nid,),
                    f"{nodes[nid].kind.value} node {nid} covers positions {sorted(op_pos)} "
                    f"but block {home} has predecessors at {sorted(pred_pos)}",
                )
            )

    # V6: at most one control transfer per block.
    # V7: control predecessor positions are 0..k-1 with no duplicates.
    v6, v7 = [], []
    for nid in blocks:
        members = transfers.get(nid)
        if members is not None and len(members) > 1:
            members.sort()
            v6.append(
                Violation(
                    "V6",
                    tuple(members),
                    f"block {nid} contains {len(members)} control transfers",
                )
            )
        poss = ctrl_pos.get(nid)
        if poss is not None and not _dense(poss):
            v7.append(
                Violation("V7", (nid,), f"block {nid} has predecessor positions {_sorted_pos(poss)}")
            )

    return v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + _verify_anchors(g, starts, ends) + v10


def _verify_anchors(g: FirmGraph, starts: list[int], ends: list[int]) -> list[Violation]:
    """V9: one Start in the start block, one End in the end block, and a
    start block that no control edge enters."""
    out: list[Violation] = []
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
        and g.node(g.start_block).kind is _BLOCK
    )
    if not start_block_ok:
        out.append(
            Violation("V9", (), f"start block {g.start_block!r} is not a live Block")
        )
    end_block_ok = (
        g.end_block is not None
        and g.end_block in g
        and g.node(g.end_block).kind is _BLOCK
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
    return out


def format_violations(violations: list[Violation]) -> str:
    lines = []
    for v in violations:
        ids = ",".join(str(n) for n in v.nodes)
        lines.append(f"{v.rule}\t[{ids}]\t{v.message}")
    return "\n".join(lines)
