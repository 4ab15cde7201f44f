"""Lowering from the IR kinds to the target kinds.

Selection is two sweeps plus a cleanup: absorb Consts into
immediate-form target nodes (from either side of a commutative
operation), drop constants nothing reads anymore, then retype whatever is
left onto its plain target counterpart. Blocks, Start and End carry
over unchanged. Div and Mod have no target form, so graphs that still
contain them cannot be lowered.
"""

from __future__ import annotations

from .errors import ContractError, PassOutputError, VerificationError
from .ir import (
    ANCHOR_KINDS,
    COMMUTATIVE_KINDS,
    IMMEDIATE_TARGET_OF,
    PLAIN_TARGET_OF,
    TARGET_KINDS,
    FirmGraph,
    NodeKind,
)
from .verifier import verify

# Enum members as module globals: see the note in ir.
_CONST = NodeKind.CONST


def select_immediate(g: FirmGraph, nid: int) -> bool:
    """Turn op(x, Const c) into the immediate target form.

    A commutative op takes c from either side, and x ends up at position
    0; with two Consts it takes the one at position 1, which keeps the
    pick deterministic. The node is retyped to its *I kind, takes c's value as
    an attribute, and drops c's operand edge. The Const itself stays; the
    dead-code sweep afterwards collects it once no live node reads it."""
    if nid not in g:
        return False
    node = g.node(nid)
    target_kind = IMMEDIATE_TARGET_OF.get(node.kind)
    if target_kind is None:
        return False
    edges = g.binary_operands(nid)
    if edges is None:
        return False
    x_edge, const_edge = edges
    if g.node(const_edge.dst).kind is not _CONST:
        if node.kind not in COMMUTATIVE_KINDS or g.node(x_edge.dst).kind is not _CONST:
            return False
        x_edge, const_edge = const_edge, x_edge
        g.set_position(x_edge, 0)
    value = g.node(const_edge.dst).value
    g.retype_node(nid, target_kind)
    g.set_value(nid, value)
    g.delete_edge(const_edge)
    return True


def select_plain(g: FirmGraph, nid: int) -> bool:
    """Retype one IR node onto its same-shape target kind."""
    if nid not in g:
        return False
    target_kind = PLAIN_TARGET_OF.get(g.node(nid).kind)
    if target_kind is None:
        return False
    g.retype_node(nid, target_kind)
    return True


def run_instruction_selection(g: FirmGraph) -> None:
    """Lower a verify-clean IR graph to target kinds in place.

    Raises ContractError when handed a graph that already contains target
    kinds or when an IR operation (Div, Mod, or anything else without a
    target form) survives lowering, and PassOutputError, a ContractError,
    when the lowered graph fails verification."""
    findings = verify(g)
    if findings:
        raise VerificationError(findings, "before instruction selection")
    present = [nid for nid, n in g.items() if n.kind in TARGET_KINDS]
    if present:
        raise ContractError(
            f"instruction selection expects an IR-only graph; node {present[0]} is "
            f"{g.node(present[0]).kind.value}"
        )
    for nid in list(g.node_ids()):
        select_immediate(g, nid)
    g.delete_unused()
    for nid in list(g.node_ids()):
        select_plain(g, nid)
    leftovers = [
        nid
        for nid, n in g.items()
        if n.kind not in TARGET_KINDS and n.kind not in ANCHOR_KINDS
    ]
    if leftovers:
        kinds = sorted({g.node(nid).kind.value for nid in leftovers})
        raise ContractError(
            f"{len(leftovers)} IR node(s) survived instruction selection: {', '.join(kinds)}"
        )
    findings = verify(g)
    if findings:
        raise PassOutputError(findings, "after instruction selection")
