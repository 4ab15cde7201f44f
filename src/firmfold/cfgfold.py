"""Control-flow cleanup rules and the top-level optimize() driver.

Each rule returns True when it changed the graph. cleanup_round() applies
each once, in a fixed order: remove_unreachable_block works on the whole
graph, and each other rule rewrites one node and is tried once on every
node of its kind. optimize() first deletes dead code, so no fold is spent
on it, then alternates dataflow folding with cleanup rounds until neither
side changes anything, verifying the graph on entry and on exit; its round
loop is the only one that repeats cleanup until quiet. The dead-code
sweep is FirmGraph.delete_unused in ir, a mark-sweep that keeps the
control transfers and memory accesses and what they read, and deletes the
rest at once, dead cycles included; optimize and cleanup_round reach it
through _exhaust_unused, and isel calls it directly.
"""

from __future__ import annotations

from typing import Callable

from .constfold import fold_dataflow_fixpoint
from .errors import ContractError, GraphError, NoBlockError, VerificationError
from .ir import ANCHOR_KINDS, COMMUTATIVE_KINDS, EdgeKind, FirmGraph, NodeKind
from .verifier import verify
from . import constfold

# Enum members as module globals: see the note in ir.
_BLOCK, _JMP, _COND, _PHI, _CONST = (
    NodeKind.BLOCK, NodeKind.JMP, NodeKind.COND, NodeKind.PHI, NodeKind.CONST
)
_DATAFLOW, _CONTROLFLOW = EdgeKind.DATAFLOW, EdgeKind.CONTROLFLOW
_TRUE, _FALSE = EdgeKind.TRUE, EdgeKind.FALSE
# The kind sets the cleanup sweeps visit.
_CONDS, _BLOCKS, _PHIS = frozenset({_COND}), frozenset({_BLOCK}), frozenset({_PHI})


def fold_cond(g: FirmGraph, nid: int) -> bool:
    """A Cond over a Const takes one branch statically.

    The edge for the untaken branch is deleted, the taken edge becomes a
    plain Controlflow edge, and the node itself becomes a Jmp (dropping
    its operand edge).
    """
    if nid not in g or g.node(nid).kind is not _COND:
        return False
    op_edges = g.operand_edges(nid)
    if len(op_edges) != 1:
        return False
    operand = g.node(op_edges[0].dst)
    if operand.kind is not _CONST:
        return False
    true_edges = g.in_edges(nid, _TRUE)
    false_edges = g.in_edges(nid, _FALSE)
    if len(true_edges) != 1 or len(false_edges) != 1:
        return False
    if operand.value != 0:
        taken, untaken = true_edges[0], false_edges[0]
    else:
        taken, untaken = false_edges[0], true_edges[0]
    g.delete_edge(untaken)
    g.retype_edge(taken, _CONTROLFLOW)
    g.retype_node(nid, _JMP)
    g.delete_edge(op_edges[0])
    return True


def remove_unreachable_block(g: FirmGraph) -> bool:
    """Delete every block but the end block that the start block cannot reach.

    A Block's control edges point at its predecessors' transfer nodes, so
    the Blocks' out-edges give the successor map the walk follows. Members
    of a deleted block go through remove_unreachable_node in the same call,
    so a dead chain or a dead loop goes at once.
    """
    blocks = [nid for nid, node in g.items() if node.kind is _BLOCK]
    succs: dict[int | None, list[int]] = {}
    for b in blocks:
        for e in g.out_edges(b):
            if e.kind is not _DATAFLOW:  # a control edge
                succs.setdefault(g.node(e.dst).block, []).append(b)
    reached = {g.start_block}
    stack = [g.start_block]
    while stack:
        for b in succs.get(stack.pop(), ()):
            if b not in reached:
                reached.add(b)
                stack.append(b)
    dead = [b for b in blocks if b not in reached and b != g.end_block]
    for b in dead:
        members = g.members_of(b)
        g.delete_node(b)
        for m in members:
            remove_unreachable_node(g, m)
    return bool(dead)


def remove_unreachable_node(g: FirmGraph, nid: int) -> bool:
    """Delete a non-anchor node that lost its containing block."""
    if nid not in g:
        return False
    node = g.node(nid)
    if node.kind in ANCHOR_KINDS or node.block is not None:
        return False
    g.delete_node(nid)
    return True


def remove_unreachable_phi_operand(g: FirmGraph, nid: int) -> bool:
    """Drop Phi operands whose position no longer names a predecessor."""
    if nid not in g or g.node(nid).kind is not _PHI:
        return False
    try:
        block = g.block_of(nid)
    except NoBlockError:
        return False
    live = {e.position for e in g.control_in_edges(block)}
    fired = False
    for e in g.operand_edges(nid):
        if e.position not in live:
            g.delete_edge(e)
            fired = True
    return fired


def fix_edge_position(g: FirmGraph, block: int) -> bool:
    """Renumber a block's predecessor positions to 0..k-1, keeping order,
    and remap the operands of its Phis the same way."""
    node = g.node(block)
    if node.kind is not _BLOCK:
        raise GraphError(f"fix_edge_position expects a Block, got {node.kind.value}")
    ctrl = g.control_in_edges(block)
    mapping: dict[int, int] = {}
    changed = False
    for i, e in enumerate(ctrl):
        mapping.setdefault(e.position, i)
        if e.position != i:
            changed = True
    if not changed:
        return False
    phis = [m for m in g.members_of(block) if g.node(m).kind is _PHI]
    for i, e in enumerate(ctrl):
        e.position = i
    for phi in phis:
        for e in g.operand_edges(phi):
            if e.position in mapping:
                e.position = mapping[e.position]
    return True


def simplify_trivial_phi(g: FirmGraph, nid: int) -> bool:
    """Replace a single-operand Phi with that operand."""
    if nid not in g or g.node(nid).kind is not _PHI:
        return False
    ops = g.operands_of(nid)
    if len(ops) != 1:
        return False
    target = ops[0][0]
    if target == nid:
        return False
    g.redirect_users(nid, target)
    g.delete_node(nid)
    return True


def merge_blocks(g: FirmGraph, nid: int) -> bool:
    """Fold a block with a lone unconditional successor edge into the
    block holding the Jmp that reaches it.

    The Jmp disappears, the block's members move over, and edges from
    successor blocks keep pointing at their (moved) transfer nodes, so no
    positions change. Blocks containing Phis and the start/end anchors
    are left alone.
    """
    if nid not in g or g.node(nid).kind is not _BLOCK:
        return False
    if nid == g.start_block or nid == g.end_block:
        return False
    ctrl = g.control_in_edges(nid)
    if len(ctrl) != 1 or ctrl[0].kind is not _CONTROLFLOW:
        return False
    jmp = ctrl[0].dst
    if jmp not in g or g.node(jmp).kind is not _JMP:
        return False
    try:
        home = g.block_of(jmp)
    except NoBlockError:
        return False
    if home == nid:
        return False
    members = g.members_of(nid)
    if any(g.node(m).kind is _PHI for m in members):
        return False
    g.move_members(nid, home)
    g.delete_node(jmp)
    g.delete_node(nid)
    return True


def _sweep(
    g: FirmGraph, rule: Callable[[FirmGraph, int], object], kinds: frozenset[NodeKind]
) -> bool:
    """Apply one rule once to every node whose kind is in kinds; True when
    it fired anywhere. The rule fires when it returns anything but None or
    False."""
    fired = False
    for nid in [n for n, node in g.items() if node.kind in kinds]:
        result = rule(g, nid)
        if result is not None and result is not False:
            fired = True
    return fired


def _exhaust_unused(g: FirmGraph) -> bool:
    """Delete every pure, non-volatile node that no live node reads, dead
    cycles included: FirmGraph.delete_unused, one mark from the nodes that
    are not pure and one delete_nodes pass."""
    return g.delete_unused()


def cleanup_round(g: FirmGraph) -> bool:
    """One round of structural cleanup, each rule in one sweep; True when
    anything changed. What a later rule enables waits for the next round.

    Rule order matters: conditions fold before reachability is
    recomputed, Phi operands are pruned before positions are renumbered,
    and block merging runs last over the settled shape.
    """
    changed = False
    changed |= _sweep(g, fold_cond, _CONDS)
    changed |= remove_unreachable_block(g)
    changed |= _sweep(g, remove_unreachable_phi_operand, _PHIS)
    changed |= _sweep(g, fix_edge_position, _BLOCKS)
    changed |= _sweep(g, simplify_trivial_phi, _PHIS)
    changed |= _sweep(g, constfold.fold_assoc_comm, COMMUTATIVE_KINDS)
    changed |= _exhaust_unused(g)
    changed |= _sweep(g, merge_blocks, _BLOCKS)
    return changed


def optimize(
    g: FirmGraph,
    max_rounds: int | None = None,
    on_round: Callable[[int, FirmGraph], None] | None = None,
) -> bool:
    """Delete dead code, then run dataflow folding and cleanup rounds to
    a joint fixpoint.

    The graph must verify cleanly going in and is verified again on the
    way out. Returns True when the graph changed at all. max_rounds
    guards against a runaway loop; exceeding it is a ContractError.
    """
    findings = verify(g)
    if findings:
        raise VerificationError(findings, "before optimize")
    changed_ever = _exhaust_unused(g)
    rounds = 0
    while True:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise ContractError(f"optimize exceeded {max_rounds} rounds")
        folded = fold_dataflow_fixpoint(g)
        cleaned = cleanup_round(g)
        changed_ever = changed_ever or folded or cleaned
        if on_round is not None:
            on_round(rounds, g)
        if not folded and not cleaned:
            break
    findings = verify(g)
    if findings:
        raise VerificationError(findings, "after optimize")
    return changed_ever
