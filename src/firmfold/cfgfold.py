"""Control-flow cleanup rules and the top-level optimize() driver.

Each rule returns True when it changed the graph. cleanup_round() applies
each once, in a fixed order: remove_unreachable_block works on the whole
graph, and each other rule rewrites one node and is tried once on every
node of its kind. optimize() first deletes dead code, so no fold is spent
on it, then runs dataflow folding and the cleanup rules in that order,
round after round, verifying the graph on entry and on exit. It keeps a
set of due rules: a rule runs only while it is due, running clears it, and
a rule that fires makes due the rules _ENABLES names as those its rewrite
can give a new match. The loop ends when no rule is due, so no round is
spent proving the fixpoint. The dead-code sweep is FirmGraph.delete_unused
in ir, a mark-sweep that keeps the control transfers and memory accesses
and what they read, and deletes the rest at once, dead cycles included;
optimize and cleanup_round reach it through _exhaust_unused, and isel
calls it directly.

Block merging has two partners, after the Clean pass of Cooper and
Torczon: bypass_empty_block deletes a block that holds only a Jmp and that
one True or False edge of a Cond enters, so the Cond enters the Jmp's
successor directly, and fold_redundant_cond turns a Cond whose two edges
enter one block without Phis into a Jmp, unless its operand can trap
(trapping_nodes, computed once per sweep). Both run after merging, so the
rules whose rewrites give them matches run before them in the same round.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from .constfold import fold_dataflow_fixpoint
from .errors import ContractError, GraphError, NoBlockError, PassOutputError, VerificationError
from .ir import (
    ANCHOR_KINDS,
    COMMUTATIVE_KINDS,
    CONTROL_TRANSFER_KINDS,
    Edge,
    EdgeKind,
    FirmGraph,
    NodeKind,
)
from .verifier import verify
from . import constfold

# Enum members as module globals: see the note in ir.
_BLOCK, _JMP, _COND, _PHI, _CONST = (
    NodeKind.BLOCK, NodeKind.JMP, NodeKind.COND, NodeKind.PHI, NodeKind.CONST
)
_DIV, _MOD = NodeKind.DIV, NodeKind.MOD
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
    _cond_to_jmp(g, nid, op_edges[0], taken, untaken)
    return True


def _cond_to_jmp(g: FirmGraph, nid: int, operand: Edge, taken: Edge, untaken: Edge) -> None:
    """The rewrite a folded Cond ends with: the untaken edge goes, the taken
    one becomes a plain Controlflow edge, and the Cond a Jmp without its
    operand."""
    g.delete_edge(untaken)
    g.retype_edge(taken, _CONTROLFLOW)
    g.retype_node(nid, _JMP)
    g.delete_edge(operand)


def trapping_nodes(g: FirmGraph) -> set[int]:
    """The nodes from which a Div or Mod is reachable over Dataflow edges.

    One walk back over Dataflow in-edges from every Div and Mod, so Phis
    count too: a Phi re-raises its operand's deferred trap when read. Empty
    when the graph has no Div or Mod.
    """
    nodes, ins = g._nodes, g._in
    found = [nid for nid, node in nodes.items() if node.kind is _DIV or node.kind is _MOD]
    marked = set(found)
    # The loop visits what it appends.
    for nid in found:
        for e in ins[nid]:
            src = e.src
            if e.kind is _DATAFLOW and src not in marked:
                marked.add(src)
                found.append(src)
    return marked


def fold_redundant_cond(g: FirmGraph, nid: int, trapping: set[int]) -> bool:
    """A Cond whose True and False edges both enter one block without Phis
    becomes a Jmp, when its operand is not in trapping, the set
    trapping_nodes(g) gives.

    Both branches then reach the same code with the same values, so only a
    trap in the condition could tell them apart. The edge at the lower
    position is kept, through fold_cond's rewrite, and the block's
    positions are renumbered at once, which needs no Phi remapped.
    """
    if nid not in g or g.node(nid).kind is not _COND:
        return False
    op_edges = g.operand_edges(nid)
    if len(op_edges) != 1:
        return False
    true_edges = g.in_edges(nid, _TRUE)
    false_edges = g.in_edges(nid, _FALSE)
    if len(true_edges) != 1 or len(false_edges) != 1:
        return False
    block = true_edges[0].src
    if false_edges[0].src != block:
        return False
    # The membership table itself: the test needs no order.
    if any(g.node(m).kind is _PHI for m in g._members.get(block, ())):
        return False
    if op_edges[0].dst in trapping:
        return False
    taken, untaken = sorted((true_edges[0], false_edges[0]), key=lambda e: e.position)
    _cond_to_jmp(g, nid, op_edges[0], taken, untaken)
    fix_edge_position(g, block)
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
        g.set_position(e, i)
    for phi in phis:
        for e in g.operand_edges(phi):
            if e.position in mapping:
                g.set_position(e, mapping[e.position])
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
    # The membership table itself: the test needs no order.
    if any(g.node(m).kind is _PHI for m in g._members.get(nid, ())):
        return False
    g.move_members(nid, home)
    g.delete_nodes((jmp, nid))
    return True


def bypass_empty_block(g: FirmGraph, nid: int) -> bool:
    """Delete a block that holds only a Jmp and is entered by one Cond True
    or False edge, and let the Cond enter the Jmp's successor directly.

    The successor's Controlflow edge from the Jmp moves onto the Cond and
    takes the kind of the deleted block's edge; it keeps its position, so
    the successor's Phis read what they read before. The start and end
    blocks stay, and so does a block with more predecessors, whose
    successor's Phi positions would have to change.
    """
    if nid not in g or g.node(nid).kind is not _BLOCK:
        return False
    if nid == g.start_block or nid == g.end_block:
        return False
    members = g._members.get(nid, ())
    if len(members) != 1:
        return False
    (jmp,) = members
    if g.node(jmp).kind is not _JMP:
        return False
    ctrl = g.control_in_edges(nid)
    if len(ctrl) != 1 or ctrl[0].kind is _CONTROLFLOW:
        return False
    cond = ctrl[0].dst
    if g.node(cond).kind is not _COND:
        return False
    succ = g.in_edges(jmp)
    if len(succ) != 1 or succ[0].kind is not _CONTROLFLOW:
        return False
    g.retarget_edge(succ[0], cond)
    g.retype_edge(succ[0], ctrl[0].kind)
    g.delete_nodes((nid, jmp))
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


# cleanup_round's steps in order, each one rule over the whole graph, True
# when it fired. The lambdas look the rules up when called, so the rule
# bound to the module name at that moment is the one that runs.
_CLEANUP_STEPS: dict[str, Callable[[FirmGraph], bool]] = {
    "fold_cond": lambda g: _sweep(g, fold_cond, _CONDS),
    "reach": lambda g: remove_unreachable_block(g),
    "phi_op": lambda g: _sweep(g, remove_unreachable_phi_operand, _PHIS),
    "fep": lambda g: _sweep(g, fix_edge_position, _BLOCKS),
    "simplify": lambda g: _sweep(g, simplify_trivial_phi, _PHIS),
    "assoc": lambda g: _sweep(g, constfold.fold_assoc_comm, COMMUTATIVE_KINDS),
    "unused": lambda g: _exhaust_unused(g),
    "merge": lambda g: _sweep(g, merge_blocks, _BLOCKS),
    "bypass": lambda g: _sweep(g, bypass_empty_block, _BLOCKS),
    "redundant": lambda g: _sweep(
        g, partial(fold_redundant_cond, trapping=trapping_nodes(g)), _CONDS
    ),
}
# optimize's rules in order: "fold", the dataflow fixpoint, then cleanup_round's.
_RULES = ("fold", *_CLEANUP_STEPS)

# Rule -> the rules whose match its rewrite can create. Each rule leaves no
# match of its own behind, so none names itself. The entries hold on graphs
# of plain control (see _plain_control).
_ENABLES: dict[str, frozenset[str]] = {
    # A fresh Const can complete a Cond's or a link's operands; the folded
    # node's operands lose a reader; fold_phi deletes a Phi, which may have
    # been its block's only member but the Jmp or its last Phi; a folded
    # Div or Mod, or a node over one, no longer traps.
    "fold": frozenset({"fold_cond", "assoc", "unused", "merge", "bypass", "redundant"}),
    # The untaken successor loses a predecessor; the taken one now follows
    # a Jmp; the condition loses a reader; a block that held only the Cond
    # now holds only a Jmp.
    "fold_cond": frozenset({"reach", "phi_op", "fep", "unused", "merge", "bypass"}),
    # Deleted members and transfers take operands and predecessors from
    # live nodes with them, and can open a link on a ring through no Phi or
    # cut a Phi's path to a Div.
    "reach": frozenset(
        {"fold", "phi_op", "fep", "simplify", "assoc", "unused", "merge", "bypass", "redundant"}
    ),
    # A Phi left with fewer operands, maybe none that reaches a Div.
    "phi_op": frozenset({"fold", "simplify", "unused", "redundant"}),
    # Positions only; phi_op, due with it, has just put every Phi operand
    # on a live position, which the renumbering keeps live.
    "fep": frozenset(),
    # The Phi's readers now read its operand, a Const or a link; its block
    # may lose its last Phi, or hold only its Jmp. Every path that ran
    # through the Phi now ends at that operand, so nothing goes unread.
    "simplify": frozenset({"fold", "fold_cond", "assoc", "merge", "bypass", "redundant"}),
    # The old links and constants lose a reader.
    "assoc": frozenset({"unused"}),
    # A dead Phi was its block's last, or a dead value its block's last
    # member but the Jmp.
    "unused": frozenset({"merge", "bypass", "redundant"}),
    # The members move and reachability holds; under plain control no
    # other edge entered the Jmp or the Block.
    "merge": frozenset(),
    # The Cond may now enter one block by both edges. Positions hold, and
    # a successor that held only a Jmp would have merged first.
    "bypass": frozenset({"redundant"}),
    # The join loses a predecessor, renumbered on the spot, and may be left
    # with the one Controlflow edge; the condition loses a reader; a block
    # that held only the Cond now holds only a Jmp.
    "redundant": frozenset({"unused", "merge", "bypass"}),
}
# The rules a verified graph gives no match right after the pre-pass: V7
# leaves fix_edge_position nothing to renumber, V4 leaves no Phi operand
# unmatched, and the pre-pass has just deleted the unused nodes.
_QUIET_ON_ENTRY = frozenset({"fep", "phi_op", "unused"})


def _plain_control(g: FirmGraph) -> bool:
    """Whether every control edge ends at a control transfer, no edge ends
    at a Block, a Jmp has at most one incoming edge and a Cond just its True
    and False edges.

    _ENABLES relies on this: the rules that delete value nodes then drop no
    predecessor, and merge_blocks drops only the edge it follows. No rule
    adds a control edge or an edge into a Block or entered Jmp. One moves an
    edge onto a Cond: bypass_empty_block gives it the edge of the Jmp it
    deletes, in place of the True or False edge that goes with the block, so
    the Cond keeps one of each. So it holds throughout optimize once it
    holds on entry. Generated graphs keep it; a graph that verifies without
    it gets the every-rule passes.
    """
    # FirmGraph's tables, read directly as verify does: this runs on every
    # optimize call.
    nodes, ins, outs = g._nodes, g._in, g._out
    for nid, node in nodes.items():
        kind = node.kind
        if kind is _BLOCK:
            if ins[nid]:
                return False
            for e in outs[nid]:
                if nodes[e.dst].kind not in CONTROL_TRANSFER_KINDS:
                    return False
        elif kind is _JMP:
            if len(ins[nid]) > 1:
                return False
        elif kind is _COND:
            if len(ins[nid]) != 2:
                return False
    return True


def cleanup_round(g: FirmGraph, due: set[str] | None = None) -> bool:
    """One round of structural cleanup, each rule in one sweep; True when
    anything changed.

    Rule order matters: conditions fold before reachability is
    recomputed, Phi operands are pruned before positions are renumbered,
    and block merging runs last over the settled shape. Alone, the round
    runs every rule once. Given optimize's set of due rules, it runs only
    those still due when their turn comes, takes each rule out of the set
    as it runs, and adds what _ENABLES names for each rule that fired.
    """
    if due is None:
        due = set(_CLEANUP_STEPS)
    changed = False
    for rule, step in _CLEANUP_STEPS.items():
        if rule in due:
            due.discard(rule)
            if step(g):
                changed = True
                due |= _ENABLES[rule]
    return changed


def optimize(
    g: FirmGraph,
    max_rounds: int | None = None,
    on_round: Callable[[int, FirmGraph], None] | None = None,
) -> bool:
    """Delete dead code, then run dataflow folding and cleanup to a joint
    fixpoint, each rule only while some rewrite may have given it a match.

    A round is one pass over the rules in a fixed order, the dataflow
    fixpoint first and cleanup_round's steps after it, that runs each rule
    only if it is due. The first pass finds every rule due but those in
    _QUIET_ON_ENTRY; a rule that fires makes its _ENABLES entry due, and the
    loop ends when no rule is due, without a round that only proves the
    fixpoint. On a graph without plain control (_plain_control) every rule
    is due from the start and again after any round that fired, as if each
    round ran them all.

    The graph must verify cleanly going in and is verified again on the
    way out, where a finding raises PassOutputError, a ContractError.
    Returns True when the graph changed at all. max_rounds
    guards against a runaway loop; exceeding it is a ContractError.
    """
    findings = verify(g)
    if findings:
        raise VerificationError(findings, "before optimize")
    changed_ever = _exhaust_unused(g)
    plain = _plain_control(g)
    due = set(_RULES).difference(_QUIET_ON_ENTRY) if plain else set(_RULES)
    rounds = 0
    while due:
        rounds += 1
        if max_rounds is not None and rounds > max_rounds:
            raise ContractError(f"optimize exceeded {max_rounds} rounds")
        folded = False
        if "fold" in due:
            due.discard("fold")
            folded = fold_dataflow_fixpoint(g)
            if folded:
                due |= _ENABLES["fold"]
        cleaned = cleanup_round(g, due)
        if folded or cleaned:
            changed_ever = True
            if not plain:
                due.update(_RULES)
        if on_round is not None:
            on_round(rounds, g)
    findings = verify(g)
    if findings:
        raise PassOutputError(findings, "after optimize")
    return changed_ever
