"""The interpreter: one executable semantics for the IR.

Transformations are checked end to end by running a graph before and after
a pass on the same inputs; the differential tests, `firmfold exec` and the
benchmark's exec_s all run through here.

Execution walks the control flow graph from the start block. Each entry
into a block starts a fresh memo, so re-entering a block (a loop
iteration) recomputes the values it demands. Entering along predecessor
position p first evaluates every Phi's operand at p against the *old*
memo, then installs all updates at once; reading a Phi returns its value.
A Phi holds its operand's trap, and reading it raises the trap, so an
unread Phi traps no more than any other unread value. The step-limit trap
is never deferred, and neither is an InterpreterError, which is not a
trap; optimize may delete the dead node that raises one, and may fold a
Cond whose two edges enter one block, so that a condition that would
raise one is no longer demanded. A condition that can trap is kept.

Volatile Loads read the inputs mapping, keyed by node id; non-volatile
Loads produce 0 and Stores are never demanded. Division by zero and
exceeding the step budget are traps: defined, reportable outcomes.

Values are computed from demand orders. A value root is a transfer's
operand, or a Phi's operand at one entry position. Its order lists the
nodes that evaluating it from an empty memo computes, in the sequence a
depth-first walk computes them: operands in position order, each node
once and after its operands, the root last. Where the walk cannot go on
(a dataflow cycle, an operand missing from the graph) the order ends in
an error entry. Evaluating a root runs its order and skips the nodes the
memo holds. That computes what a walk over the same memo would, in the
same sequence, because every memo is operand-closed: a node is computed
only after its operands, so a memo holds the operands of each node it
holds. That is true of a block entry's fresh memo and of the
predecessor's memo that Phi operands read, a trap midway included. So a
memo hit stands for the whole part of the order below it, and values,
traps, step counts and the point of every error and step-limit trap are
those of the walk.

Per graph, the interpreter keeps each node's decoded order entry (a tag,
its arith function or error type, operand ids, and an immediate, value
or error message), each root's order, each block's decode (its Phis, its
transfer's operand order and successors) and each block entry
position's program (the Phis' operand orders at that position, then the
block's decode), together with the FirmGraph.version they were built at.
All of it is built the first time a run reaches it and serves every
later call until a mutator changes the graph; the next call then builds
afresh, so a graph edited between calls runs as edited. A volatile Load
decodes to a tag that reads the call's inputs when it is evaluated, so
nothing kept depends on the inputs, and a bad shape is kept as its error
message, raised only when a run reaches it. Each call has its own Phi
values, step count and memos. The table holds graphs weakly, so it keeps
no graph alive. tests/reference_interp.py keeps an interpreter that
re-reads the graph at every step, as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from weakref import WeakKeyDictionary

from .arith import BINARY, COMPARE, INT_MAX, INT_MIN, apply_binary, apply_not
from .errors import GraphError, InterpreterError
from .ir import BINARY_KINDS, CONTROL_TRANSFER_KINDS, IMMEDIATE_KINDS, OPS
from .ir import EdgeKind, FirmGraph, NodeKind

TRAP_DIV_BY_ZERO = "divide-by-zero"
TRAP_STEP_LIMIT = "step-limit"

# Every kind runs as the IR op it has the semantics of, so a TargetX or
# TargetXI node computes through X's entry in arith.
_OP_OF = {kind: d.op for kind, d in OPS.items()}

# Enum members as module globals: see the note in ir.
_CONST, _PHI, _NOT, _LOAD = NodeKind.CONST, NodeKind.PHI, NodeKind.NOT, NodeKind.LOAD
_CMP, _RETURN, _JMP = NodeKind.CMP, NodeKind.RETURN, NodeKind.JMP
_DATAFLOW = EdgeKind.DATAFLOW
_CONTROLFLOW, _TRUE, _FALSE = EdgeKind.CONTROLFLOW, EdgeKind.TRUE, EdgeKind.FALSE

# An order entry is (node id, tag, fn, a, b, operand ids), the operands
# being those the entry's node is listed after:
#   _BINARY     fn(memo[a], memo[b])
#   _IMMEDIATE  fn(memo[a], b), b the node's immediate
#   _VALUE      b: a Const's value, or 0 for a non-volatile Load
#   _INPUT      the call's input for the node, a volatile Load
#   _UNARY      fn(memo[a])
#   _FAIL       raises fn(b) once its step is counted
#   _READ_PHI   the Phi's value, checked for before its step is counted
#   _ERROR      raises fn(b) before any step; its node id is None
# Tags above _FAIL act before the step count.
_BINARY, _IMMEDIATE, _VALUE, _INPUT, _UNARY, _FAIL, _READ_PHI, _ERROR = range(8)


# Graph -> (version, decoded nodes, orders, blocks, programs): a node id
# maps to its order entry, a root to its order, a block to its
# decode and a (block, entry position) to its program. None of them refers
# to the graph, so an entry goes when its graph does.
_DECODED: WeakKeyDictionary[FirmGraph, tuple[int, dict, dict, dict, dict]] = WeakKeyDictionary()


@dataclass
class ExecResult:
    value: int | None
    trapped: str | None
    steps: int

    @property
    def ok(self) -> bool:
        return self.trapped is None


class _Trap(Exception):
    def __init__(self, reason: str):
        self.reason = reason


def _operands(edges) -> list[int]:
    """The Dataflow edges' operand ids, by position then id. One or two
    edges, the usual count, are read without building a sort key."""
    if len(edges) == 2:
        a, b = edges
        if a.kind is _DATAFLOW and b.kind is _DATAFLOW:
            pa, pb = a.position, b.position
            if pa < pb or pa == pb and a.dst <= b.dst:
                return [a.dst, b.dst]
            return [b.dst, a.dst]
    elif len(edges) == 1:
        (a,) = edges
        if a.kind is _DATAFLOW:
            return [a.dst]
    found = [(e.position, e.dst) for e in edges if e.kind is _DATAFLOW]
    found.sort()
    return [dst for _, dst in found]


def _decode(g: FirmGraph, nid: int) -> tuple:
    """The order entry of a node of g."""
    node = g._nodes[nid]
    kind = node.kind
    op = _OP_OF[kind]
    if op is _CONST:
        return nid, _VALUE, None, None, node.value, ()
    if op is _PHI:
        return nid, _READ_PHI, None, None, None, ()
    operands = _operands(g._out.get(nid, ()))
    if op in BINARY_KINDS:
        fn = BINARY[op]
        if op is _CMP:
            # A missing or unknown relation raises apply_binary's error.
            fn = COMPARE.get(node.relation) or partial(apply_binary, op, relation=node.relation)
        if kind in IMMEDIATE_KINDS:
            if operands:
                return nid, _IMMEDIATE, fn, operands[0], node.value, operands
        elif len(operands) > 1:
            return nid, _BINARY, fn, operands[0], operands[1], operands
    elif op is _NOT:
        if operands:
            return nid, _UNARY, apply_not, operands[0], None, operands
    elif op is _LOAD:
        if node.volatile:
            return nid, _INPUT, None, None, None, operands
        return nid, _VALUE, None, None, 0, operands
    else:
        message = f"{kind.value} node {nid} does not produce a value"
        return nid, _FAIL, InterpreterError, None, message, operands
    message = f"{kind.value} node {nid} has too few operands: {len(operands)}"
    return nid, _FAIL, InterpreterError, None, message, operands


def _order(g: FirmGraph, nodes: dict, root: int) -> list[tuple]:
    """root's demand order, decoding into nodes each node it reaches.

    The walk keeps an explicit stack, so a deep chain costs no Python
    frames. A node is listed once its operands are; state holds True for
    a node whose operands are being listed, which an operand naming it
    closes into a cycle, and False once it is listed."""
    order = []
    state: dict[int, bool] = {}
    stack = [root]
    while stack:
        nid = stack[-1]
        s = state.get(nid)
        if s is False:
            stack.pop()
            continue
        entry = nodes.get(nid)
        if entry is None:
            if nid not in g._nodes:
                order.append((None, _ERROR, GraphError, None, f"unknown node id {nid}", ()))
                return order
            entry = nodes[nid] = _decode(g, nid)
        operands = entry[5]
        if s is None and operands:
            # Push the operands not yet listed, the first on top. A loop,
            # not a comprehension, which is a call per node on Python 3.11.
            top = len(stack)
            for o in reversed(operands):
                listed = state.get(o)
                if listed is not False:
                    if listed or o == nid:
                        message = f"dataflow cycle through node {o}"
                        order.append((None, _ERROR, InterpreterError, None, message, ()))
                        return order
                    stack.append(o)
            if len(stack) > top:
                state[nid] = True
                continue
        order.append(entry)
        state[nid] = False
        stack.pop()
    return order


def _successor(g: FirmGraph, xfer: int, kind: EdgeKind) -> tuple[int, int] | str:
    """The (block, position) xfer's one edge of this kind enters, or an error."""
    count = 0
    for e in g._in.get(xfer, ()):
        if e.kind is kind:
            count += 1
            succ = e
    if count == 1:
        return succ.src, succ.position
    if kind is _CONTROLFLOW:
        return f"Jmp {xfer} has {count} successors"
    return f"Cond {xfer} has {count} {kind.value} successors"


def _order_of(g: FirmGraph, decoded: tuple, root: int) -> list[tuple]:
    """root's order from decoded, built the first time it is asked for."""
    orders = decoded[2]
    order = orders.get(root)
    if order is None:
        order = orders[root] = _order(g, decoded[1], root)
    return order


def _block(g: FirmGraph, decoded: tuple, block: int) -> tuple:
    """(Phi ids, transfer op, order, successor, other successor) for a
    block: its Phis by ascending id, its transfer's operand order, None
    for a Jmp, and the (block, position) that a Jmp, or a Cond's True and
    then False edge, enters. A bad shape's slot holds its error message;
    with no transfer, op is None and order holds the message."""
    table = g._nodes
    g.node(block)  # a missing id raises GraphError, as in members_of
    phis = []
    xfer = None
    for m in g._members.get(block, ()):
        kind = table[m].kind
        if _OP_OF[kind] is _PHI:
            phis.append(m)
        elif kind in CONTROL_TRANSFER_KINDS and (xfer is None or m < xfer):
            xfer = m
    if len(phis) > 1:
        phis.sort()
    if xfer is None:
        return phis, None, f"block {block} has no control transfer", None, None
    op = _OP_OF[table[xfer].kind]
    if op is _JMP:
        return phis, op, None, _successor(g, xfer, _CONTROLFLOW), None
    ops = _operands(g._out.get(xfer, ()))
    if len(ops) == 1:
        order = _order_of(g, decoded, ops[0])
    else:
        order = f"{'Return' if op is _RETURN else 'Cond'} {xfer} needs exactly one operand"
    if op is _RETURN:
        return phis, op, order, None, None
    return phis, op, order, _successor(g, xfer, _TRUE), _successor(g, xfer, _FALSE)


def _program(g: FirmGraph, decoded: tuple, block: int, pos: int | None) -> tuple:
    """(phis, transfer op, order, successor, other successor) for entering
    block at predecessor position pos, None for the start: the block's
    decode, with phis holding (Phi id, operand order at pos) by ascending
    id. They end at the first Phi with no operand at pos, whose order is
    its error message. The start's entry reads no Phi."""
    blocks = decoded[3]
    b = blocks.get(block)
    if b is None:
        b = blocks[block] = _block(g, decoded, block)
    if not b[0]:
        return b
    if pos is None:
        return ((),) + b[1:]
    phis = []
    for phi in b[0]:
        root = None
        for e in g._out.get(phi, ()):
            if e.position == pos and e.kind is _DATAFLOW and (root is None or e.dst < root):
                root = e.dst
        if root is None:
            phis.append((phi, f"Phi {phi} has no operand for predecessor position {pos}"))
            break
        phis.append((phi, _order_of(g, decoded, root)))
    return (phis,) + b[1:]


class _Run:
    """One execute call: its inputs, Phi values and step count."""

    __slots__ = ("inputs", "max_steps", "steps", "phi_values")

    def __init__(self, inputs: dict[int, int], max_steps: int):
        self.inputs = inputs
        self.max_steps = max_steps
        self.steps = 0
        self.phi_values: dict[int, int | _Trap] = {}

    def value(self, order: list[tuple], memo: dict[int, int]) -> int:
        """Run order within one block entry, whose values memo holds, and
        return its root's value."""
        phi_values, inputs, limit = self.phi_values, self.inputs, self.max_steps
        steps = self.steps
        try:
            for nid, tag, fn, a, b, _ in order:
                if nid in memo:
                    continue
                if tag > _FAIL:
                    if tag == _ERROR:
                        raise fn(b)
                    v = phi_values.get(nid)
                    if v is None:
                        raise InterpreterError(f"Phi {nid} read before any predecessor assigned it")
                    steps += 1
                    if steps > limit:
                        raise _Trap(TRAP_STEP_LIMIT)
                    if type(v) is _Trap:
                        raise v
                    memo[nid] = v
                    continue
                steps += 1
                if steps > limit:
                    raise _Trap(TRAP_STEP_LIMIT)
                if tag == _BINARY:
                    v = fn(memo[a], memo[b])
                    if v is None:
                        raise _Trap(TRAP_DIV_BY_ZERO)
                elif tag == _VALUE:
                    v = b
                elif tag == _IMMEDIATE:
                    v = fn(memo[a], b)
                    if v is None:
                        raise _Trap(TRAP_DIV_BY_ZERO)
                elif tag == _INPUT:
                    v = inputs.get(nid)
                    if v is None:
                        raise InterpreterError(f"no input value for volatile Load {nid}")
                elif tag == _UNARY:
                    v = fn(memo[a])
                else:
                    raise fn(b)
                memo[nid] = v
        finally:
            self.steps = steps
        return memo[nid]


def execute(
    g: FirmGraph,
    inputs: dict[int, int] | None = None,
    max_steps: int = 10**6,
) -> ExecResult:
    """Run a graph to its Return, a trap, or an error.

    Graphs that fail verification are not supported here; run the
    verifier first if in doubt. Every input value must be an int in the
    IR's 32-bit signed range.
    """
    if g.start_block is None or g.start_block not in g:
        raise InterpreterError("graph has no start block")
    for nid, value in (inputs or {}).items():
        if not isinstance(value, int) or isinstance(value, bool) or not INT_MIN <= value <= INT_MAX:
            raise InterpreterError(f"input {value!r} for node {nid} is not a 32-bit signed integer")
    decoded = _DECODED.get(g)
    if decoded is None or decoded[0] != g.version:
        decoded = _DECODED[g] = (g.version, {}, {}, {}, {})
    programs = decoded[4]
    run = _Run(dict(inputs or {}), max_steps)
    memo: dict[int, int] = {}
    entry = g.start_block, None
    try:
        while True:
            program = programs.get(entry)
            if program is None:
                program = programs[entry] = _program(g, decoded, *entry)
            phis, op, order, succ, other = program
            if phis:
                updates = {}
                for phi, phi_order in phis:
                    if type(phi_order) is str:
                        raise InterpreterError(phi_order)
                    try:
                        updates[phi] = run.value(phi_order, memo)
                    except _Trap as trap:
                        if trap.reason == TRAP_STEP_LIMIT:
                            raise
                        updates[phi] = trap
                run.phi_values.update(updates)
            memo = {}
            if op is None:
                raise InterpreterError(order)
            run.steps += 1
            if run.steps > max_steps:
                raise _Trap(TRAP_STEP_LIMIT)
            if type(order) is str:
                raise InterpreterError(order)
            if op is not _JMP:
                value = run.value(order, memo)
                if op is _RETURN:
                    return ExecResult(value, None, run.steps)
                if value == 0:
                    succ = other
            if type(succ) is str:
                raise InterpreterError(succ)
            entry = succ
    except _Trap as trap:
        return ExecResult(None, trap.reason, run.steps)
