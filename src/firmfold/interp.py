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

A node is decoded when a run first evaluates it, into a tag, its arith
function or value and its operand ids in position order, and a block when
control first enters it, into its Phis' operand per entry position and
its transfer's operand and successors. A volatile Load decodes to a tag
that reads the inputs mapping when it is evaluated, so nothing decoded
depends on a call's inputs. A bad shape is kept as its error message and
raised only when the run reaches it. The decoded nodes and blocks are
kept per graph, with the FirmGraph.version they were decoded at, and
serve every later call until a mutator changes the graph: the next call
then decodes afresh, so a graph edited between calls runs as edited.
Each call still has its own Phi values, step count and memos. The table
holds graphs weakly, so it keeps no graph alive. tests/reference_interp.py
keeps the interpreter that re-reads the graph at every step, as the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from weakref import WeakKeyDictionary

from .arith import BINARY, COMPARE, INT_MAX, INT_MIN, apply_binary, apply_not
from .errors import InterpreterError
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
_CONTROLFLOW, _TRUE, _FALSE = EdgeKind.CONTROLFLOW, EdgeKind.TRUE, EdgeKind.FALSE

# A decoded node is (tag, arith function, operand ids, extra). extra is a
# _VALUE node's value (a Load's, once its operands ran), an _IMMEDIATE
# node's immediate and a _FAIL node's error message. An _INPUT node is a
# volatile Load, which reads the call's inputs once its operands ran.
_BINARY, _IMMEDIATE, _VALUE, _INPUT, _READ_PHI, _UNARY, _FAIL = range(7)

# Graph -> (version, decoded nodes, decoded blocks). Neither dict refers to
# the graph, so an entry goes when its graph does.
_DECODED: WeakKeyDictionary[FirmGraph, tuple[int, dict, dict]] = WeakKeyDictionary()


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


def _successor(g: FirmGraph, xfer: int, kind: EdgeKind) -> tuple[int, int] | str:
    """The (block, position) xfer's one edge of this kind enters, or an error."""
    succ = g.in_edges(xfer, kind)
    if len(succ) == 1:
        return succ[0].src, succ[0].position
    if kind is _CONTROLFLOW:
        return f"Jmp {xfer} has {len(succ)} successors"
    return f"Cond {xfer} has {len(succ)} {kind.value} successors"


class _Run:
    """One execute call: its inputs, Phi values and step count, over the
    graph's decoded nodes and blocks, which it shares with every call at
    the same graph version."""

    __slots__ = ("g", "inputs", "max_steps", "steps", "nodes", "blocks", "phi_values")

    def __init__(self, g: FirmGraph, inputs: dict[int, int], max_steps: int):
        self.g = g
        self.inputs = inputs
        self.max_steps = max_steps
        self.steps = 0
        decoded = _DECODED.get(g)
        if decoded is None or decoded[0] != g.version:
            decoded = _DECODED[g] = (g.version, {}, {})
        _, self.nodes, self.blocks = decoded
        self.phi_values: dict[int, int | _Trap] = {}

    def decode(self, nid: int) -> tuple:
        node = self.g.node(nid)
        op = _OP_OF[node.kind]
        if op is _CONST:
            return _VALUE, None, (), node.value
        if op is _PHI:
            return _READ_PHI, None, (), None
        operands = [e.dst for e in self.g.operand_edges(nid)]
        if op in BINARY_KINDS:
            fn = BINARY[op]
            if op is _CMP:
                # A missing or unknown relation raises apply_binary's error.
                fn = COMPARE.get(node.relation) or partial(apply_binary, op, relation=node.relation)
            if node.kind in IMMEDIATE_KINDS:
                return _IMMEDIATE, fn, operands, node.value
            return _BINARY, fn, operands, None
        if op is _NOT:
            return _UNARY, apply_not, operands, None
        if op is _LOAD:
            if node.volatile:
                return _INPUT, None, operands, None
            return _VALUE, None, operands, 0
        return _FAIL, None, operands, f"{node.kind.value} node {nid} does not produce a value"

    def decode_block(self, block: int) -> tuple:
        """(phis, transfer op, operand, successor, other successor): phis
        holds (Phi id, {entry position: operand id}) by ascending id, and the
        successors are the (block, position) that a Jmp, or a Cond's True and
        then False edge, enters. A bad shape's slot holds its error message."""
        g = self.g
        nodes = g._nodes
        g.node(block)  # a missing id raises GraphError, as in members_of
        phis = []
        xfer = None
        for m in g._members.get(block, ()):
            kind = nodes[m].kind
            if _OP_OF[kind] is _PHI:
                phis.append(m)
            elif kind in CONTROL_TRANSFER_KINDS and (xfer is None or m < xfer):
                xfer = m
        phis.sort()
        for i, phi in enumerate(phis):
            by_pos: dict[int, int] = {}
            for e in g.operand_edges(phi):
                by_pos.setdefault(e.position, e.dst)
            phis[i] = phi, by_pos
        if xfer is None:
            return phis, None, f"block {block} has no control transfer", None, None
        op = _OP_OF[nodes[xfer].kind]
        if op is _JMP:
            return phis, op, None, _successor(g, xfer, _CONTROLFLOW), None
        ops = g.operand_edges(xfer)
        name = "Return" if op is _RETURN else "Cond"
        operand = ops[0].dst if len(ops) == 1 else f"{name} {xfer} needs exactly one operand"
        if op is _RETURN:
            return phis, op, operand, None, None
        return phis, op, operand, _successor(g, xfer, _TRUE), _successor(g, xfer, _FALSE)

    def value(self, root: int, memo: dict[int, int]) -> int:
        """Evaluate root within one block entry, whose values memo holds."""
        nodes, phi_values, limit, inputs = self.nodes, self.phi_values, self.max_steps, self.inputs
        stack = [root]
        # The nodes whose operands are running, on the stack above them.
        onstack: set[int] = set()
        while stack:
            nid = stack[-1]
            if nid in memo:
                stack.pop()
                continue
            d = nodes.get(nid)
            if d is None:
                d = nodes[nid] = self.decode(nid)
            tag, fn, operands, extra = d
            if nid in onstack:
                onstack.discard(nid)
            elif operands:
                # Push the operands not yet computed, the first on top. A
                # loop, not a comprehension, which is a call per node on
                # Python 3.11.
                top = len(stack)
                for o in reversed(operands):
                    if o not in memo:
                        if o == nid or o in onstack:
                            raise InterpreterError(f"dataflow cycle through node {o}")
                        stack.append(o)
                if len(stack) > top:
                    onstack.add(nid)
                    continue
            elif tag == _READ_PHI and nid not in phi_values:
                raise InterpreterError(f"Phi {nid} read before any predecessor assigned it")
            self.steps += 1
            if self.steps > limit:
                raise _Trap(TRAP_STEP_LIMIT)
            if tag == _BINARY:
                v = fn(memo[operands[0]], memo[operands[1]])
                if v is None:
                    raise _Trap(TRAP_DIV_BY_ZERO)
            elif tag == _VALUE:
                v = extra
            elif tag == _INPUT:
                v = inputs.get(nid)
                if v is None:
                    raise InterpreterError(f"no input value for volatile Load {nid}")
            elif tag == _IMMEDIATE:
                v = fn(memo[operands[0]], extra)
                if v is None:
                    raise _Trap(TRAP_DIV_BY_ZERO)
            elif tag == _READ_PHI:
                v = phi_values[nid]
                if type(v) is _Trap:
                    raise v
            elif tag == _UNARY:
                v = fn(memo[operands[0]])
            else:
                raise InterpreterError(extra)
            memo[nid] = v
            stack.pop()
        return memo[root]


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
    run = _Run(g, dict(inputs or {}), max_steps)
    blocks = run.blocks
    memo: dict[int, int] = {}
    cur, pos = g.start_block, None
    try:
        while True:
            b = blocks.get(cur)
            if b is None:
                b = blocks[cur] = run.decode_block(cur)
            phis, op, operand, succ, other = b
            if pos is not None and phis:
                updates = {}
                for phi, by_pos in phis:
                    if pos not in by_pos:
                        raise InterpreterError(
                            f"Phi {phi} has no operand for predecessor position {pos}"
                        )
                    try:
                        updates[phi] = run.value(by_pos[pos], memo)
                    except _Trap as trap:
                        if trap.reason == TRAP_STEP_LIMIT:
                            raise
                        updates[phi] = trap
                run.phi_values.update(updates)
            memo = {}
            if op is None:
                raise InterpreterError(operand)
            run.steps += 1
            if run.steps > max_steps:
                raise _Trap(TRAP_STEP_LIMIT)
            if type(operand) is str:
                raise InterpreterError(operand)
            if op is not _JMP:
                value = run.value(operand, memo)
                if op is _RETURN:
                    return ExecResult(value, None, run.steps)
                if value == 0:
                    succ = other
            if type(succ) is str:
                raise InterpreterError(succ)
            cur, pos = succ
    except _Trap as trap:
        return ExecResult(None, trap.reason, run.steps)
