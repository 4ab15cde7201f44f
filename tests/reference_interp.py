"""The interpreter as it was before it ran from decoded nodes, kept as the
reference for firmfold.interp.

Each evaluation re-reads the node and its sorted operand edges from the
graph, memoizes values per block-entry epoch, and computes through
apply_binary. It is slow and plain on purpose. The differential tests
assert that firmfold.interp.execute returns the same value, trap and step
count, and raises the same exception type and message, on every graph they
run. Its semantics are documented in firmfold.interp.
"""

from __future__ import annotations

from dataclasses import dataclass

from firmfold.arith import INT_MAX, INT_MIN, apply_binary, apply_not
from firmfold.errors import InterpreterError
from firmfold.ir import (
    BINARY_KINDS,
    CONTROL_TRANSFER_KINDS,
    IMMEDIATE_KINDS,
    OPS,
    EdgeKind,
    FirmGraph,
    NodeKind,
)

TRAP_DIV_BY_ZERO = "divide-by-zero"
TRAP_STEP_LIMIT = "step-limit"

# Every kind runs as the IR op it has the semantics of, so a TargetX or
# TargetXI node computes through X's entry in apply_binary.
_OP_OF = {kind: d.op for kind, d in OPS.items()}

# Enum members as module globals: see the note in ir.
_CONST, _PHI, _NOT, _LOAD = NodeKind.CONST, NodeKind.PHI, NodeKind.NOT, NodeKind.LOAD
_RETURN, _JMP, _COND = NodeKind.RETURN, NodeKind.JMP, NodeKind.COND
_CONTROLFLOW, _TRUE, _FALSE = EdgeKind.CONTROLFLOW, EdgeKind.TRUE, EdgeKind.FALSE


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


class _Machine:
    def __init__(self, g: FirmGraph, inputs: dict[int, int], max_steps: int):
        self.g = g
        self.inputs = inputs
        self.max_steps = max_steps
        self.steps = 0
        self.epoch = 0
        self.memo: dict[int, tuple[int, int]] = {}
        self.phi_values: dict[int, int | _Trap] = {}
        self._block_cache: dict[int, tuple[list[int], int | None]] = {}

    def _bump(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise _Trap(TRAP_STEP_LIMIT)

    def block_info(self, block: int) -> tuple[list[int], int | None]:
        """(phi ids ascending, transfer node id or None) for one block."""
        cached = self._block_cache.get(block)
        if cached is None:
            phis = []
            xfer = None
            for m in self.g.members_of(block):
                kind = self.g.node(m).kind
                if _OP_OF[kind] is _PHI:
                    phis.append(m)
                elif xfer is None and kind in CONTROL_TRANSFER_KINDS:
                    xfer = m
            cached = (phis, xfer)
            self._block_cache[block] = cached
        return cached

    def eval(self, root: int) -> int:
        g = self.g
        memo = self.memo
        epoch = self.epoch
        op_of = _OP_OF
        const_op = _CONST
        phi_op = _PHI
        stack = [root]
        onstack: set[int] = set()
        while stack:
            nid = stack[-1]
            cached = memo.get(nid)
            if cached is not None and cached[0] == epoch:
                stack.pop()
                onstack.discard(nid)
                continue
            node = g.node(nid)
            op = op_of[node.kind]
            if op is const_op:
                self._bump()
                memo[nid] = (epoch, node.value)
                stack.pop()
                continue
            if op is phi_op:
                try:
                    value = self.phi_values[nid]
                except KeyError:
                    raise InterpreterError(
                        f"Phi {nid} read before any predecessor assigned it"
                    ) from None
                self._bump()
                if type(value) is _Trap:
                    raise value
                memo[nid] = (epoch, value)
                stack.pop()
                continue
            edges = g.operand_edges(nid)
            missing = []
            vals = []
            for e in edges:
                c = memo.get(e.dst)
                if c is None or c[0] != epoch:
                    missing.append(e.dst)
                else:
                    vals.append(c[1])
            if missing:
                onstack.add(nid)
                for d in reversed(missing):
                    if d in onstack:
                        raise InterpreterError(f"dataflow cycle through node {d}")
                    stack.append(d)
                continue
            memo[nid] = (epoch, self._compute(nid, node, op, vals))
            onstack.discard(nid)
            stack.pop()
        return memo[root][1]

    def _compute(self, nid: int, node, op: NodeKind, vals: list[int]) -> int:
        self._bump()
        if op in BINARY_KINDS or op is _NOT:
            needed = 2 if op in BINARY_KINDS and node.kind not in IMMEDIATE_KINDS else 1
            if len(vals) < needed:
                raise InterpreterError(
                    f"{node.kind.value} node {nid} has too few operands: {len(vals)}"
                )
        if op in BINARY_KINDS:
            b = node.value if node.kind in IMMEDIATE_KINDS else vals[1]
            value = apply_binary(op, vals[0], b, node.relation)
            if value is None:
                raise _Trap(TRAP_DIV_BY_ZERO)
            return value
        if op is _NOT:
            return apply_not(vals[0])
        if op is _LOAD:
            if node.volatile:
                try:
                    return self.inputs[nid]
                except KeyError:
                    raise InterpreterError(
                        f"no input value for volatile Load {nid}"
                    ) from None
            return 0
        raise InterpreterError(f"{node.kind.value} node {nid} does not produce a value")


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
        if not isinstance(value, int) or isinstance(value, bool) or not (
            INT_MIN <= value <= INT_MAX
        ):
            raise InterpreterError(
                f"input {value!r} for node {nid} is not a 32-bit signed integer"
            )
    m = _Machine(g, dict(inputs or {}), max_steps)
    cur = g.start_block
    entry_pos: int | None = None
    try:
        while True:
            phis, xfer = m.block_info(cur)
            if entry_pos is not None and phis:
                updates = {}
                for phi in phis:
                    operand = None
                    for e in g.operand_edges(phi):
                        if e.position == entry_pos:
                            operand = e.dst
                            break
                    if operand is None:
                        raise InterpreterError(
                            f"Phi {phi} has no operand for predecessor position {entry_pos}"
                        )
                    try:
                        updates[phi] = m.eval(operand)
                    except _Trap as trap:
                        if trap.reason == TRAP_STEP_LIMIT:
                            raise
                        updates[phi] = trap
                m.epoch += 1
                m.phi_values.update(updates)
            else:
                m.epoch += 1
            if xfer is None:
                raise InterpreterError(f"block {cur} has no control transfer")
            m._bump()
            kind = g.node(xfer).kind
            op = _OP_OF[kind]
            if op is _RETURN:
                ops = g.operand_edges(xfer)
                if len(ops) != 1:
                    raise InterpreterError(f"Return {xfer} needs exactly one operand")
                return ExecResult(m.eval(ops[0].dst), None, m.steps)
            if op is _JMP:
                succ = g.in_edges(xfer, _CONTROLFLOW)
                if len(succ) != 1:
                    raise InterpreterError(f"Jmp {xfer} has {len(succ)} successors")
                cur, entry_pos = succ[0].src, succ[0].position
                continue
            if op is _COND:
                ops = g.operand_edges(xfer)
                if len(ops) != 1:
                    raise InterpreterError(f"Cond {xfer} needs exactly one operand")
                value = m.eval(ops[0].dst)
                wanted = _TRUE if value != 0 else _FALSE
                succ = g.in_edges(xfer, wanted)
                if len(succ) != 1:
                    raise InterpreterError(
                        f"Cond {xfer} has {len(succ)} {wanted.value} successors"
                    )
                cur, entry_pos = succ[0].src, succ[0].position
                continue
            raise InterpreterError(f"{kind.value} node {xfer} cannot transfer control")
    except _Trap as trap:
        return ExecResult(None, trap.reason, m.steps)
