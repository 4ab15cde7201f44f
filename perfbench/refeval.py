"""A reference evaluator for graph JSON that shares no code with firmfold.

It reads the file format directly and does its own 32-bit arithmetic, so a
fault in firmfold's interpreter or arithmetic cannot hide a fault in the
optimizer. It covers the node kinds that firmfold's seeded generator emits:
Const, Not, the binary operations without Div and Mod, Cmp, Phi, volatile Load
and the Jmp/Cond/Return transfers.

Semantics, as firmfold documents them: values are 32-bit two's complement;
add, sub, mul and shl wrap; shift amounts are taken mod 32 and the right shift
is arithmetic; Cmp gives 1 or 0. Execution starts in the start block. Entering
a block along predecessor position p evaluates every Phi's operand at p with
the old values, then updates all Phis at once. Other values are computed on
demand; they depend only on Phi values and inputs, so a computed value stays
valid until the next Phi update.
"""

from __future__ import annotations

import json
import operator

_WORD = 1 << 32
_SIGN = 1 << 31


def _s32(x: int) -> int:
    x &= _WORD - 1
    return x - _WORD if x & _SIGN else x


_BINARY = {
    "Add": lambda a, b: _s32(a + b),
    "Sub": lambda a, b: _s32(a - b),
    "Mul": lambda a, b: _s32(a * b),
    "And": lambda a, b: a & b,
    "Or": lambda a, b: a | b,
    "Xor": lambda a, b: a ^ b,
    "Shl": lambda a, b: _s32(a << (b & 31)),
    "Shr": lambda a, b: a >> (b & 31),
}

_RELATIONS = {
    "Equal": operator.eq,
    "NotEqual": operator.ne,
    "Less": operator.lt,
    "LessEqual": operator.le,
    "Greater": operator.gt,
    "GreaterEqual": operator.ge,
}

_TRANSFERS = ("Jmp", "Cond", "Return")


class StepLimit(Exception):
    """The program ran longer than the step budget allowed."""


class Program:
    """One graph JSON document, indexed for evaluation."""

    def __init__(self, payload: dict):
        self.start = payload["start"]
        self.nodes = {n["id"]: n for n in payload["nodes"]}
        self.operands: dict[int, dict[int, int]] = {nid: {} for nid in self.nodes}
        # (transfer node, edge kind) -> (successor block, predecessor position)
        self.successor: dict[tuple[int, str], tuple[int, int]] = {}
        for e in payload["edges"]:
            if e["kind"] == "Dataflow":
                self.operands[e["src"]][e["position"]] = e["dst"]
            else:
                self.successor[(e["dst"], e["kind"])] = (e["src"], e["position"])
        self.phis: dict[int, list[int]] = {}
        self.transfer: dict[int, int] = {}
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            block = node.get("block")
            if node["kind"] == "Phi":
                self.phis.setdefault(block, []).append(nid)
            elif node["kind"] in _TRANSFERS:
                self.transfer.setdefault(block, nid)

    @classmethod
    def from_file(cls, path) -> "Program":
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f))

    def run(self, inputs: dict[int, int], limit: int) -> tuple[int, int]:
        """Return (value, steps); raise StepLimit past `limit` steps."""
        nodes, operands, successor = self.nodes, self.operands, self.successor
        phi_values: dict[int, int] = {}
        memo: dict[int, int] = {}
        steps = 0

        def value(root: int) -> int:
            nonlocal steps
            stack = [root]
            while stack:
                nid = stack[-1]
                if nid in memo:
                    stack.pop()
                    continue
                node = nodes[nid]
                kind = node["kind"]
                if kind == "Const":
                    memo[nid] = node["value"]
                elif kind == "Phi":
                    memo[nid] = phi_values[nid]
                elif kind == "Load":
                    memo[nid] = inputs[nid] if node["volatile"] else 0
                else:
                    ops = operands[nid]
                    missing = [d for d in ops.values() if d not in memo]
                    if missing:
                        stack.extend(missing)
                        continue
                    if kind == "Not":
                        memo[nid] = ~memo[ops[0]]
                    elif kind == "Cmp":
                        holds = _RELATIONS[node["relation"]](memo[ops[0]], memo[ops[1]])
                        memo[nid] = 1 if holds else 0
                    else:
                        memo[nid] = _BINARY[kind](memo[ops[0]], memo[ops[1]])
                stack.pop()
                steps += 1
                if steps > limit:
                    raise StepLimit(f"more than {limit} steps")
            return memo[root]

        block, position = self.start, None
        while True:
            steps += 1
            if steps > limit:
                raise StepLimit(f"more than {limit} steps")
            phis = self.phis.get(block)
            if position is not None and phis:
                updates = {p: value(operands[p][position]) for p in phis}
                phi_values.update(updates)
                memo.clear()
            xfer = self.transfer[block]
            kind = nodes[xfer]["kind"]
            if kind == "Return":
                return value(operands[xfer][0]), steps
            if kind == "Jmp":
                block, position = successor[(xfer, "Controlflow")]
            else:
                taken = "True" if value(operands[xfer][0]) != 0 else "False"
                block, position = successor[(xfer, taken)]
