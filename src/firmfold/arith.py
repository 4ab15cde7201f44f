"""32-bit signed two's-complement integer semantics.

All constant values in the IR live in [-2**31, 2**31 - 1] and every
operation wraps. Division and remainder truncate toward zero (C-style),
shifts use only the low five bits of the shift amount, and the right
shift is arithmetic. Comparisons produce 1 or 0. The range's bounds,
INT_MIN and INT_MAX, are defined in ir and re-exported here.

BINARY holds each IR binary op's semantics once, as a function of its two
operands, and COMPARE each Relation's, for Cmp. Constant folding reaches
them through apply_binary; the interpreter calls the entries directly.
"""

from __future__ import annotations

from typing import Callable

from .ir import INT_MAX, INT_MIN, NodeKind, Relation

# Enum members as module globals: see the note in ir.
_CMP = NodeKind.CMP


def wrap32(x: int) -> int:
    """Reduce an arbitrary integer into signed 32-bit range."""
    return ((x + 2**31) & (2**32 - 1)) - 2**31


def trunc_div(a: int, b: int) -> int:
    """Signed division truncating toward zero. b must be nonzero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def trunc_mod(a: int, b: int) -> int:
    """Remainder matching trunc_div: the result takes the sign of a."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _cmp_without_relation(a: int, b: int) -> int:
    raise ValueError("Cmp needs a relation")


# The entries spell wrap32 out, so each operation is one call. Division and
# remainder give None for a zero divisor: it never folds, and it traps.
BINARY: dict[NodeKind, Callable[[int, int], int | None]] = {
    NodeKind.ADD: lambda a, b: ((a + b + 2**31) & (2**32 - 1)) - 2**31,
    NodeKind.SUB: lambda a, b: ((a - b + 2**31) & (2**32 - 1)) - 2**31,
    NodeKind.MUL: lambda a, b: ((a * b + 2**31) & (2**32 - 1)) - 2**31,
    NodeKind.DIV: lambda a, b: None if b == 0 else wrap32(trunc_div(a, b)),
    NodeKind.MOD: lambda a, b: None if b == 0 else wrap32(trunc_mod(a, b)),
    NodeKind.AND: lambda a, b: (((a & b) + 2**31) & (2**32 - 1)) - 2**31,
    NodeKind.OR: lambda a, b: (((a | b) + 2**31) & (2**32 - 1)) - 2**31,
    NodeKind.XOR: lambda a, b: (((a ^ b) + 2**31) & (2**32 - 1)) - 2**31,
    NodeKind.SHL: lambda a, b: (((a << (b % 32)) + 2**31) & (2**32 - 1)) - 2**31,
    # Python's >> on a signed int is already an arithmetic shift.
    NodeKind.SHR: lambda a, b: a >> (b % 32),
    # A Cmp computes through its relation's COMPARE entry; this one stands
    # for a Cmp that has none.
    NodeKind.CMP: _cmp_without_relation,
}

COMPARE: dict[Relation, Callable[[int, int], int]] = {
    Relation.EQUAL: lambda a, b: 1 if a == b else 0,
    Relation.NOT_EQUAL: lambda a, b: 1 if a != b else 0,
    Relation.LESS: lambda a, b: 1 if a < b else 0,
    Relation.LESS_EQUAL: lambda a, b: 1 if a <= b else 0,
    Relation.GREATER: lambda a, b: 1 if a > b else 0,
    Relation.GREATER_EQUAL: lambda a, b: 1 if a >= b else 0,
}


def relation_holds(rel: Relation, a: int, b: int) -> bool:
    fn = COMPARE.get(rel)
    if fn is None:
        raise ValueError(f"unknown relation {rel!r}")
    return fn(a, b) == 1


def apply_not(a: int) -> int:
    return wrap32(~a)


def apply_binary(kind: NodeKind, a: int, b: int, relation: Relation | None = None) -> int | None:
    """Evaluate one binary operation on in-range operands.

    Returns None for division or remainder by zero.
    """
    if kind is _CMP and relation is not None:
        return 1 if relation_holds(relation, a, b) else 0
    fn = BINARY.get(kind)
    if fn is None:
        raise ValueError(f"{kind.value} is not a binary operation")
    return fn(a, b)
