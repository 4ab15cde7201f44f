"""32-bit signed two's-complement integer semantics.

All constant values in the IR live in [-2**31, 2**31 - 1] and every
operation wraps. Division and remainder truncate toward zero (C-style),
shifts use only the low five bits of the shift amount, and the right
shift is arithmetic. Comparisons produce 1 or 0. The range's bounds,
INT_MIN and INT_MAX, are defined in ir and re-exported here.
"""

from __future__ import annotations

from .ir import INT_MAX, INT_MIN, NodeKind, Relation

_U32 = 1 << 32
_SIGN = 1 << 31

# Enum members as module globals: see the note in ir.
_ADD, _SUB, _MUL, _DIV, _MOD = NodeKind.ADD, NodeKind.SUB, NodeKind.MUL, NodeKind.DIV, NodeKind.MOD
_AND, _OR, _XOR, _SHL, _SHR, _CMP = (
    NodeKind.AND, NodeKind.OR, NodeKind.XOR, NodeKind.SHL, NodeKind.SHR, NodeKind.CMP
)
_EQUAL, _NOT_EQUAL, _LESS = Relation.EQUAL, Relation.NOT_EQUAL, Relation.LESS
_LESS_EQUAL, _GREATER, _GREATER_EQUAL = (
    Relation.LESS_EQUAL, Relation.GREATER, Relation.GREATER_EQUAL
)


def wrap32(x: int) -> int:
    """Reduce an arbitrary integer into signed 32-bit range."""
    x &= _U32 - 1
    return x - _U32 if x & _SIGN else x


def trunc_div(a: int, b: int) -> int:
    """Signed division truncating toward zero. b must be nonzero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def trunc_mod(a: int, b: int) -> int:
    """Remainder matching trunc_div: the result takes the sign of a."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def relation_holds(rel: Relation, a: int, b: int) -> bool:
    if rel is _EQUAL:
        return a == b
    if rel is _NOT_EQUAL:
        return a != b
    if rel is _LESS:
        return a < b
    if rel is _LESS_EQUAL:
        return a <= b
    if rel is _GREATER:
        return a > b
    if rel is _GREATER_EQUAL:
        return a >= b
    raise ValueError(f"unknown relation {rel!r}")


def apply_not(a: int) -> int:
    return wrap32(~a)


def apply_binary(kind: NodeKind, a: int, b: int, relation: Relation | None = None) -> int | None:
    """Evaluate one binary operation on in-range operands.

    Returns None for division or remainder by zero; those never fold and
    the interpreter turns them into a trap.
    """
    if kind is _ADD:
        return wrap32(a + b)
    if kind is _SUB:
        return wrap32(a - b)
    if kind is _MUL:
        return wrap32(a * b)
    if kind is _DIV:
        if b == 0:
            return None
        return wrap32(trunc_div(a, b))
    if kind is _MOD:
        if b == 0:
            return None
        return wrap32(trunc_mod(a, b))
    if kind is _AND:
        return wrap32(a & b)
    if kind is _OR:
        return wrap32(a | b)
    if kind is _XOR:
        return wrap32(a ^ b)
    if kind is _SHL:
        return wrap32(a << (b % 32))
    if kind is _SHR:
        # Python's >> on a signed int is already an arithmetic shift.
        return a >> (b % 32)
    if kind is _CMP:
        if relation is None:
            raise ValueError("Cmp needs a relation")
        return 1 if relation_holds(relation, a, b) else 0
    raise ValueError(f"{kind.value} is not a binary operation")
