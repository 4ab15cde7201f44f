"""Typed, attributed multigraph IR.

Nodes are operations, and edges connect them:

* ``Dataflow`` edges point from a user to its operand, with ``position``
  giving the operand index.
* ``Controlflow``/``True``/``False`` edges point from a target Block to the
  control-transfer node (Jmp/Cond/Return) sitting in the predecessor block.
  ``position`` is the predecessor index of the source block, which is what
  Phi operand positions line up with.

Containment is not an edge. Each non-Block node's ``block`` field names
the Block containing it, or is None once that Block is deleted, and the
graph keeps one member set per Block. edge_count still counts each
membership as one edge, the containment edge of the Firm model.

Node and Edge fields change only through FirmGraph's mutators, and every
mutator bumps FirmGraph.version, so a reader that keeps something derived
from a graph (the interpreter keeps its decoded program) can tell whether
the graph has changed since. tests/test_mutation_interface.py fails on a
field write anywhere else in the package.

Deletion is one linear pass, delete_nodes, which filters each surviving
neighbour's incidence list once. The sweep of dead code, delete_unused,
marks what live nodes read and ends in one such pass.

Node ids are ints handed out monotonically and never reused. Iterating
the node table visits nodes in insertion order: ascending ids for a graph
built through FirmGraph, the file's order for a loaded one.

Every per-kind fact (arity, legal attributes, role, purity,
commutativity, semantic op and target forms) lives in one table, OPS; the
kind sets and maps below it are views of that table.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from .errors import GraphError, NoBlockError

# The signed 32-bit range every Const value lies in.
INT_MIN = -(2**31)
INT_MAX = 2**31 - 1


class NodeKind(Enum):
    # Members compare by identity, so the identity hash agrees with ==; it
    # runs in C, unlike Enum.__hash__. It must be set here, in the class
    # body: every frozenset and dict of kinds below is keyed by it.
    __hash__ = object.__hash__

    # structural
    BLOCK = "Block"
    START = "Start"
    END = "End"
    RETURN = "Return"
    JMP = "Jmp"
    COND = "Cond"
    PHI = "Phi"
    # dataflow
    CONST = "Const"
    NOT = "Not"
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    DIV = "Div"
    MOD = "Mod"
    AND = "And"
    OR = "Or"
    XOR = "Xor"
    SHL = "Shl"
    SHR = "Shr"
    CMP = "Cmp"
    LOAD = "Load"
    STORE = "Store"
    # target representation
    TARGET_CONST = "TargetConst"
    TARGET_NOT = "TargetNot"
    TARGET_ADD = "TargetAdd"
    TARGET_ADD_I = "TargetAddI"
    TARGET_SUB = "TargetSub"
    TARGET_SUB_I = "TargetSubI"
    TARGET_MUL = "TargetMul"
    TARGET_MUL_I = "TargetMulI"
    TARGET_AND = "TargetAnd"
    TARGET_AND_I = "TargetAndI"
    TARGET_OR = "TargetOr"
    TARGET_OR_I = "TargetOrI"
    TARGET_XOR = "TargetXor"
    TARGET_XOR_I = "TargetXorI"
    TARGET_SHL = "TargetShl"
    TARGET_SHL_I = "TargetShlI"
    TARGET_SHR = "TargetShr"
    TARGET_SHR_I = "TargetShrI"
    TARGET_CMP = "TargetCmp"
    TARGET_CMP_I = "TargetCmpI"
    TARGET_PHI = "TargetPhi"
    TARGET_JMP = "TargetJmp"
    TARGET_COND = "TargetCond"
    TARGET_RETURN = "TargetReturn"
    TARGET_LOAD = "TargetLoad"
    TARGET_STORE = "TargetStore"


class EdgeKind(Enum):
    __hash__ = object.__hash__  # see NodeKind

    DATAFLOW = "Dataflow"
    CONTROLFLOW = "Controlflow"
    TRUE = "True"
    FALSE = "False"


class Relation(Enum):
    __hash__ = object.__hash__  # see NodeKind

    EQUAL = "Equal"
    NOT_EQUAL = "NotEqual"
    LESS = "Less"
    LESS_EQUAL = "LessEqual"
    GREATER = "Greater"
    GREATER_EQUAL = "GreaterEqual"


# Role bits: the structural part a kind plays. Anchors (Block, Start,
# End) are never retyped and never swept as unreachable nodes.
ROLE_ANCHOR, ROLE_TRANSFER, ROLE_PHI, ROLE_COND, ROLE_START, ROLE_END = 1, 2, 4, 8, 16, 32
_ROLE_OF_TRAIT = {
    "anchor": ROLE_ANCHOR,
    "transfer": ROLE_TRANSFER,
    "phi": ROLE_PHI,
    "cond": ROLE_COND,
    "start": ROLE_START,
    "end": ROLE_END,
}


class OpInfo(NamedTuple):
    """Every per-kind fact the package uses, for one NodeKind.

    arity counts Dataflow operands (None: variable, at least one). value,
    relation and volatile say which attributes the kind carries; each is
    legal exactly where it is set. role holds ROLE_* bits. commutative lets
    rewrites swap the two operands; pure lets cleanup delete a node no live
    node reads, unless the node is volatile. op is the IR kind whose semantics
    the kind has (itself for an IR kind); plain and immediate are the target
    kinds instruction selection lowers an IR kind to.
    """

    arity: int | None
    value: bool
    relation: bool
    volatile: bool
    role: int
    commutative: bool
    pure: bool
    op: NodeKind
    plain: NodeKind | None
    immediate: NodeKind | None


K = NodeKind
# One row per IR kind. Each target kind is derived from the row of the IR
# kind it lowers from: a plain form keeps the shape, an immediate form
# takes operand 1 as its value attribute. Target kinds are final, so no
# rule swaps their operands or deletes them.
_IR_OPS = (
    # kind     arity  traits                plain            immediate
    (K.BLOCK,  0,     "anchor",             None,            None),
    (K.START,  0,     "anchor start",       None,            None),
    (K.END,    0,     "anchor end",         None,            None),
    (K.RETURN, 1,     "transfer",           K.TARGET_RETURN, None),
    (K.JMP,    0,     "transfer",           K.TARGET_JMP,    None),
    (K.COND,   1,     "transfer cond",      K.TARGET_COND,   None),
    (K.PHI,    None,  "phi pure",           K.TARGET_PHI,    None),
    (K.CONST,  0,     "value pure",         K.TARGET_CONST,  None),
    (K.NOT,    1,     "pure",               K.TARGET_NOT,    None),
    (K.ADD,    2,     "pure commutative",   K.TARGET_ADD,    K.TARGET_ADD_I),
    (K.SUB,    2,     "pure",               K.TARGET_SUB,    K.TARGET_SUB_I),
    (K.MUL,    2,     "pure commutative",   K.TARGET_MUL,    K.TARGET_MUL_I),
    (K.DIV,    2,     "pure",               None,            None),
    (K.MOD,    2,     "pure",               None,            None),
    (K.AND,    2,     "pure commutative",   K.TARGET_AND,    K.TARGET_AND_I),
    (K.OR,     2,     "pure commutative",   K.TARGET_OR,     K.TARGET_OR_I),
    (K.XOR,    2,     "pure commutative",   K.TARGET_XOR,    K.TARGET_XOR_I),
    (K.SHL,    2,     "pure",               K.TARGET_SHL,    K.TARGET_SHL_I),
    (K.SHR,    2,     "pure",               K.TARGET_SHR,    K.TARGET_SHR_I),
    (K.CMP,    2,     "relation pure",      K.TARGET_CMP,    K.TARGET_CMP_I),
    (K.LOAD,   1,     "volatile pure",      K.TARGET_LOAD,   None),
    (K.STORE,  2,     "volatile",           K.TARGET_STORE,  None),
)
del K


def _op_table() -> dict[NodeKind, OpInfo]:
    ops = {}
    for kind, arity, traits, plain, immediate in _IR_OPS:
        words = traits.split()
        info = ops[kind] = OpInfo(
            arity,
            "value" in words,
            "relation" in words,
            "volatile" in words,
            sum(bit for trait, bit in _ROLE_OF_TRAIT.items() if trait in words),
            "commutative" in words,
            "pure" in words,
            kind,
            plain,
            immediate,
        )
        lowered = info._replace(commutative=False, pure=False, plain=None, immediate=None)
        if plain is not None:
            ops[plain] = lowered
        if immediate is not None:
            ops[immediate] = lowered._replace(arity=arity - 1, value=True)
    # In NodeKind order; a kind without a row fails here.
    return {kind: ops[kind] for kind in NodeKind}


OPS = _op_table()

# Views of OPS for the hot `kind in S` tests and the retyping maps.
ARITY = {k: d.arity for k, d in OPS.items()}
VALUE_KINDS = frozenset(k for k, d in OPS.items() if d.value)
RELATION_KINDS = frozenset(k for k, d in OPS.items() if d.relation)
MEMORY_KINDS = frozenset(k for k, d in OPS.items() if d.volatile)
ANCHOR_KINDS = frozenset(k for k, d in OPS.items() if d.role & ROLE_ANCHOR)
CONTROL_TRANSFER_KINDS = frozenset(k for k, d in OPS.items() if d.role & ROLE_TRANSFER)
COMMUTATIVE_KINDS = frozenset(k for k, d in OPS.items() if d.commutative)
PURE_KINDS = frozenset(k for k, d in OPS.items() if d.pure)
BINARY_KINDS = frozenset(k for k in PURE_KINDS if OPS[k].arity == 2)
TARGET_KINDS = frozenset(k for k, d in OPS.items() if d.op is not k)
PLAIN_TARGET_OF = {k: d.plain for k, d in OPS.items() if d.plain is not None}
IMMEDIATE_TARGET_OF = {k: d.immediate for k, d in OPS.items() if d.immediate is not None}
IMMEDIATE_KINDS = frozenset(IMMEDIATE_TARGET_OF.values())
TARGET_BINARY_KINDS = frozenset(PLAIN_TARGET_OF[k] for k in IMMEDIATE_TARGET_OF)

CONTROL_EDGE_KINDS = frozenset({EdgeKind.CONTROLFLOW, EdgeKind.TRUE, EdgeKind.FALSE})

# Enum members as module globals. On Python 3.11 EnumType defines
# __getattr__, so reading NodeKind.X costs several times a global lookup;
# function bodies in the hot modules read these names instead.
_BLOCK, _START, _END = NodeKind.BLOCK, NodeKind.START, NodeKind.END
_DATAFLOW = EdgeKind.DATAFLOW


class Node:
    """One operation. block is the id of the containing Block, or None for
    a Block and for a node whose Block was deleted."""

    __slots__ = ("kind", "value", "relation", "volatile", "block")

    def __init__(
        self,
        kind: NodeKind,
        value: int | None = None,
        relation: Relation | None = None,
        volatile: bool | None = None,
        block: int | None = None,
    ):
        self.kind = kind
        self.value = value
        self.relation = relation
        self.volatile = volatile
        self.block = block

    def __repr__(self) -> str:
        attrs = []
        if self.value is not None:
            attrs.append(f"value={self.value}")
        if self.relation is not None:
            attrs.append(f"relation={self.relation.value}")
        if self.volatile is not None:
            attrs.append(f"volatile={self.volatile}")
        inner = (": " + ", ".join(attrs)) if attrs else ""
        return f"<{self.kind.value}{inner}>"


class Edge:
    __slots__ = ("src", "dst", "kind", "position")

    def __init__(self, src: int, dst: int, kind: EdgeKind, position: int | None):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.position = position

    def __repr__(self) -> str:
        pos = "" if self.position is None else f"@{self.position}"
        return f"<{self.src} -{self.kind.value}{pos}-> {self.dst}>"


def _check_value(kind: NodeKind, value: int | None) -> None:
    """Raise GraphError unless value is a legal value attribute for kind."""
    if value is not None and kind not in VALUE_KINDS:
        raise GraphError(f"{kind.value} cannot carry a value attribute")
    if value is None and kind in VALUE_KINDS:
        raise GraphError(f"{kind.value} requires a value attribute")
    # Only what the JSON format can carry back: a bool is an int to
    # isinstance, but saves as true/false.
    if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
        raise GraphError(f"value must be an integer, got {value!r}")
    if value is not None and not (INT_MIN <= value <= INT_MAX):
        raise GraphError(f"value {value} outside 32-bit signed range")


def _by_position(edges: list[Edge]) -> list[Edge]:
    """Sort edges by (position, dst) in place, stably, and return them. Most
    lists hold one or two edges: two are compared without a keyed sort."""
    if len(edges) == 2:
        a, b = edges
        if (b.position, b.dst) < (a.position, a.dst):
            edges.reverse()
    elif len(edges) > 2:
        edges.sort(key=lambda e: (e.position, e.dst))
    return edges


class FirmGraph:
    """One function's worth of IR.

    Node and Edge fields change only through the mutators below, never by
    a direct write. Each mutator bumps version, so two reads of version
    that agree bracket no change to the nodes and edges; start_block and
    end_block are plain attributes outside that promise. Mutators keep
    the incidence lists and the block memberships consistent; there is no
    way to leave a dangling edge or membership through the public
    interface; delete_nodes is the one routine that removes nodes.
    Verification is a separate read-only concern (see verifier.py), so
    structurally odd but representable graphs are allowed here.
    """

    def __init__(self) -> None:
        self._nodes: dict[int, Node] = {}
        self._out: dict[int, list[Edge]] = {}
        self._in: dict[int, list[Edge]] = {}
        # Block id -> ids of the nodes whose block field names it.
        self._members: dict[int, set[int]] = {}
        self._next_id = 0
        # Bumped by every mutator; a new or copied graph starts at 0.
        self.version = 0
        self.start_block: int | None = None
        self.end_block: int | None = None

    # -- basic queries ------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    @property
    def edge_count(self) -> int:
        """Edges plus one per block membership (the containment edges)."""
        return sum(map(len, self._out.values())) + sum(map(len, self._members.values()))

    def node(self, nid: int) -> Node:
        try:
            return self._nodes[nid]
        except KeyError:
            raise GraphError(f"unknown node id {nid}") from None

    def node_ids(self) -> Iterator[int]:
        """All live node ids in insertion order (ascending for a graph built
        here, the file's order for a loaded one)."""
        return iter(self._nodes)

    def items(self):
        return self._nodes.items()

    def edges(self) -> Iterator[Edge]:
        for lst in self._out.values():
            yield from lst

    def out_edges(self, nid: int, kind: EdgeKind | None = None) -> list[Edge]:
        lst = self._out.get(nid, ())
        if kind is None:
            return list(lst)
        return [e for e in lst if e.kind is kind]

    def in_edges(self, nid: int, kind: EdgeKind | None = None) -> list[Edge]:
        lst = self._in.get(nid, ())
        if kind is None:
            return list(lst)
        return [e for e in lst if e.kind is kind]

    # -- construction ---------------------------------------------------

    def add_node(
        self,
        kind: NodeKind,
        *,
        value: int | None = None,
        relation: Relation | None = None,
        volatile: bool | None = None,
        block: int | None = None,
    ) -> int:
        """Create a node, checking attribute legality for its kind.

        Non-Block nodes must name their containing block and become its
        members as part of this call. Blocks take no attributes at all.
        """
        _check_value(kind, value)
        if relation is not None and kind not in RELATION_KINDS:
            raise GraphError(f"{kind.value} cannot carry a relation attribute")
        if relation is None and kind in RELATION_KINDS:
            raise GraphError(f"{kind.value} requires a relation attribute")
        if volatile is not None and kind not in MEMORY_KINDS:
            raise GraphError(f"{kind.value} cannot carry a volatile attribute")
        if volatile is None and kind in MEMORY_KINDS:
            volatile = False
        if volatile is not None and not isinstance(volatile, bool):
            raise GraphError(f"volatile must be a boolean, got {volatile!r}")

        if block is not None:
            self._check_home(kind, block)
        elif kind is not _BLOCK:
            raise GraphError(f"{kind.value} node needs a containing block")

        nid = self._next_id
        self._next_id += 1
        self.version += 1
        self._nodes[nid] = Node(kind, value, relation, volatile)
        self._out[nid] = []
        self._in[nid] = []
        if block is not None:
            self._join(nid, block)
        return nid

    @classmethod
    def _from_tables(cls, nodes: dict[int, Node], edges: list[Edge]) -> "FirmGraph":
        """A graph over a finished node table and edge list, without checks.

        The bulk hook for deserialization and copy(): the caller vouches
        that every edge's endpoints are keys of `nodes`. Each incidence list
        gets its edges in the order `edges` lists them, and each node's
        block field makes it a member of that block.
        """
        g = cls()
        g._nodes = nodes
        out = g._out = {nid: [] for nid in nodes}
        inc = g._in = {nid: [] for nid in nodes}
        for e in edges:
            out[e.src].append(e)
            inc[e.dst].append(e)
        members = g._members
        for nid, n in nodes.items():
            if n.block is not None:
                members.setdefault(n.block, set()).add(nid)
        g._next_id = max(0, max(nodes, default=-1) + 1)
        return g

    def add_edge(
        self, src: int, dst: int, kind: EdgeKind, position: int | None = None
    ) -> Edge:
        src_node = self.node(src)
        self.node(dst)
        if position is None or position < 0:
            raise GraphError(f"{kind.value} edge needs a position >= 0")
        if kind in CONTROL_EDGE_KINDS and src_node.kind is not _BLOCK:
            raise GraphError(
                f"{kind.value} edge must start at the target Block, "
                f"not at a {src_node.kind.value}"
            )
        edge = Edge(src, dst, kind, position)
        self.version += 1
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    # -- mutation --------------------------------------------------------

    def set_block(self, nid: int, block: int) -> None:
        """Make a node that has no containing block a member of a Block.

        A node lives in at most one block, so one that already has a block
        is refused, and so is a Block, which no block contains.
        """
        node = self.node(nid)
        self._check_home(node.kind, block)
        if node.block is not None:
            raise GraphError(f"node {nid} is already in block {node.block}")
        self.version += 1
        self._join(nid, block)

    def _check_home(self, kind: NodeKind, block: int) -> None:
        home = self.node(block)
        if kind is _BLOCK:
            raise GraphError("a Block is not contained in a block")
        if home.kind is not _BLOCK:
            raise GraphError(f"containing block {block} is not a Block")

    def _join(self, nid: int, block: int) -> None:
        self._nodes[nid].block = block
        self._members.setdefault(block, set()).add(nid)

    def move_members(self, frm: int, to: int) -> None:
        """Move every member of block frm into block to."""
        self.node(frm)
        if self.node(to).kind is not _BLOCK:
            raise GraphError(f"containing block {to} is not a Block")
        if frm == to:
            raise GraphError("move_members needs two distinct blocks")
        self.version += 1
        moved = self._members.pop(frm, ())
        for m in moved:
            self._nodes[m].block = to
        self._members.setdefault(to, set()).update(moved)

    def delete_edge(self, edge: Edge) -> None:
        try:
            self._out[edge.src].remove(edge)
            self._in[edge.dst].remove(edge)
        except (KeyError, ValueError):
            raise GraphError(f"edge {edge!r} is not in the graph") from None
        self.version += 1

    def delete_node(self, nid: int) -> None:
        """Remove a node and every incident edge; a deleted Block's members
        are left without a block."""
        self.delete_nodes((nid,))

    def delete_nodes(self, ids: Iterable[int]) -> None:
        """Remove a set of nodes and every edge incident to any of them, in
        one pass linear in their edges and their neighbours' lists.

        Every id is checked before anything changes: an unknown id or the
        Start or End node is a GraphError and leaves the graph as it was.
        A repeated id counts once. Each surviving neighbour's incidence list
        is filtered once, keeping its order, and the surviving members of a
        deleted Block are left without a block.
        """
        nodes = self._nodes
        doomed = set()
        for nid in ids:
            node = nodes.get(nid)
            if node is None:
                raise GraphError(f"unknown node id {nid}")
            if node.kind is _START or node.kind is _END:
                raise GraphError(f"refusing to delete the {node.kind.value} node")
            doomed.add(nid)
        self.version += 1
        out, inc, members = self._out, self._in, self._members
        in_lists, out_lists = set(), set()
        for nid in doomed:
            for e in out.pop(nid):
                if e.dst not in doomed:
                    in_lists.add(e.dst)
            for e in inc.pop(nid):
                if e.src not in doomed:
                    out_lists.add(e.src)
            block = nodes.pop(nid).block
            if block is not None and block not in doomed:
                members[block].discard(nid)
            for m in members.pop(nid, ()):
                if m not in doomed:
                    nodes[m].block = None
        for nid in in_lists:
            inc[nid] = [e for e in inc[nid] if e.src not in doomed]
        for nid in out_lists:
            out[nid] = [e for e in out[nid] if e.dst not in doomed]

    def delete_unused(self) -> bool:
        """Delete every pure, non-volatile node that no live node reads; True
        when any went.

        A mark-sweep: every node that is not pure, or is volatile, is live,
        and so is every operand a live node's Dataflow edge reaches. The mark
        visits only live code. Everything left unmarked, dead chains and dead
        cycles alike, goes in one delete_nodes call.
        """
        nodes, out = self._nodes, self._out
        live = [nid for nid, node in nodes.items() if node.kind not in PURE_KINDS or node.volatile]
        marked = set(live)
        # The loop visits what it appends.
        for nid in live:
            for e in out[nid]:
                dst = e.dst
                if e.kind is _DATAFLOW and dst not in marked:
                    marked.add(dst)
                    live.append(dst)
        dead = nodes.keys() - marked
        self.delete_nodes(dead)
        return bool(dead)

    def retype_node(self, nid: int, new_kind: NodeKind) -> None:
        """Change a node's kind in place, keeping its id and edges.

        Attributes survive when the new kind can carry them and are dropped
        otherwise. Structural anchors (Block, Start, End) cannot take part.
        """
        node = self.node(nid)
        if node.kind in ANCHOR_KINDS or new_kind in ANCHOR_KINDS:
            raise GraphError(f"cannot retype {node.kind.value} to {new_kind.value}")
        self.version += 1
        node.kind = new_kind
        if new_kind not in VALUE_KINDS:
            node.value = None
        if new_kind not in RELATION_KINDS:
            node.relation = None
        if new_kind in MEMORY_KINDS:
            if node.volatile is None:
                node.volatile = False
        else:
            node.volatile = None

    def retype_edge(self, edge: Edge, new_kind: EdgeKind) -> None:
        """Change an edge's kind; only control kinds are interchangeable."""
        if edge.kind not in CONTROL_EDGE_KINDS or new_kind not in CONTROL_EDGE_KINDS:
            raise GraphError(
                f"cannot retype {edge.kind.value} edge to {new_kind.value}"
            )
        if edge not in self._out.get(edge.src, ()):
            raise GraphError(f"edge {edge!r} is not in the graph")
        self.version += 1
        edge.kind = new_kind

    def set_position(self, edge: Edge, position: int) -> None:
        """Move an edge to another operand or predecessor position, checked
        as add_edge checks one."""
        if position is None or position < 0:
            raise GraphError(f"{edge.kind.value} edge needs a position >= 0")
        if edge not in self._out.get(edge.src, ()):
            raise GraphError(f"edge {edge!r} is not in the graph")
        self.version += 1
        edge.position = position

    def set_value(self, nid: int, value: int) -> None:
        """Replace a node's value attribute, checked as add_node checks one."""
        node = self.node(nid)
        _check_value(node.kind, value)
        self.version += 1
        node.value = value

    def retarget_edge(self, edge: Edge, new_dst: int) -> None:
        """Point an existing edge at a different destination node."""
        self.node(new_dst)
        try:
            self._in[edge.dst].remove(edge)
        except (KeyError, ValueError):
            raise GraphError(f"edge {edge!r} is not in the graph") from None
        self.version += 1
        edge.dst = new_dst
        self._in[new_dst].append(edge)

    def redirect_users(self, frm: int, to: int) -> int:
        """Move every Dataflow edge ending at `frm` over to `to`.

        Positions are untouched. Returns the number of edges moved.
        """
        self.node(frm)
        self.node(to)
        if frm == to:
            raise GraphError("redirect_users needs two distinct nodes")
        self.version += 1
        moved, kept = [], []
        for e in self._in[frm]:
            (moved if e.kind is _DATAFLOW else kept).append(e)
        self._in[frm] = kept
        for e in moved:
            e.dst = to
        self._in[to].extend(moved)
        return len(moved)

    # -- derived views ----------------------------------------------------

    def users_of(self, nid: int) -> list[tuple[int, int]]:
        """(user id, operand position) pairs, ordered by position then id."""
        self.node(nid)
        pairs = [
            (e.src, e.position)
            for e in self._in[nid]
            if e.kind is _DATAFLOW
        ]
        pairs.sort(key=lambda p: (p[1], p[0]))
        return pairs

    def operands_of(self, nid: int) -> list[tuple[int, int]]:
        """(operand id, position) pairs, ordered by position then id."""
        self.node(nid)
        return [(e.dst, e.position) for e in self.operand_edges(nid)]

    def operand_edges(self, nid: int) -> list[Edge]:
        """Dataflow edges out of nid, ordered by position then operand id."""
        return _by_position([e for e in self._out.get(nid, ()) if e.kind is _DATAFLOW])

    def binary_operands(self, nid: int) -> list[Edge] | None:
        """The Dataflow operand edges at positions 0 and 1, in that order,
        or None when nid has any other operand shape."""
        edges = self.operand_edges(nid)
        if len(edges) != 2 or edges[0].position != 0 or edges[1].position != 1:
            return None
        return edges

    def block_of(self, nid: int) -> int:
        """The Block containing nid."""
        node = self._nodes.get(nid)
        if node is None or node.block is None:
            raise NoBlockError(f"node {nid} has no containing block")
        return node.block

    def members_of(self, block: int) -> list[int]:
        """Ids of the nodes this block contains, ascending."""
        self.node(block)
        return sorted(self._members.get(block, ()))

    def control_in_edges(self, block: int) -> list[Edge]:
        """Control edges entering this block (src == block), by position."""
        return _by_position([e for e in self._out.get(block, ()) if e.kind in CONTROL_EDGE_KINDS])

    # -- whole-graph helpers ----------------------------------------------

    def copy(self) -> "FirmGraph":
        g = FirmGraph._from_tables(
            {
                nid: Node(n.kind, n.value, n.relation, n.volatile, n.block)
                for nid, n in self._nodes.items()
            },
            [Edge(e.src, e.dst, e.kind, e.position) for e in self.edges()],
        )
        g._next_id = self._next_id
        g.start_block = self.start_block
        g.end_block = self.end_block
        return g

    def signature(self) -> tuple:
        """A canonical tuple equal for structurally identical graphs."""
        nodes = tuple(
            (
                nid,
                n.kind.value,
                n.value,
                None if n.relation is None else n.relation.value,
                n.volatile,
                n.block,
            )
            for nid, n in sorted(self._nodes.items())
        )
        edges = tuple(
            sorted(
                (e.src, e.kind.value, -1 if e.position is None else e.position, e.dst)
                for e in self.edges()
            )
        )
        return (nodes, edges, self.start_block, self.end_block)
