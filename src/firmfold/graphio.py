"""Serialization, DOT export, and seeded random graph generation.

The on-disk format is JSON: nodes carry id/kind/attributes plus a
"block" field naming their containing Block; edges list src/dst/kind/
position for everything except containment. The writer is canonical
(nodes by id, edges by (src, kind, position, dst), fixed key order), so
saving a loaded file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import FormatError
from .ir import (
    COMMUTATIVE_KINDS,
    IMMEDIATE_TARGET_OF,
    INT_MAX,
    INT_MIN,
    OPS,
    Edge,
    EdgeKind,
    FirmGraph,
    Node,
    NodeKind,
    Relation,
)

_NODE_KEYS = frozenset({"id", "kind", "value", "relation", "volatile", "block"})
_EDGE_KEYS = frozenset({"src", "dst", "kind", "position"})
_NODE_KIND_NAMED = {k.value: k for k in NodeKind}
_EDGE_KIND_NAMED = {k.value: k for k in EdgeKind}
_RELATION_NAMED = {r.value: r for r in Relation}
# The Firm model's name for a containment edge. The format writes
# containment as the node's "block" field, and DOT draws it as an arrow.
_BLOCK_EDGE = "BlockEdge"

# Enum members as module globals: see the note in ir.
_BLOCK, _START, _END, _RETURN = NodeKind.BLOCK, NodeKind.START, NodeKind.END, NodeKind.RETURN
_JMP, _COND, _PHI, _CONST = NodeKind.JMP, NodeKind.COND, NodeKind.PHI, NodeKind.CONST
_NOT, _ADD, _CMP, _LOAD = NodeKind.NOT, NodeKind.ADD, NodeKind.CMP, NodeKind.LOAD
_DATAFLOW, _CONTROLFLOW = EdgeKind.DATAFLOW, EdgeKind.CONTROLFLOW
_TRUE, _FALSE = EdgeKind.TRUE, EdgeKind.FALSE
_LESS = Relation.LESS


# -- JSON ------------------------------------------------------------------


def _bad_name(ctx: str, key: str, what: str, name) -> FormatError:
    if not isinstance(name, str):
        return FormatError(f"{ctx}: {key!r} must be a string")
    return FormatError(f"{ctx}: unknown {what} {name!r}")


def from_payload(data) -> FirmGraph:
    """Build a graph from parsed graph JSON in one validating pass.

    A FormatError names the first bad item, checking the nodes in file
    order, then their "block" fields in node order, then the edges, then
    "start" and "end". The node table keeps the file's order, and each
    incidence list holds the file's edges in file order.
    """
    if not isinstance(data, dict):
        raise FormatError("top level must be a JSON object")
    extra = set(data) - {"nodes", "edges", "start", "end"}
    if extra:
        raise FormatError(f"unknown top-level keys: {sorted(extra)}")
    for key in ("nodes", "edges", "start", "end"):
        if key not in data:
            raise FormatError(f"missing top-level key {key!r}")
    if not isinstance(data["nodes"], list) or not isinstance(data["edges"], list):
        raise FormatError("'nodes' and 'edges' must be arrays")

    nodes: dict[int, Node] = {}
    for i, item in enumerate(data["nodes"]):
        if not isinstance(item, dict):
            raise FormatError(f"nodes[{i}]: must be an object")
        if not item.keys() <= _NODE_KEYS:
            raise FormatError(f"nodes[{i}]: unknown keys {sorted(item.keys() - _NODE_KEYS)}")
        nid = item.get("id")
        if type(nid) is not int:
            raise FormatError(f"nodes[{i}]: 'id' must be an integer")
        name = item.get("kind")
        try:
            kind = _NODE_KIND_NAMED[name]
        except (KeyError, TypeError):
            raise _bad_name(f"nodes[{i}]", "kind", "node kind", name) from None
        value = relation = volatile = None
        if "value" in item:
            value = item["value"]
            if type(value) is not int:
                raise FormatError(f"nodes[{i}]: 'value' must be an integer")
        if "relation" in item:
            name = item["relation"]
            try:
                relation = _RELATION_NAMED[name]
            except (KeyError, TypeError):
                raise _bad_name(f"nodes[{i}]", "relation", "relation", name) from None
        if "volatile" in item:
            volatile = item["volatile"]
            if type(volatile) is not bool:
                raise FormatError(f"nodes[{i}]: 'volatile' must be a boolean")
        if nid in nodes:
            raise FormatError(f"nodes[{i}]: duplicate node id {nid}")
        block = item.get("block")
        if type(block) is not int and "block" in item:
            raise FormatError(f"nodes[{i}]: 'block' must be an integer")
        nodes[nid] = Node(kind, value, relation, volatile, block)

    for nid, n in nodes.items():
        if n.block is None:
            continue
        target = nodes.get(n.block)
        if target is None or target.kind is not _BLOCK or n.kind is _BLOCK:
            # Every node item made it into the table, so its rank is its index.
            ctx = f"nodes[{list(nodes).index(nid)}]"
            if target is None:
                raise FormatError(f"{ctx}: unknown node id {n.block}")
            if n.kind is _BLOCK:
                raise FormatError(f"{ctx}: a Block is not contained in a block")
            raise FormatError(f"{ctx}: containing block {n.block} is not a Block")

    edges: list[Edge] = []
    for i, item in enumerate(data["edges"]):
        if not isinstance(item, dict):
            raise FormatError(f"edges[{i}]: must be an object")
        if not item.keys() <= _EDGE_KEYS:
            raise FormatError(f"edges[{i}]: unknown keys {sorted(item.keys() - _EDGE_KEYS)}")
        src = item.get("src")
        if type(src) is not int:
            raise FormatError(f"edges[{i}]: 'src' must be an integer")
        dst = item.get("dst")
        if type(dst) is not int:
            raise FormatError(f"edges[{i}]: 'dst' must be an integer")
        name = item.get("kind")
        try:
            kind = _EDGE_KIND_NAMED[name]
        except (KeyError, TypeError):
            if name == _BLOCK_EDGE:
                raise FormatError(
                    f"edges[{i}]: containment is written as the node's 'block' field, "
                    "not as an explicit edge"
                ) from None
            raise _bad_name(f"edges[{i}]", "kind", "edge kind", name) from None
        position = item.get("position")
        if type(position) is not int and "position" in item:
            raise FormatError(f"edges[{i}]: 'position' must be an integer")
        src_node = nodes.get(src)
        if src_node is None:
            raise FormatError(f"edges[{i}]: unknown node id {src}")
        if dst not in nodes:
            raise FormatError(f"edges[{i}]: unknown node id {dst}")
        if position is None or position < 0:
            raise FormatError(f"edges[{i}]: {kind.value} edge needs a position >= 0")
        if kind is not _DATAFLOW and src_node.kind is not _BLOCK:
            raise FormatError(
                f"edges[{i}]: {kind.value} edge must start at the target Block, "
                f"not at a {src_node.kind.value}"
            )
        edges.append(Edge(src, dst, kind, position))

    for key in ("start", "end"):
        ref = data[key]
        if ref is not None and type(ref) is not int:
            raise FormatError(f"{key!r} must be an integer node id")
        if ref is not None and ref not in nodes:
            raise FormatError(f"{key!r} references missing node {ref}")
    g = FirmGraph._from_tables(nodes, edges)
    g.start_block, g.end_block = data["start"], data["end"]
    return g


# The canonical text, laid out exactly as json.dumps(payload, indent=2)
# lays it out. Kind and relation names are ASCII identifiers, so they need
# no escaping, and add_node admits only ints for value and bools for
# volatile, so %d and true/false are exact.
_NODE_HEAD = '    {\n      "id": %d,\n      "kind": "%s"'
_NODE_VALUE = ',\n      "value": %d'
_NODE_RELATION = ',\n      "relation": "%s"'
_NODE_VOLATILE = {True: ',\n      "volatile": true', False: ',\n      "volatile": false'}
_NODE_BLOCK = ',\n      "block": %d\n    }'
_EDGE = (
    '    {\n      "src": %d,\n      "dst": %d,\n      "kind": "%s",\n'
    '      "position": %d\n    }'
)


def _array(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _ref(nid: int | None) -> str:
    return "null" if nid is None else "%d" % nid


def to_json(g: FirmGraph) -> str:
    """The canonical text: nodes by id, edges by (src, kind, position, dst).

    Containment is the node's "block" field.
    """
    nodes = g._nodes
    items = []
    for nid in sorted(nodes):
        n = nodes[nid]
        item = _NODE_HEAD % (nid, n.kind.value)
        if n.value is not None:
            item += _NODE_VALUE % n.value
        if n.relation is not None:
            item += _NODE_RELATION % n.relation.value
        if n.volatile is not None:
            item += _NODE_VOLATILE[n.volatile]
        items.append(item + ("\n    }" if n.block is None else _NODE_BLOCK % n.block))
    plain = sorted((e.src, e.kind.value, e.position, e.dst) for e in g.edges())
    edges = [_EDGE % (src, dst, kind, pos) for src, kind, pos, dst in plain]
    return (
        f'{{\n  "nodes": {_array(items)},\n  "edges": {_array(edges)},\n'
        f'  "start": {_ref(g.start_block)},\n  "end": {_ref(g.end_block)}\n}}\n'
    )


def to_payload(g: FirmGraph) -> dict:
    """The canonical JSON as Python data; to_json fixes its layout."""
    return json.loads(to_json(g))


def from_json(text: str) -> FirmGraph:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals.
        raise FormatError(f"invalid JSON: {exc}") from None
    return from_payload(data)


def load(path) -> FirmGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"invalid UTF-8: {exc}") from None
    return from_json(text)


def save(g: FirmGraph, path) -> None:
    Path(path).write_text(to_json(g), encoding="utf-8")


# -- DOT -------------------------------------------------------------------

# By edge kind name; containment is drawn as a dotted arrow to the Block.
_EDGE_STYLE = {
    EdgeKind.DATAFLOW.value: "color=black",
    EdgeKind.CONTROLFLOW.value: "color=blue, style=bold",
    EdgeKind.TRUE.value: "color=darkgreen, style=bold",
    EdgeKind.FALSE.value: "color=red, style=bold",
    _BLOCK_EDGE: "color=gray60, style=dotted, arrowhead=none",
}


def _node_label(g: FirmGraph, nid: int) -> str:
    n = g.node(nid)
    parts = [f"{nid}: {n.kind.value}"]
    if n.value is not None:
        parts.append(str(n.value))
    if n.relation is not None:
        parts.append(n.relation.value)
    if n.volatile:
        parts.append("volatile")
    return " ".join(parts)


def _node_line(g: FirmGraph, nid: int, highlights) -> str:
    extra = ", style=filled, fillcolor=gold" if nid in highlights else ""
    return f'n{nid} [label="{_node_label(g, nid)}"{extra}];'


def to_dot(g: FirmGraph, highlights=frozenset()) -> str:
    highlights = set(highlights)
    lines = [
        "digraph firmfold {",
        '  node [shape=box, fontname="Helvetica", fontsize=10];',
    ]
    in_block: dict[int, list[int]] = {}
    floating: list[int] = []
    blocks: list[int] = []
    for nid, n in g.items():
        if n.kind is _BLOCK:
            blocks.append(nid)
        elif n.block is None:
            floating.append(nid)
        else:
            in_block.setdefault(n.block, []).append(nid)
    for b in blocks:
        lines.append(f"  subgraph cluster_{b} {{")
        lines.append(f'    label="Block {b}";')
        lines.append("    style=rounded;")
        extra = ", style=filled, fillcolor=gold" if b in highlights else ""
        lines.append(f'    n{b} [label="{b}", shape=circle{extra}];')
        for m in sorted(in_block.get(b, ())):
            lines.append("    " + _node_line(g, m, highlights))
        lines.append("  }")
    for nid in floating:
        lines.append("  " + _node_line(g, nid, highlights))
    drawn = [(e.src, e.kind.value, e.position, e.dst) for e in g.edges()]
    drawn += [(nid, _BLOCK_EDGE, None, n.block) for nid, n in g.items() if n.block is not None]
    drawn.sort(key=lambda a: (a[0], a[1], -1 if a[2] is None else a[2], a[3]))
    for src, kind, position, dst in drawn:
        label = "" if position is None else f'label="{position}", '
        lines.append(f"  n{src} -> n{dst} [{label}{_EDGE_STYLE[kind]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(g: FirmGraph, path, highlights=frozenset()) -> None:
    Path(path).write_text(to_dot(g, highlights), encoding="utf-8")


# -- random graphs ---------------------------------------------------------


@dataclass
class GenSpec:
    """Shape parameters for generate().

    blocks counts every Block including the entry and end blocks, so the
    minimum is 2. const_ratio steers how often operand picks mint (or
    reuse) a Const instead of referencing an earlier value.
    """

    blocks: int = 8
    ops_per_block: int = 6
    const_ratio: float = 0.4
    loop_count: int = 1
    input_count: int = 2


# The binary ops with an immediate target form and no relation, in
# NodeKind order: Add, Sub, Mul, And, Or, Xor, Shl, Shr. The generator's
# random draws depend on this order.
_BINARY_PALETTE = tuple(k for k in IMMEDIATE_TARGET_OF if not OPS[k].relation)
_RELATIONS = tuple(Relation)


class _Generator:
    """Builds one reproducible function graph.

    Every value is tagged: dynamic (True) means it can never collapse to
    a Const under optimize, not-dynamic (False) means it surely does.
    Operands of non-commutative operations are ordered so a constant can
    only ever end up at position 1, mirroring what instruction selection
    expects. Div and Mod are never emitted because they have no target
    kinds to lower to.
    """

    def __init__(self, seed: int, spec: GenSpec):
        self.rng = random.Random(seed)
        self.spec = spec
        self.g = FirmGraph()
        self.consts: dict[int, int] = {}
        self.dyn: dict[int, bool] = {}
        self.entry: int = -1

    def const(self, value: int) -> int:
        nid = self.consts.get(value)
        if nid is None:
            nid = self.g.add_node(_CONST, value=value, block=self.entry)
            self.consts[value] = nid
            self.dyn[nid] = False
        return nid

    def _const_value(self) -> int:
        if self.rng.random() < 0.85:
            return self.rng.randint(-9, 9)
        return self.rng.randint(INT_MIN, INT_MAX)

    def pick(self, pool: list[int]) -> int:
        if not pool or self.rng.random() < self.spec.const_ratio:
            return self.const(self._const_value())
        return self.rng.choice(pool)

    def _ordered(self, kind: NodeKind, a: int, b: int) -> tuple[int, int]:
        if kind not in COMMUTATIVE_KINDS and not self.dyn[a] and self.dyn[b]:
            return b, a
        return a, b

    def emit_op(self, block: int, pool: list[int]) -> None:
        rng = self.rng
        r = rng.random()
        if r < 0.05 and pool:
            a = self.pick(pool)
            nid = self.g.add_node(_NOT, block=block)
            self.g.add_edge(nid, a, _DATAFLOW, 0)
            self.dyn[nid] = self.dyn[a]
        else:
            if r < 0.11:
                kind = _CMP
                relation = rng.choice(_RELATIONS)
            else:
                kind = rng.choice(_BINARY_PALETTE)
                relation = None
            a, b = self._ordered(kind, self.pick(pool), self.pick(pool))
            nid = self.g.add_node(kind, relation=relation, block=block)
            self.g.add_edge(nid, a, _DATAFLOW, 0)
            self.g.add_edge(nid, b, _DATAFLOW, 1)
            self.dyn[nid] = self.dyn[a] or self.dyn[b]
        pool.append(nid)

    def emit_ops(self, block: int, pool: list[int]) -> None:
        k = self.spec.ops_per_block
        if k <= 0:
            return
        count = self.rng.randint(max(1, k - 1), k + 1)
        for _ in range(count):
            self.emit_op(block, pool)

    def emit_chain(self, cur: int, pool: list[int]) -> int:
        nxt = self.g.add_node(_BLOCK)
        jmp = self.g.add_node(_JMP, block=cur)
        self.g.add_edge(nxt, jmp, _CONTROLFLOW, 0)
        return nxt

    def emit_diamond(self, cur: int, pool: list[int]) -> int:
        g, rng = self.g, self.rng
        if rng.random() < 0.8:
            a, b = self._ordered(_CMP, self.pick(pool), self.pick(pool))
            cond_val = g.add_node(
                _CMP, relation=rng.choice(_RELATIONS), block=cur
            )
            g.add_edge(cond_val, a, _DATAFLOW, 0)
            g.add_edge(cond_val, b, _DATAFLOW, 1)
            self.dyn[cond_val] = self.dyn[a] or self.dyn[b]
        else:
            cond_val = self.pick(pool)
        cond = g.add_node(_COND, block=cur)
        g.add_edge(cond, cond_val, _DATAFLOW, 0)
        then_b = g.add_node(_BLOCK)
        else_b = g.add_node(_BLOCK)
        g.add_edge(then_b, cond, _TRUE, 0)
        g.add_edge(else_b, cond, _FALSE, 0)
        then_pool = list(pool)
        self.emit_ops(then_b, then_pool)
        else_pool = list(pool)
        self.emit_ops(else_b, else_pool)
        then_jmp = g.add_node(_JMP, block=then_b)
        else_jmp = g.add_node(_JMP, block=else_b)
        join = g.add_node(_BLOCK)
        g.add_edge(join, then_jmp, _CONTROLFLOW, 0)
        g.add_edge(join, else_jmp, _CONTROLFLOW, 1)
        for _ in range(rng.randint(1, 2)):
            # With no inputs and no ops before it, an arm has no value yet;
            # then the condition is constant too, and the arms are Consts.
            t = rng.choice(then_pool) if then_pool else self.const(self._const_value())
            if self.dyn[cond_val]:
                e = rng.choice(else_pool)
            else:
                # The branch folds statically, so the Phi collapses to one
                # arm; keep both arms in the same fold class so the
                # collapsed value's class stays predictable.
                same = [v for v in else_pool if self.dyn[v] == self.dyn[t]]
                if same:
                    e = rng.choice(same)
                elif self.dyn[t]:
                    e = t
                else:
                    e = self.const(self._const_value())
            phi = g.add_node(_PHI, block=join)
            g.add_edge(phi, t, _DATAFLOW, 0)
            g.add_edge(phi, e, _DATAFLOW, 1)
            if t == e:
                self.dyn[phi] = self.dyn[t]
            elif not self.dyn[cond_val]:
                self.dyn[phi] = self.dyn[t]
            else:
                self.dyn[phi] = True
            pool.append(phi)
        return join

    def emit_loop(self, cur: int, pool: list[int]) -> int:
        g, rng = self.g, self.rng
        header = g.add_node(_BLOCK)
        body = g.add_node(_BLOCK)
        after = g.add_node(_BLOCK)
        pre_jmp = g.add_node(_JMP, block=cur)
        g.add_edge(header, pre_jmp, _CONTROLFLOW, 0)
        iters = rng.randint(1, 6)
        c_init = self.const(0)
        c_step = self.const(1)
        c_bound = self.const(iters)
        counter = g.add_node(_PHI, block=header)
        acc = g.add_node(_PHI, block=header)
        self.dyn[counter] = True
        self.dyn[acc] = True
        acc_init = self.pick(pool)
        cmp = g.add_node(_CMP, relation=_LESS, block=header)
        g.add_edge(cmp, counter, _DATAFLOW, 0)
        g.add_edge(cmp, c_bound, _DATAFLOW, 1)
        self.dyn[cmp] = True
        cond = g.add_node(_COND, block=header)
        g.add_edge(cond, cmp, _DATAFLOW, 0)
        g.add_edge(body, cond, _TRUE, 0)
        g.add_edge(after, cond, _FALSE, 0)
        body_pool = list(pool) + [counter, acc]
        self.emit_ops(body, body_pool)
        step = g.add_node(_ADD, block=body)
        g.add_edge(step, counter, _DATAFLOW, 0)
        g.add_edge(step, c_step, _DATAFLOW, 1)
        self.dyn[step] = True
        acc_kind = rng.choice(_BINARY_PALETTE)
        acc_next = g.add_node(acc_kind, block=body)
        g.add_edge(acc_next, acc, _DATAFLOW, 0)
        g.add_edge(acc_next, rng.choice(body_pool), _DATAFLOW, 1)
        self.dyn[acc_next] = True
        back_jmp = g.add_node(_JMP, block=body)
        g.add_edge(header, back_jmp, _CONTROLFLOW, 1)
        g.add_edge(counter, c_init, _DATAFLOW, 0)
        g.add_edge(counter, step, _DATAFLOW, 1)
        g.add_edge(acc, acc_init, _DATAFLOW, 0)
        g.add_edge(acc, acc_next, _DATAFLOW, 1)
        pool.append(counter)
        pool.append(acc)
        return after

    def run(self) -> FirmGraph:
        spec, g, rng = self.spec, self.g, self.rng
        if spec.blocks < 2:
            raise ValueError("need at least 2 blocks (code and end)")
        if spec.ops_per_block < 0 or spec.loop_count < 0 or spec.input_count < 0:
            raise ValueError("ops_per_block, loop_count and input_count must be >= 0")
        if not 0.0 <= spec.const_ratio <= 1.0:
            raise ValueError("const_ratio must be within [0, 1]")
        budget = spec.blocks - 2
        if 3 * spec.loop_count > budget:
            raise ValueError(
                f"{spec.loop_count} loop(s) need {3 * spec.loop_count} blocks, "
                f"only {budget} available"
            )
        self.entry = g.add_node(_BLOCK)
        g.start_block = self.entry
        g.add_node(_START, block=self.entry)
        end_block = g.add_node(_BLOCK)
        g.end_block = end_block
        g.add_node(_END, block=end_block)

        pool: list[int] = []
        for i in range(spec.input_count):
            addr = self.const(i)
            load = g.add_node(_LOAD, volatile=True, block=self.entry)
            g.add_edge(load, addr, _DATAFLOW, 0)
            self.dyn[load] = True
            pool.append(load)

        budget -= 3 * spec.loop_count
        diamonds = rng.randint(0, budget // 3)
        budget -= 3 * diamonds
        plan = (
            ["loop"] * spec.loop_count
            + ["diamond"] * diamonds
            + ["chain"] * budget
        )
        rng.shuffle(plan)

        cur = self.entry
        self.emit_ops(cur, pool)
        for segment in plan:
            if segment == "loop":
                cur = self.emit_loop(cur, pool)
            elif segment == "diamond":
                cur = self.emit_diamond(cur, pool)
            else:
                cur = self.emit_chain(cur, pool)
            self.emit_ops(cur, pool)

        ret = g.add_node(_RETURN, block=cur)
        g.add_edge(ret, self.pick(pool), _DATAFLOW, 0)
        g.add_edge(end_block, ret, _CONTROLFLOW, 0)
        return g


def generate(seed: int, spec: GenSpec | None = None) -> FirmGraph:
    """Build a reproducible verify-clean graph from a seed and shape."""
    return _Generator(seed, spec or GenSpec()).run()


def spec_for_nodes(target: int) -> GenSpec:
    """A GenSpec that lands near (at or above) a node-count target."""
    blocks = max(2, target // 50)
    return GenSpec(
        blocks=blocks,
        ops_per_block=48,
        const_ratio=0.35,
        loop_count=blocks // 25,
        input_count=min(8, max(1, target // 100)),
    )
