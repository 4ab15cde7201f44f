"""The earlier JSON loader and writer, kept as the oracle for graphio.

from_payload checks each item field by field and inserts through
FirmGraph's validating set_block and add_edge; to_json goes through a payload of dicts
and json.dumps. The tests compare graphio's one-pass loader and its
template writer against these, message for message and byte for byte.
"""

from __future__ import annotations

import json

from firmfold.errors import FormatError, GraphError, NoBlockError
from firmfold.ir import EdgeKind, FirmGraph, Node, NodeKind, Relation

_NODE_KEYS = frozenset({"id", "kind", "value", "relation", "volatile", "block"})
_EDGE_KEYS = frozenset({"src", "dst", "kind", "position"})


def _int_field(ctx: str, item: dict, key: str) -> int:
    value = item.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise FormatError(f"{ctx}: {key!r} must be an integer")
    return value


def from_payload(data) -> FirmGraph:
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
    pending_blocks: list[tuple[str, int, int]] = []
    for i, item in enumerate(data["nodes"]):
        ctx = f"nodes[{i}]"
        if not isinstance(item, dict):
            raise FormatError(f"{ctx}: must be an object")
        extra = set(item) - _NODE_KEYS
        if extra:
            raise FormatError(f"{ctx}: unknown keys {sorted(extra)}")
        nid = _int_field(ctx, item, "id")
        kind_name = item.get("kind")
        if not isinstance(kind_name, str):
            raise FormatError(f"{ctx}: 'kind' must be a string")
        try:
            kind = NodeKind(kind_name)
        except ValueError:
            raise FormatError(f"{ctx}: unknown node kind {kind_name!r}") from None
        value = None
        if "value" in item:
            value = _int_field(ctx, item, "value")
        relation = None
        if "relation" in item:
            rel_name = item["relation"]
            if not isinstance(rel_name, str):
                raise FormatError(f"{ctx}: 'relation' must be a string")
            try:
                relation = Relation(rel_name)
            except ValueError:
                raise FormatError(f"{ctx}: unknown relation {rel_name!r}") from None
        volatile = None
        if "volatile" in item:
            volatile = item["volatile"]
            if not isinstance(volatile, bool):
                raise FormatError(f"{ctx}: 'volatile' must be a boolean")
        if nid in nodes:
            raise FormatError(f"{ctx}: duplicate node id {nid}")
        nodes[nid] = Node(kind, value, relation, volatile)
        if "block" in item:
            pending_blocks.append((ctx, nid, _int_field(ctx, item, "block")))

    g = FirmGraph._from_tables(nodes, [])
    for ctx, nid, block in pending_blocks:
        try:
            g.set_block(nid, block)
        except GraphError as exc:
            raise FormatError(f"{ctx}: {exc}") from None

    for i, item in enumerate(data["edges"]):
        ctx = f"edges[{i}]"
        if not isinstance(item, dict):
            raise FormatError(f"{ctx}: must be an object")
        extra = set(item) - _EDGE_KEYS
        if extra:
            raise FormatError(f"{ctx}: unknown keys {sorted(extra)}")
        src = _int_field(ctx, item, "src")
        dst = _int_field(ctx, item, "dst")
        kind_name = item.get("kind")
        if not isinstance(kind_name, str):
            raise FormatError(f"{ctx}: 'kind' must be a string")
        if kind_name == "BlockEdge":
            raise FormatError(
                f"{ctx}: containment is written as the node's 'block' field, "
                "not as an explicit edge"
            )
        try:
            kind = EdgeKind(kind_name)
        except ValueError:
            raise FormatError(f"{ctx}: unknown edge kind {kind_name!r}") from None
        position = _int_field(ctx, item, "position") if "position" in item else None
        try:
            g.add_edge(src, dst, kind, position)
        except GraphError as exc:
            raise FormatError(f"{ctx}: {exc}") from None

    for key in ("start", "end"):
        ref = data[key]
        if ref is None:
            continue
        if not isinstance(ref, int) or isinstance(ref, bool):
            raise FormatError(f"{key!r} must be an integer node id")
        if ref not in g:
            raise FormatError(f"{key!r} references missing node {ref}")
        if key == "start":
            g.start_block = ref
        else:
            g.end_block = ref
    return g


def to_payload(g: FirmGraph) -> dict:
    nodes = []
    for nid in sorted(g.node_ids()):
        n = g.node(nid)
        item: dict = {"id": nid, "kind": n.kind.value}
        if n.value is not None:
            item["value"] = n.value
        if n.relation is not None:
            item["relation"] = n.relation.value
        if n.volatile is not None:
            item["volatile"] = n.volatile
        try:
            item["block"] = g.block_of(nid)
        except NoBlockError:
            pass
        nodes.append(item)
    plain = sorted((e.src, e.kind.value, e.position, e.dst) for e in g.edges())
    edges = [
        {"src": src, "dst": dst, "kind": kind, "position": pos}
        for src, kind, pos, dst in plain
    ]
    return {"nodes": nodes, "edges": edges, "start": g.start_block, "end": g.end_block}


def to_json(g: FirmGraph) -> str:
    return json.dumps(to_payload(g), indent=2) + "\n"
