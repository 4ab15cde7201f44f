"""Shared graph builders for the test suite.

Everything here builds small hand-wired graphs with known answers so
tests can assert exact structures and values. Builders return the graph
plus a dict of the interesting node ids.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from firmfold.ir import EdgeKind, FirmGraph, NodeKind, Relation
from firmfold.graphio import GenSpec, generate, spec_for_nodes

DF = EdgeKind.DATAFLOW
CF = EdgeKind.CONTROLFLOW


def func_graph() -> tuple[FirmGraph, int, int]:
    """A graph with entry/end blocks and Start/End anchors in place."""
    g = FirmGraph()
    entry = g.add_node(NodeKind.BLOCK)
    g.start_block = entry
    g.add_node(NodeKind.START, block=entry)
    end_block = g.add_node(NodeKind.BLOCK)
    g.end_block = end_block
    g.add_node(NodeKind.END, block=end_block)
    return g, entry, end_block


def finish_return(g: FirmGraph, block: int, value: int) -> int:
    ret = g.add_node(NodeKind.RETURN, block=block)
    g.add_edge(ret, value, DF, 0)
    g.add_edge(g.end_block, ret, CF, 0)
    return ret


def build_add_graph(a: int = 1, b: int = 2):
    """Return(Const a + Const b) in a single code block."""
    g, entry, _ = func_graph()
    ca = g.add_node(NodeKind.CONST, value=a, block=entry)
    cb = g.add_node(NodeKind.CONST, value=b, block=entry)
    add = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(add, ca, DF, 0)
    g.add_edge(add, cb, DF, 1)
    ret = finish_return(g, entry, add)
    return g, {"entry": entry, "a": ca, "b": cb, "add": add, "ret": ret}


def build_diamond(cond_const: int | None = None, then_value: int = 10, else_value: int = 20):
    """if (c) return then_value; else return else_value; via a Phi join.

    cond_const None wires the condition to a volatile Load instead of a
    Const, keeping the branch dynamic.
    """
    g, entry, _ = func_graph()
    if cond_const is None:
        addr = g.add_node(NodeKind.CONST, value=0, block=entry)
        cond_src = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
        g.add_edge(cond_src, addr, DF, 0)
    else:
        cond_src = g.add_node(NodeKind.CONST, value=cond_const, block=entry)
    ct = g.add_node(NodeKind.CONST, value=then_value, block=entry)
    ce = g.add_node(NodeKind.CONST, value=else_value, block=entry)
    cond = g.add_node(NodeKind.COND, block=entry)
    g.add_edge(cond, cond_src, DF, 0)
    then_b = g.add_node(NodeKind.BLOCK)
    else_b = g.add_node(NodeKind.BLOCK)
    g.add_edge(then_b, cond, EdgeKind.TRUE, 0)
    g.add_edge(else_b, cond, EdgeKind.FALSE, 0)
    then_jmp = g.add_node(NodeKind.JMP, block=then_b)
    else_jmp = g.add_node(NodeKind.JMP, block=else_b)
    join = g.add_node(NodeKind.BLOCK)
    g.add_edge(join, then_jmp, CF, 0)
    g.add_edge(join, else_jmp, CF, 1)
    phi = g.add_node(NodeKind.PHI, block=join)
    g.add_edge(phi, ct, DF, 0)
    g.add_edge(phi, ce, DF, 1)
    ret = finish_return(g, join, phi)
    return g, {
        "entry": entry,
        "cond_src": cond_src,
        "cond": cond,
        "then_b": then_b,
        "else_b": else_b,
        "then_jmp": then_jmp,
        "else_jmp": else_jmp,
        "join": join,
        "phi": phi,
        "ret": ret,
    }


def build_counting_loop(bound: int = 5):
    """i = 0; while (i < bound) i = i + 1; return i."""
    g, entry, _ = func_graph()
    c0 = g.add_node(NodeKind.CONST, value=0, block=entry)
    c1 = g.add_node(NodeKind.CONST, value=1, block=entry)
    cb = g.add_node(NodeKind.CONST, value=bound, block=entry)
    pre_jmp = g.add_node(NodeKind.JMP, block=entry)
    header = g.add_node(NodeKind.BLOCK)
    g.add_edge(header, pre_jmp, CF, 0)
    phi = g.add_node(NodeKind.PHI, block=header)
    cmp = g.add_node(NodeKind.CMP, relation=Relation.LESS, block=header)
    g.add_edge(cmp, phi, DF, 0)
    g.add_edge(cmp, cb, DF, 1)
    cond = g.add_node(NodeKind.COND, block=header)
    g.add_edge(cond, cmp, DF, 0)
    body = g.add_node(NodeKind.BLOCK)
    after = g.add_node(NodeKind.BLOCK)
    g.add_edge(body, cond, EdgeKind.TRUE, 0)
    g.add_edge(after, cond, EdgeKind.FALSE, 0)
    step = g.add_node(NodeKind.ADD, block=body)
    g.add_edge(step, phi, DF, 0)
    g.add_edge(step, c1, DF, 1)
    back_jmp = g.add_node(NodeKind.JMP, block=body)
    g.add_edge(header, back_jmp, CF, 1)
    g.add_edge(phi, c0, DF, 0)
    g.add_edge(phi, step, DF, 1)
    ret = finish_return(g, after, phi)
    return g, {
        "entry": entry,
        "header": header,
        "body": body,
        "after": after,
        "phi": phi,
        "cmp": cmp,
        "cond": cond,
        "step": step,
        "ret": ret,
    }


def build_swap_loop(iters: int = 3, x0: int = 1, y0: int = 2):
    """x, y = x0, y0; repeat iters times: x, y = y, x; return x.

    The cross-wired Phis only work if a block entry updates all of its
    Phis simultaneously.
    """
    g, entry, _ = func_graph()
    cx = g.add_node(NodeKind.CONST, value=x0, block=entry)
    cy = g.add_node(NodeKind.CONST, value=y0, block=entry)
    c0 = g.add_node(NodeKind.CONST, value=0, block=entry)
    c1 = g.add_node(NodeKind.CONST, value=1, block=entry)
    cb = g.add_node(NodeKind.CONST, value=iters, block=entry)
    pre_jmp = g.add_node(NodeKind.JMP, block=entry)
    header = g.add_node(NodeKind.BLOCK)
    g.add_edge(header, pre_jmp, CF, 0)
    counter = g.add_node(NodeKind.PHI, block=header)
    px = g.add_node(NodeKind.PHI, block=header)
    py = g.add_node(NodeKind.PHI, block=header)
    cmp = g.add_node(NodeKind.CMP, relation=Relation.LESS, block=header)
    g.add_edge(cmp, counter, DF, 0)
    g.add_edge(cmp, cb, DF, 1)
    cond = g.add_node(NodeKind.COND, block=header)
    g.add_edge(cond, cmp, DF, 0)
    body = g.add_node(NodeKind.BLOCK)
    after = g.add_node(NodeKind.BLOCK)
    g.add_edge(body, cond, EdgeKind.TRUE, 0)
    g.add_edge(after, cond, EdgeKind.FALSE, 0)
    step = g.add_node(NodeKind.ADD, block=body)
    g.add_edge(step, counter, DF, 0)
    g.add_edge(step, c1, DF, 1)
    back_jmp = g.add_node(NodeKind.JMP, block=body)
    g.add_edge(header, back_jmp, CF, 1)
    g.add_edge(counter, c0, DF, 0)
    g.add_edge(counter, step, DF, 1)
    g.add_edge(px, cx, DF, 0)
    g.add_edge(px, py, DF, 1)
    g.add_edge(py, cy, DF, 0)
    g.add_edge(py, px, DF, 1)
    ret = finish_return(g, after, px)
    return g, {"px": px, "py": py, "ret": ret}


def build_jmp_chain(k: int = 5, ret_value: int = 7):
    """entry -> k blocks holding only a Jmp each -> a Return block."""
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=ret_value, block=entry)
    cur = entry
    hops = []
    for _ in range(k):
        jmp = g.add_node(NodeKind.JMP, block=cur)
        nxt = g.add_node(NodeKind.BLOCK)
        g.add_edge(nxt, jmp, CF, 0)
        hops.append(nxt)
        cur = nxt
    jmp = g.add_node(NodeKind.JMP, block=cur)
    tail = g.add_node(NodeKind.BLOCK)
    g.add_edge(tail, jmp, CF, 0)
    ret = finish_return(g, tail, c)
    return g, {"entry": entry, "hops": hops, "tail": tail, "ret": ret, "const": c}


def build_mul_chain(coeffs):
    """((x * c1) * c2) * ... for a volatile-Load x; returns the last node."""
    g, entry, _ = func_graph()
    addr = g.add_node(NodeKind.CONST, value=0, block=entry)
    x = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(x, addr, DF, 0)
    cur = x
    for c in coeffs:
        cn = g.add_node(NodeKind.CONST, value=c, block=entry)
        mul = g.add_node(NodeKind.MUL, block=entry)
        g.add_edge(mul, cur, DF, 0)
        g.add_edge(mul, cn, DF, 1)
        cur = mul
    ret = finish_return(g, entry, cur)
    return g, {"x": x, "last": cur, "ret": ret, "entry": entry}


def build_div_graph(divisor_const: int | None = None):
    """Return(Load x / divisor); divisor is a Const or a second Load."""
    g, entry, _ = func_graph()
    a0 = g.add_node(NodeKind.CONST, value=0, block=entry)
    x = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
    g.add_edge(x, a0, DF, 0)
    if divisor_const is None:
        a1 = g.add_node(NodeKind.CONST, value=1, block=entry)
        d = g.add_node(NodeKind.LOAD, volatile=True, block=entry)
        g.add_edge(d, a1, DF, 0)
    else:
        d = g.add_node(NodeKind.CONST, value=divisor_const, block=entry)
    div = g.add_node(NodeKind.DIV, block=entry)
    g.add_edge(div, x, DF, 0)
    g.add_edge(div, d, DF, 1)
    ret = finish_return(g, entry, div)
    return g, {"x": x, "d": d, "div": div, "ret": ret}


def build_infinite_loop():
    """while (1) {}; never returns."""
    g, entry, _ = func_graph()
    jmp0 = g.add_node(NodeKind.JMP, block=entry)
    loop = g.add_node(NodeKind.BLOCK)
    g.add_edge(loop, jmp0, CF, 0)
    c1 = g.add_node(NodeKind.CONST, value=1, block=entry)
    cond = g.add_node(NodeKind.COND, block=loop)
    g.add_edge(cond, c1, DF, 0)
    body = g.add_node(NodeKind.BLOCK)
    after = g.add_node(NodeKind.BLOCK)
    g.add_edge(body, cond, EdgeKind.TRUE, 0)
    g.add_edge(after, cond, EdgeKind.FALSE, 0)
    back = g.add_node(NodeKind.JMP, block=body)
    g.add_edge(loop, back, CF, 1)
    c9 = g.add_node(NodeKind.CONST, value=9, block=entry)
    ret = finish_return(g, after, c9)
    return g, {"loop": loop, "cond": cond, "ret": ret}


def sized_gen_spec(rng) -> GenSpec:
    """The randomized small-graph shape used by the differential tests."""
    blocks = rng.randint(4, 12)
    loops = min(rng.randint(0, 2), (blocks - 2) // 3)
    return GenSpec(
        blocks=blocks,
        ops_per_block=rng.randint(3, 7),
        const_ratio=rng.uniform(0.2, 0.9),
        loop_count=loops,
        input_count=rng.randint(0, 3),
    )


BRANCHY_SPEC = GenSpec(
    blocks=100, ops_per_block=3, const_ratio=0.1, loop_count=5, input_count=8
)


# The public FirmGraph methods that change a graph, each of which bumps its
# version; tests/test_mutation_interface.py checks that the set is complete.
MUTATORS = frozenset(
    {
        "add_node", "add_edge", "set_block", "move_members", "delete_edge",
        "delete_node", "delete_nodes", "delete_unused", "retype_node",
        "retype_edge", "set_position", "set_value", "retarget_edge", "redirect_users",
    }
)


def golden_corpus(stride: int = 1):
    """Criterion 4's 500 seeded graphs, then three of the benchmark's branchy
    shape; with a stride k, every k-th graph of those 503, from the first."""
    shapes = [(seed, None) for seed in range(500)] + [(seed, BRANCHY_SPEC) for seed in (1, 2, 3)]
    for seed, spec in shapes[::stride]:
        yield generate(seed, spec or sized_gen_spec(random.Random(900_000 + seed)))


# -- mutated payloads, for the loader and CLI fuzz tests ---------------------

# Values that mutated fields take: wrong types, dangling and negative ids,
# and names, valid or not, of node kinds, edge kinds and relations.
_ODD_VALUES = (True, False, 0, 1, -1, 3, 1.5, 2.0, "3", None, [], {}, 999, -7, 10**12)
_NAMES = (
    "Blk", "Add", "Block", "Const", "Cmp", "Load", "Less", "Sideways",
    "Dataflow", "Controlflow", "True", "False", "BlockEdge", "Wire",
)
_ITEM_KEYS = {
    "nodes": ("id", "kind", "value", "relation", "volatile", "block", "color"),
    "edges": ("src", "dst", "kind", "position", "color"),
}
# Field-level mutations come up more often: each item has many fields.
_MUTATIONS = ("set_key",) * 4 + ("set_kind", "set_ref") * 2 + (
    "drop_key", "duplicate_id", "block_edge", "containment_on_block",
    "not_an_object", "anchor", "top_level",
)


def _pick(payload, data):
    """("nodes" or "edges", an index into it), or (None, None) if both are empty."""
    arrays = [a for a in ("nodes", "edges") if isinstance(payload.get(a), list) and payload[a]]
    if not arrays:
        return None, None
    array = data.draw(st.sampled_from(arrays))
    return array, data.draw(st.integers(0, len(payload[array]) - 1))


def _node_ids(payload):
    nodes = payload.get("nodes")
    ids = [n.get("id") for n in nodes if isinstance(n, dict)] if isinstance(nodes, list) else []
    return [nid for nid in ids if type(nid) is int] or [0]


def mutate_payload(payload, data):
    """Mutate a graph payload in place with one of _MUTATIONS, drawn from data."""
    op = data.draw(st.sampled_from(_MUTATIONS))
    array, index = _pick(payload, data)
    item = None if array is None else payload[array][index]
    ids = _node_ids(payload)
    if op == "drop_key" and isinstance(item, dict) and item:
        del item[data.draw(st.sampled_from(sorted(item)))]
    elif op == "set_key" and isinstance(item, dict):
        key = data.draw(st.sampled_from(_ITEM_KEYS[array]))
        item[key] = data.draw(st.sampled_from(_ODD_VALUES + _NAMES))
    elif op == "set_kind" and isinstance(item, dict):
        item["kind"] = data.draw(st.sampled_from(_NAMES))
    elif op == "set_ref" and isinstance(item, dict):
        key = data.draw(st.sampled_from(("block", "src", "dst", "position")))
        item[key] = data.draw(st.sampled_from(ids))
    elif op == "duplicate_id" and isinstance(item, dict):
        item["id"] = data.draw(st.sampled_from(ids))
    elif op == "block_edge" and isinstance(payload.get("edges"), list):
        src, dst = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        payload["edges"].append({"src": src, "dst": dst, "kind": "BlockEdge"})
    elif op == "containment_on_block" and isinstance(payload.get("nodes"), list):
        for node in payload["nodes"]:
            if isinstance(node, dict) and node.get("kind") == "Block":
                node["block"] = data.draw(st.sampled_from(ids))
                break
    elif op == "not_an_object" and array is not None:
        payload[array][index] = data.draw(st.sampled_from((7, "x", None, [], True)))
    elif op == "anchor":
        key = data.draw(st.sampled_from(("start", "end")))
        payload[key] = data.draw(st.sampled_from(_ODD_VALUES + tuple(ids)))
    elif op == "top_level":
        choice = data.draw(st.integers(0, 2))
        if choice == 0:
            payload.pop(data.draw(st.sampled_from(("nodes", "edges", "start", "end"))), None)
        elif choice == 1:
            payload["extra"] = 1
        else:
            payload[data.draw(st.sampled_from(("nodes", "edges")))] = {}


# -- broken graphs, one per verifier rule -----------------------------------


def _broken_v1():
    from firmfold.graphio import from_payload, to_payload

    g, names = build_add_graph()
    # A node item without a "block" field loads as an orphan.
    data = to_payload(g)
    for item in data["nodes"]:
        if item["id"] == names["a"]:
            del item["block"]
    return from_payload(data)


def _broken_v2():
    g, entry, _ = func_graph()
    ca = g.add_node(NodeKind.CONST, value=1, block=entry)
    cb = g.add_node(NodeKind.CONST, value=2, block=entry)
    add = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(add, ca, DF, 0)
    g.add_edge(add, cb, DF, 0)
    finish_return(g, entry, add)
    return g


def _broken_v3():
    g, names = build_add_graph()
    extra = g.add_node(NodeKind.CONST, value=5, block=names["entry"])
    g.add_edge(names["add"], extra, DF, 2)
    return g


def _broken_v4():
    g, entry, _ = func_graph()
    jmp = g.add_node(NodeKind.JMP, block=entry)
    b2 = g.add_node(NodeKind.BLOCK)
    g.add_edge(b2, jmp, CF, 0)
    ca = g.add_node(NodeKind.CONST, value=1, block=entry)
    cb = g.add_node(NodeKind.CONST, value=2, block=entry)
    phi = g.add_node(NodeKind.PHI, block=b2)
    g.add_edge(phi, ca, DF, 0)
    g.add_edge(phi, cb, DF, 1)
    finish_return(g, b2, phi)
    return g


def _broken_v5():
    g, names = build_diamond(cond_const=None)
    false_edge = g.in_edges(names["cond"], EdgeKind.FALSE)[0]
    g.delete_edge(false_edge)
    return g


def _broken_v6():
    g, names = build_jmp_chain(k=1)
    g.add_node(NodeKind.JMP, block=names["entry"])
    return g


def _broken_v7():
    g, entry, _ = func_graph()
    j1 = g.add_node(NodeKind.JMP, block=entry)
    side = g.add_node(NodeKind.BLOCK)
    j2 = g.add_node(NodeKind.JMP, block=side)
    b2 = g.add_node(NodeKind.BLOCK)
    g.add_edge(b2, j1, CF, 0)
    g.add_edge(b2, j2, CF, 2)
    c = g.add_node(NodeKind.CONST, value=3, block=entry)
    finish_return(g, b2, c)
    return g


def _broken_v8():
    g, names = build_add_graph()
    g.node(names["add"]).value = 5
    return g


def _broken_v9():
    g, names = build_add_graph()
    g.add_node(NodeKind.START, block=names["entry"])
    return g


def _broken_v10():
    from firmfold.ir import Edge

    g, names = build_add_graph()
    side = g.add_node(NodeKind.BLOCK)
    # The public mutators cannot produce a dangling edge, so forge one.
    g._out[side].append(Edge(side, 424242, CF, 0))
    return g


def broken_graphs() -> dict[str, FirmGraph]:
    return {
        "V1": _broken_v1(),
        "V2": _broken_v2(),
        "V3": _broken_v3(),
        "V4": _broken_v4(),
        "V5": _broken_v5(),
        "V6": _broken_v6(),
        "V7": _broken_v7(),
        "V8": _broken_v8(),
        "V9": _broken_v9(),
        "V10": _broken_v10(),
    }


@pytest.fixture(scope="session")
def big_graph():
    """One ~300k-node graph shared by the slow tests."""
    return generate(7, spec_for_nodes(300_000))
