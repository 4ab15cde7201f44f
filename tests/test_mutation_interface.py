"""Graphs change only through FirmGraph's mutators, and each one bumps
FirmGraph.version.

The interpreter keeps a graph's decoded nodes and blocks for as long as
the version it decoded them at is current, so a field written past the
mutators would leave it running the graph as it was. No module but ir
stores to a Node or Edge field, and every public mutator, each tested
below, bumps the version.
"""

import ast
import gc
import weakref
from pathlib import Path

import pytest

import firmfold
from conftest import CF, DF, MUTATORS, build_diamond
from firmfold import interp
from firmfold.errors import GraphError
from firmfold.graphio import from_json, load, save, to_json
from firmfold.interp import execute
from firmfold.ir import EdgeKind, FirmGraph, NodeKind

K = NodeKind
# Node and Edge fields, and the counter itself.
FIELDS = frozenset(
    {"position", "value", "kind", "dst", "src", "block", "relation", "volatile", "version"}
)


def _field_stores(tree):
    """(line, field) for each store to or deletion of a field attribute, and
    each setattr or delattr of one by a constant name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            if node.attr in FIELDS:
                found.add((node.lineno, node.attr))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("setattr", "delattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in FIELDS
        ):
            found.add((node.lineno, node.args[1].value))
    return sorted(found)


def test_the_scan_finds_every_form_of_field_store():
    source = (
        "e.position = 0\n"
        "g.node(n).value += 1\n"
        "a.dst, b.src = 1, 2\n"
        "del n.block\n"
        "setattr(n, 'volatile', True)\n"
        "x = e.position\n"
        "n.colour = 3\n"
        "for e.kind in kinds: pass\n"
    )
    assert _field_stores(ast.parse(source)) == [
        (1, "position"),
        (2, "value"),
        (3, "dst"),
        (3, "src"),
        (4, "block"),
        (5, "volatile"),
        (8, "kind"),
    ]


def test_only_ir_stores_to_node_and_edge_fields():
    package = Path(firmfold.__file__).parent
    found = {
        path.name: stores
        for path in sorted(package.glob("*.py"))
        if path.name != "ir.py"
        and (stores := _field_stores(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}, f"field stores outside ir.py: {found}"


# -- every mutator bumps the version --------------------------------------------


def _edge(g, src, kind, position=None):
    return next(e for e in g.out_edges(src, kind) if position is None or e.position == position)


def _diamond():
    """build_diamond's graph on a Load, with the Phi's operands named."""
    g, names = build_diamond(cond_const=None)
    (names["then_v"], _), (names["else_v"], _) = g.operands_of(names["phi"])
    return g, names


def _orphan(g):
    """A Const whose Block was deleted, so set_block may place it."""
    side = g.add_node(K.BLOCK)
    c = g.add_node(K.CONST, value=4, block=side)
    g.delete_node(side)
    return c


MUTATIONS = {
    "add_node": lambda g, n: g.add_node(K.CONST, value=1, block=n["entry"]),
    "add_edge": lambda g, n: g.add_edge(n["phi"], n["then_v"], DF, 2),
    "set_block": lambda g, n: g.set_block(_orphan(g), n["entry"]),
    "move_members": lambda g, n: g.move_members(n["then_b"], n["else_b"]),
    "delete_edge": lambda g, n: g.delete_edge(_edge(g, n["phi"], DF, 0)),
    "delete_node": lambda g, n: g.delete_node(n["then_v"]),
    "delete_nodes": lambda g, n: g.delete_nodes([n["then_v"], n["else_v"]]),
    "delete_unused": lambda g, n: g.delete_unused(),
    "retype_node": lambda g, n: g.retype_node(n["then_v"], K.TARGET_CONST),
    "retype_edge": lambda g, n: g.retype_edge(_edge(g, n["then_b"], EdgeKind.TRUE), CF),
    "set_position": lambda g, n: g.set_position(_edge(g, n["phi"], DF, 1), 2),
    "set_value": lambda g, n: g.set_value(n["then_v"], 11),
    "retarget_edge": lambda g, n: g.retarget_edge(_edge(g, n["ret"], DF), n["then_v"]),
    "redirect_users": lambda g, n: g.redirect_users(n["then_v"], n["else_v"]),
}

# Public FirmGraph attributes that change nothing.
QUERIES = frozenset(
    {
        "node", "node_ids", "items", "edges", "out_edges", "in_edges", "edge_count",
        "users_of", "operands_of", "operand_edges", "binary_operands", "block_of",
        "members_of", "control_in_edges", "copy", "signature",
    }
)


def test_every_public_method_is_a_known_mutator_or_query():
    public = {name for name in vars(FirmGraph) if not name.startswith("_")}
    assert set(MUTATIONS) == MUTATORS
    assert public == MUTATORS | QUERIES


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutator_bumps_the_version(name):
    g, names = _diamond()
    # An unused pure node, for delete_unused.
    g.add_node(K.CONST, value=99, block=names["entry"])
    before = g.version
    MUTATIONS[name](g, names)
    assert g.version > before


def test_set_position_and_set_value_check_as_add_edge_and_add_node_do():
    g, names = _diamond()
    e = _edge(g, names["phi"], DF, 0)
    stray = g.add_edge(names["phi"], names["then_v"], DF, 1)
    g.delete_edge(stray)
    before = g.version
    with pytest.raises(GraphError, match="needs a position >= 0"):
        g.set_position(e, -1)
    with pytest.raises(GraphError, match="needs a position >= 0"):
        g.set_position(e, None)
    with pytest.raises(GraphError, match="not in the graph"):
        g.set_position(stray, 0)
    with pytest.raises(GraphError, match="outside 32-bit"):
        g.set_value(names["then_v"], 2**31)
    with pytest.raises(GraphError, match="value must be an integer"):
        g.set_value(names["then_v"], True)
    with pytest.raises(GraphError, match="requires a value"):
        g.set_value(names["then_v"], None)
    with pytest.raises(GraphError, match="cannot carry a value"):
        g.set_value(names["phi"], 1)
    with pytest.raises(GraphError, match="unknown node id"):
        g.set_value(10_000, 1)
    assert g.version == before
    assert e.position == 0 and g.node(names["then_v"]).value == 10


# -- the interpreter's decode follows the version --------------------------------


def test_copies_and_loaded_graphs_start_with_no_cached_decode(tmp_path):
    g, names = build_diamond(cond_const=1)
    (names["then_v"], _), _ = g.operands_of(names["phi"])
    assert execute(g).value == 10
    assert g in interp._DECODED
    copy = g.copy()
    path = tmp_path / "g.json"
    save(g, path)
    for other in (copy, load(path), from_json(to_json(g))):
        assert other.version == 0
        assert other not in interp._DECODED
        other.set_value(names["then_v"], 12)
        assert execute(other).value == 12
    assert execute(g).value == 10


def test_the_cached_decode_keeps_no_graph_alive():
    g, _ = build_diamond(cond_const=1)
    execute(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
