"""JSON round-trips, schema diagnostics, DOT output, and the generator."""

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_graphio as reference
from conftest import (
    broken_graphs,
    build_add_graph,
    build_diamond,
    func_graph,
    golden_corpus,
    mutate_payload,
)
from firmfold.cfgfold import optimize
from firmfold.errors import FormatError
from firmfold.graphio import (
    GenSpec,
    from_json,
    from_payload,
    generate,
    load,
    save,
    spec_for_nodes,
    to_dot,
    to_json,
    to_payload,
)
from firmfold.ir import NodeKind
from firmfold.isel import run_instruction_selection
from firmfold.verifier import verify

DATA = Path(__file__).parent / "data"


def _payload(**overrides):
    g, _ = build_add_graph()
    data = to_payload(g)
    data.update(overrides)
    return data


def test_round_trip_is_byte_identical():
    for g in (
        build_add_graph()[0],
        build_diamond(cond_const=None)[0],
        generate(11),
        generate(4, GenSpec(blocks=9, ops_per_block=4, loop_count=2)),
    ):
        text = to_json(g)
        again = to_json(from_json(text))
        assert again == text


def test_round_trip_preserves_structure():
    g = generate(11)
    h = from_json(to_json(g))
    assert h.signature() == g.signature()
    assert h.start_block == g.start_block
    assert h.end_block == g.end_block


def test_canonical_form_is_insertion_order_independent():
    g, names = build_add_graph()
    data = to_payload(g)
    data["nodes"] = list(reversed(data["nodes"]))
    data["edges"] = list(reversed(data["edges"]))
    h = from_payload(data)
    assert to_json(h) == to_json(g)


def test_add_graph_json_golden():
    g, _ = build_add_graph(1, 2)
    assert to_json(g) == (DATA / "add_graph.json").read_text()


def test_block_membership_is_a_node_field():
    g, names = build_add_graph()
    data = to_payload(g)
    for item in data["nodes"]:
        if item["kind"] == "Block":
            assert "block" not in item
        else:
            assert item["block"] in (names["entry"], g.end_block)
    kinds = {e["kind"] for e in data["edges"]}
    assert "BlockEdge" not in kinds


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.pop("start"), "missing top-level key 'start'"),
        (lambda d: d.update(extra=1), "unknown top-level keys"),
        (lambda d: d.update(nodes={}), "must be arrays"),
        (lambda d: d["nodes"].append(7), "nodes\\[8\\]: must be an object"),
        (lambda d: d["nodes"][0].update(color="red"), "unknown keys \\['color'\\]"),
        (lambda d: d["nodes"][0].update(id=True), "'id' must be an integer"),
        (lambda d: d["nodes"][0].update(kind="Blk"), "unknown node kind 'Blk'"),
        (lambda d: d["nodes"][4].update(value="3"), "'value' must be an integer"),
        (lambda d: d["nodes"][4].update(relation="Sideways"), "unknown relation"),
        (lambda d: d["nodes"][4].update(volatile=1), "'volatile' must be a boolean"),
        (lambda d: d["nodes"][1].update(id=0), "duplicate node id 0"),
        (lambda d: d["nodes"][4].update(block=777), "unknown node id 777"),
        (lambda d: d["nodes"][4].update(block=5), "containing block 5 is not a Block"),
        (
            lambda d: d["edges"].append(
                {"src": 7, "dst": 6, "kind": "BlockEdge"}
            ),
            "containment is written as the node's 'block' field",
        ),
        (lambda d: d["edges"][0].update(kind="Wire"), "unknown edge kind 'Wire'"),
        (lambda d: d["edges"][0].update(dst=999), "unknown node id 999"),
        (lambda d: d["edges"][0].pop("position"), "needs a position"),
        (lambda d: d["edges"][0].update(position=None), "'position' must be an integer"),
        (lambda d: d["edges"][0].update(position=-1), "needs a position >= 0"),
        (lambda d: d["edges"][1].update(kind="True"), "must start at the target Block"),
        (lambda d: d["nodes"][0].update(block=0), "a Block is not contained in a block"),
        (lambda d: d.update(start=999), "'start' references missing node 999"),
        (lambda d: d.update(end=True), "'end' must be an integer node id"),
    ],
)
def test_schema_diagnostics(mangle, fragment):
    data = _payload()
    mangle(data)
    with pytest.raises(FormatError, match=fragment) as caught:
        from_payload(data)
    with pytest.raises(FormatError) as expected:
        reference.from_payload(data)
    assert str(caught.value) == str(expected.value)


def test_invalid_json_text():
    with pytest.raises(FormatError, match="invalid JSON"):
        from_json("{nope")


def test_null_anchors_load_but_fail_verification():
    data = _payload(start=None)
    g = from_payload(data)
    assert g.start_block is None
    assert any(v.rule == "V9" for v in verify(g))


def test_save_and_load_paths(tmp_path):
    g, _ = build_add_graph()
    path = tmp_path / "g.json"
    save(g, path)
    assert load(path).signature() == g.signature()
    assert load(str(path)).signature() == g.signature()


# -- what saving over an existing file leaves ---------------------------------


def test_saving_over_a_longer_file_leaves_exactly_the_graph(tmp_path):
    g, _ = build_add_graph()
    path = tmp_path / "g.json"
    path.write_bytes(b"x" * (10 * len(to_json(g).encode("utf-8"))))
    save(g, path)
    assert path.read_bytes() == to_json(g).encode("utf-8")


def test_saving_keeps_the_file_so_a_hard_link_sees_the_new_graph(tmp_path):
    old, _ = build_add_graph(1, 2)
    new, _ = build_diamond(cond_const=0)
    path, link = tmp_path / "g.json", tmp_path / "link.json"
    save(old, path)
    os.link(path, link)
    save(new, path)
    assert path.stat().st_ino == link.stat().st_ino
    assert link.read_bytes() == to_json(new).encode("utf-8")


def test_saving_to_the_null_device_succeeds():
    g, _ = build_add_graph()
    save(g, os.devnull)


def test_dot_golden_pre_and_post_optimize():
    g, names = build_diamond(cond_const=0)
    assert to_dot(g) == (DATA / "diamond_pre.dot").read_text()
    assert to_dot(g, highlights={names["cond"], names["phi"]}) == (
        DATA / "diamond_highlight.dot"
    ).read_text()
    optimize(g)
    assert to_dot(g) == (DATA / "diamond_post.dot").read_text()


def test_dot_clusters_every_block():
    g = generate(5)
    text = to_dot(g)
    blocks = [nid for nid, n in g.items() if n.kind is NodeKind.BLOCK]
    assert text.count("subgraph cluster_") == len(blocks)
    assert text.count("->") == g.edge_count


# -- generator ---------------------------------------------------------------


def test_generate_is_deterministic_per_seed():
    a = generate(42)
    b = generate(42)
    assert a.signature() == b.signature()
    assert to_json(a) == to_json(b)
    assert generate(43).signature() != a.signature()


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec(blocks=2, ops_per_block=0, loop_count=0, input_count=0),
        GenSpec(blocks=2, ops_per_block=5, loop_count=0, input_count=3),
        GenSpec(blocks=12, ops_per_block=3, const_ratio=0.0, loop_count=3),
        GenSpec(blocks=10, ops_per_block=6, const_ratio=1.0, loop_count=1),
        GenSpec(blocks=24, ops_per_block=8, const_ratio=0.5, loop_count=4, input_count=6),
    ],
)
def test_generated_graphs_verify_clean(spec):
    for seed in (0, 1, 2):
        g = generate(seed, spec)
        assert verify(g) == []


def test_graphs_with_no_values_before_a_diamond_verify_clean():
    # No inputs and no ops: a diamond's arms have no earlier value, and
    # their Phis read Consts.
    spec = GenSpec(blocks=8, ops_per_block=0, loop_count=0, input_count=0)
    for seed in range(20):
        assert verify(generate(seed, spec)) == []


def test_generated_graphs_have_no_div_or_mod():
    for seed in range(10):
        g = generate(seed)
        kinds = {node.kind for _nid, node in g.items()}
        assert NodeKind.DIV not in kinds
        assert NodeKind.MOD not in kinds


def test_generate_honors_the_shape_knobs():
    spec = GenSpec(blocks=14, ops_per_block=4, loop_count=2, input_count=3)
    g = generate(9, spec)
    blocks = sum(1 for _nid, n in g.items() if n.kind is NodeKind.BLOCK)
    assert blocks == 14
    loads = [nid for nid, n in g.items() if n.kind is NodeKind.LOAD]
    assert len(loads) == 3
    assert all(g.node(nid).volatile for nid in loads)
    phis = sum(1 for _nid, n in g.items() if n.kind is NodeKind.PHI)
    assert phis >= 4  # two per loop at least


def test_generate_rejects_impossible_shapes():
    with pytest.raises(ValueError, match="at least 2 blocks"):
        generate(0, GenSpec(blocks=1))
    with pytest.raises(ValueError, match="only 3 available"):
        generate(0, GenSpec(blocks=5, loop_count=2))
    with pytest.raises(ValueError, match="const_ratio"):
        generate(0, GenSpec(const_ratio=1.5))
    with pytest.raises(ValueError, match="must be >= 0"):
        generate(0, GenSpec(ops_per_block=-1))


def test_all_const_graph_collapses_to_a_return():
    spec = GenSpec(blocks=8, ops_per_block=6, const_ratio=1.0, loop_count=0, input_count=0)
    g = generate(21, spec)
    optimize(g)
    assert len(g) == 6  # two Blocks, Start, End, Return, Const
    kinds = sorted(node.kind.value for _nid, node in g.items())
    assert kinds == ["Block", "Block", "Const", "End", "Return", "Start"]


def test_spec_for_nodes_lands_near_the_target():
    target = 27993
    g = generate(7, spec_for_nodes(target))
    assert abs(len(g) - target) / target < 0.15
    assert g.edge_count > len(g)
    assert verify(g) == []


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    blocks=st.integers(min_value=2, max_value=7),
    ops=st.integers(min_value=0, max_value=4),
    ratio=st.floats(min_value=0.0, max_value=1.0),
)
def test_small_graphs_round_trip_and_verify(seed, blocks, ops, ratio):
    spec = GenSpec(
        blocks=blocks,
        ops_per_block=ops,
        const_ratio=ratio,
        loop_count=min(1, (blocks - 2) // 3),
        input_count=1,
    )
    g = generate(seed, spec)
    assert verify(g) == []
    assert to_json(from_json(to_json(g))) == to_json(g)
    assert to_json(g) == reference.to_json(g)


def test_big_graph_saves_and_loads_fast(tmp_path, big_graph):
    import time

    path = tmp_path / "big.json"
    save(big_graph, path)
    assert path.stat().st_size > 10 * 1024 * 1024
    t0 = time.perf_counter()
    loaded = load(path)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert len(loaded) == len(big_graph)
    assert loaded.signature() == big_graph.signature()


# -- the one-pass loader and the template writer against the reference -------

def _tables(g):
    """Node order and attributes, each incidence list in order, and the counters."""
    nodes = [(nid, n.kind, n.value, n.relation, n.volatile, n.block) for nid, n in g.items()]
    incidence = [
        [(nid, [(e.src, e.dst, e.kind, e.position) for e in lst]) for nid, lst in table.items()]
        for table in (g._out, g._in)
    ]
    members = {block: sorted(ids) for block, ids in g._members.items()}
    return nodes, incidence, members, g._next_id, g.edge_count, g.start_block, g.end_block


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_loader_matches_the_reference_on_mutated_payloads(data):
    seed = data.draw(st.integers(0, 40))
    spec = GenSpec(blocks=5, ops_per_block=2, const_ratio=0.3, loop_count=1, input_count=1)
    payload = json.loads(reference.to_json(generate(seed, spec)))
    for array in ("nodes", "edges"):
        if data.draw(st.booleans()):
            payload[array] = data.draw(st.permutations(payload[array]))
    for _ in range(data.draw(st.integers(0, 3))):
        mutate_payload(payload, data)
    outcomes = []
    for load in (reference.from_payload, from_payload):
        try:
            outcomes.append(load(payload))
        except FormatError as exc:
            outcomes.append(str(exc))
    expected, actual = outcomes
    if isinstance(expected, str) or isinstance(actual, str):
        assert actual == expected
    else:
        assert _tables(actual) == _tables(expected)
        assert to_json(actual) == reference.to_json(expected)


def test_writer_matches_the_reference():
    graphs = list(broken_graphs().values())
    g, entry, _ = func_graph()
    # A node whose block was deleted is written without a "block" field.
    side = g.add_node(NodeKind.BLOCK)
    g.add_node(NodeKind.CONST, value=4, block=side)
    g.delete_node(side)
    graphs.append(g)
    for g in graphs:
        assert to_json(g) == reference.to_json(g)
        assert to_payload(g) == reference.to_payload(g)
    for g in golden_corpus():
        assert to_json(g) == reference.to_json(g)
        optimize(g)
        assert to_json(g) == reference.to_json(g)
        run_instruction_selection(g)
        assert to_json(g) == reference.to_json(g)
