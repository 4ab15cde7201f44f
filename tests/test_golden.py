"""Golden digests of the canonical JSON through the pipeline.

A change meant to preserve output must leave these digests alone. A change
meant to alter output updates them, and names the graphs that changed and
why.

The corpus is criterion 4's 500 seeded graphs plus three graphs of the
benchmark's branchy shape. Each graph is written, loaded back from that
text, optimized and lowered; the same two stages also run on a copy of the
generated graph. Both routes must give the pinned text, so the digests pin
the writer, the loader and copy() along with the passes.

Removing unused nodes before the first fold changed the optimized and
lowered texts only in the ids of the Consts that folding creates; the last
test pins that. The mark-sweep that replaced the reader-counting sweep
deletes dead cycles too, such as a loop accumulator nothing reads; that
changed the optimized and lowered texts of 266 of the 503 graphs, each of
which lost 2 to 18 nodes. test_outputs_hold_no_dead_code_and_keep_verdicts
pins that no dead node is left and that verdicts hold.

Bypassing blocks that hold only a Jmp behind a Cond edge
(bypass_empty_block), and folding a Cond whose two edges enter one block
without Phis (fold_redundant_cond), changed the optimized and lowered
texts of 137 of the 503 graphs, each of which lost 2 to 218 nodes; the
input texts, and every verdict, stayed the same.
"""

import hashlib

from conftest import golden_corpus
from firmfold.cfgfold import cleanup_round, optimize
from firmfold.constfold import fold_dataflow_fixpoint
from firmfold.graphio import from_json, to_json, to_payload
from firmfold.interp import execute
from firmfold.ir import NodeKind
from firmfold.isel import run_instruction_selection
from firmfold.verifier import verify
from reference_dce import dead_nodes

DIGESTS = {
    "input": "f913f09b8b020250584f989f650cbf65ebf24b79530a17afdb1be8718f5f8cf3",
    "optimized": "a3877174be1b5a4d28ae8f43d0ba3b28a76b1c742df3dfd826fa3e9bbbe6978a",
    "lowered": "f2cfa119cee699ff817e57a6f81bbc439fb9253bef05db80b21a27e903f1527e",
}


def test_pipeline_output_matches_the_golden_digests():
    inputs = hashlib.sha256()
    routes = {
        route: {"optimized": hashlib.sha256(), "lowered": hashlib.sha256()}
        for route in ("loaded", "copied")
    }
    for g in golden_corpus():
        text = to_json(g)
        inputs.update(text.encode())
        for route, work in (("loaded", from_json(text)), ("copied", g.copy())):
            optimize(work)
            routes[route]["optimized"].update(to_json(work).encode())
            run_instruction_selection(work)
            routes[route]["lowered"].update(to_json(work).encode())
    assert inputs.hexdigest() == DIGESTS["input"]
    for route, stages in routes.items():
        for stage, digest in stages.items():
            assert digest.hexdigest() == DIGESTS[stage], f"{stage} via {route}"


def test_outputs_hold_no_dead_code_and_keep_verdicts():
    for g in golden_corpus():
        optimized = g.copy()
        optimize(optimized)
        assert dead_nodes(optimized) == set()
        lowered = optimized.copy()
        run_instruction_selection(lowered)
        loads = [nid for nid, n in g.items() if n.kind is NodeKind.LOAD and n.volatile]
        for value in (3, -7):
            inputs = dict.fromkeys(loads, value)
            verdicts = {
                (r.value, r.trapped)
                for r in (execute(stage, inputs) for stage in (g, optimized, lowered))
            }
            assert len(verdicts) == 1


def _fold_and_clean_until_quiet(g):
    """optimize() as it was before it removed unused nodes first; returns
    the number of rounds."""
    assert verify(g) == []
    rounds = 0
    while True:
        rounds += 1
        folded = fold_dataflow_fixpoint(g)
        cleaned = cleanup_round(g)
        if not folded and not cleaned:
            return rounds


def _with_fresh_ids_renumbered(g, first_fresh):
    """The canonical JSON as data, with the ids from first_fresh up (the
    nodes the passes created) renumbered first_fresh, first_fresh + 1, ...
    in ascending order. The map keeps the order of ids, so it keeps the
    canonical order of nodes and edges too."""
    fresh = sorted(nid for nid in g.node_ids() if nid >= first_fresh)
    new_id = {nid: first_fresh + i for i, nid in enumerate(fresh)}
    data = to_payload(g)
    for item in data["nodes"]:
        for key in ("id", "block"):
            if key in item:
                item[key] = new_id.get(item[key], item[key])
    for item in data["edges"]:
        for key in ("src", "dst"):
            item[key] = new_id.get(item[key], item[key])
    for key in ("start", "end"):
        data[key] = new_id.get(data[key], data[key])
    return data


def test_removing_unused_nodes_first_only_renames_fresh_nodes():
    for g in golden_corpus():
        first_fresh = max(g.node_ids()) + 1
        before, after = g.copy(), g.copy()
        old_rounds = _fold_and_clean_until_quiet(before)
        rounds = []
        optimize(after, on_round=lambda n, _g: rounds.append(n))
        assert len(rounds) <= old_rounds
        assert _with_fresh_ids_renumbered(after, first_fresh) == (
            _with_fresh_ids_renumbered(before, first_fresh)
        )
        run_instruction_selection(before)
        run_instruction_selection(after)
        assert _with_fresh_ids_renumbered(after, first_fresh) == (
            _with_fresh_ids_renumbered(before, first_fresh)
        )
