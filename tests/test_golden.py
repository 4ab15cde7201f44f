"""Golden digests of the canonical JSON through the pipeline.

A change meant to preserve output must leave these digests alone. A change
meant to alter output updates them, and names the graphs that changed and
why.

The corpus is criterion 4's 500 seeded graphs plus three graphs of the
benchmark's branchy shape. Each graph is written, loaded back from that
text, optimized and lowered; the same two stages also run on a copy of the
generated graph. Both routes must give the pinned text, so the digests pin
the writer, the loader and copy() along with the passes.
"""

import hashlib

from conftest import golden_corpus
from firmfold.cfgfold import optimize
from firmfold.graphio import from_json, to_json
from firmfold.isel import run_instruction_selection

DIGESTS = {
    "input": "f913f09b8b020250584f989f650cbf65ebf24b79530a17afdb1be8718f5f8cf3",
    "optimized": "11f7b724b298447e23461db224586b31dbfe714902e09ca77e1a574a02c5e728",
    "lowered": "97152e92c5efbee56a97e3e13a1458c37dc9bc39b27d6bc288fd121a3f9e24d9",
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
