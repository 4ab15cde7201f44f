"""Set-up stage of the benchmark, run in its own process by run.py.

Generates a workload's programs with firmfold.graphio.generate, writes each as
graph JSON, and writes the input vectors for its volatile Loads. Prints one
JSON line with the time that took, so that run.py can report set-up time and
measure the memory of the compile stage apart from generation.

    python3 perfbench/gen_inputs.py --workload corpus --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import workloads

workloads.use_sources()

from firmfold import graphio  # noqa: E402
from firmfold.graphio import GenSpec  # noqa: E402
from firmfold.ir import NodeKind  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    generate_s = 0.0
    vectors = []
    t_start = time.perf_counter()
    for index, (gseed, fields) in enumerate(workloads.programs(args.workload, args.seed)):
        t0 = time.perf_counter()
        g = graphio.generate(gseed, GenSpec(**fields))
        generate_s += time.perf_counter() - t0
        graphio.save(g, args.out / f"p{index:04d}.json")
        loads = sorted(
            nid for nid, n in g.items() if n.kind is NodeKind.LOAD and n.volatile
        )
        vectors.append(workloads.input_vectors(args.workload, args.seed, index, loads))
    (args.out / "vectors.json").write_text(json.dumps(vectors), encoding="utf-8")
    setup_s = time.perf_counter() - t_start

    input_bytes = sum(p.stat().st_size for p in args.out.glob("p*.json"))
    print(json.dumps({"setup_s": setup_s, "generate_s": generate_s, "input_bytes": input_bytes}))


if __name__ == "__main__":
    main()
