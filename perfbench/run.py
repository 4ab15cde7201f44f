"""The firmfold benchmark.

Generates a workload's programs from --seed, compiles each the way
`firmfold run --passes fold,isel` does (load, optimize, instruction
selection, save), runs every lowered program in firmfold's interpreter on
fixed input vectors, and checks each result against an evaluator of its own
(refeval.py). Run from the repository root; nothing needs installing:

    python3 perfbench/run.py --workload branchy --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run; BENCHMARK.json names both sets and
README.md says what each one measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

workloads.use_sources()

import refeval  # noqa: E402
from firmfold import cfgfold, graphio, interp, isel  # noqa: E402
from firmfold.errors import FirmfoldError  # noqa: E402
from firmfold.interp import TRAP_STEP_LIMIT  # noqa: E402
from firmfold.ir import IMMEDIATE_KINDS  # noqa: E402
from firmfold.verifier import verify  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = workloads.BENCH_DIR.parent
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
_IMMEDIATE_NAMES = frozenset(k.value for k in IMMEDIATE_KINDS)
_ANCHORS = frozenset({"Block", "Start", "End"})
_COUNTS = ("nodes_in", "edges_in", "nodes_after_fold", "edges_after_fold",
           "nodes_out", "edges_out", "exec_steps")


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric names and units from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def set_up(workload: str, seed: int, in_dir: Path) -> dict:
    """Generate and write the inputs in a child process; return its timings."""
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "gen_inputs.py"),
         "--workload", workload, "--seed", str(seed), "--out", str(in_dir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def compile_round(inputs: list[Path], out_dir: Path, vectors: list[list[dict]]) -> dict:
    """One pass over every program: compile it, then run it on its vectors.

    A program whose compile raises a FirmfoldError gets None in "results".
    """
    gc.collect()  # start every round with only the benchmark's own objects live
    r = dict.fromkeys(("load_s", "transform_s", "save_s", "exec_s"), 0.0)
    r.update(dict.fromkeys(_COUNTS, 0))
    r["results"] = results = []
    for path, vecs in zip(inputs, vectors):
        try:
            t0 = time.perf_counter()
            g = graphio.load(path)
            t1 = time.perf_counter()
            loaded = len(g), g.edge_count
            cfgfold.optimize(g)
            folded = len(g), g.edge_count
            isel.run_instruction_selection(g)
            t2 = time.perf_counter()
            graphio.save(g, out_dir / path.name)
            t3 = time.perf_counter()
        except FirmfoldError as exc:
            print(f"perfbench: {path.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            results.append(None)
            continue
        runs = [interp.execute(g, vec, max_steps=workloads.STEP_LIMIT) for vec in vecs]
        t4 = time.perf_counter()
        r["load_s"] += t1 - t0
        r["transform_s"] += t2 - t1
        r["save_s"] += t3 - t2
        r["exec_s"] += t4 - t3
        r["nodes_in"] += loaded[0]
        r["edges_in"] += loaded[1]
        r["nodes_after_fold"] += folded[0]
        r["edges_after_fold"] += folded[1]
        r["nodes_out"] += len(g)
        r["edges_out"] += g.edge_count
        r["exec_steps"] += sum(run.steps for run in runs)
        results.append([(run.value, run.trapped) for run in runs])
    r["compile_s"] = r["load_s"] + r["transform_s"] + r["save_s"]
    return r


def measure(inputs, out_dir, vectors, seconds: float, tracer: Tracer | None) -> list[dict]:
    """Whole rounds until `seconds` have passed.

    With a tracer, rounds come in pairs of one traced and one untraced round,
    in alternating order, so that drift in machine speed does not show up as
    tracing overhead.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        if tracer is None:
            rounds.append(compile_round(inputs, out_dir, vectors))
        else:
            order = (False, True) if len(rounds) % 4 == 0 else (True, False)
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    r = compile_round(inputs, out_dir, vectors)
                finally:
                    tracer.uninstall()
                r["trace"] = tracer.take() if traced else None
                rounds.append(r)
        if time.perf_counter() - start >= seconds:
            return rounds


def check(inputs, out_dir, vectors, rounds) -> tuple[list[str], int, dict]:
    """Check every run against the reference evaluator, and the outputs of
    the last round against the properties the passes promise.

    Returns (problems, failed operations, output counts).
    """
    problems: list[str] = []
    failed = 0
    immediates = 0
    for key in ("nodes_out", "edges_out", "exec_steps"):
        if len({r[key] for r in rounds}) != 1:
            problems.append(f"{key} differs between rounds of the same inputs")
    for i, (path, vecs) in enumerate(zip(inputs, vectors)):
        program = refeval.Program.from_file(path)
        expected = []
        for vec in vecs:
            try:
                expected.append(program.run(vec, workloads.STEP_LIMIT)[0])
            except refeval.StepLimit:
                expected.append(None)
        for r in rounds:
            runs = r["results"][i]
            if runs is None:
                failed += 1 + len(vecs)
                continue
            for j, ((value, trapped), want) in enumerate(zip(runs, expected)):
                if trapped == TRAP_STEP_LIMIT or want is None:
                    failed += 1
                elif trapped is not None or value != want:
                    shown = f"trap {trapped}" if trapped else value
                    problems.append(f"{path.name} vector {j}: got {shown}, expected {want}")
        if rounds[-1]["results"][i] is None:
            continue
        text = (out_dir / path.name).read_text(encoding="utf-8")
        payload = json.loads(text)
        kinds = {n["kind"] for n in payload["nodes"]}
        stray = sorted(k for k in kinds if not k.startswith("Target") and k not in _ANCHORS)
        if stray:
            problems.append(f"{path.name}: output keeps IR kinds {stray}")
        immediates += sum(1 for n in payload["nodes"] if n["kind"] in _IMMEDIATE_NAMES)
        if len(payload["nodes"]) > len(program.nodes):
            problems.append(f"{path.name}: output has more nodes than its input")
        g = graphio.from_json(text)
        findings = verify(g)
        if findings:
            problems.append(f"{path.name}: verify reports {len(findings)} findings on the output")
        if graphio.to_json(g) != text:
            problems.append(f"{path.name}: save after load changes the bytes")
    return problems, failed, {"isel.immediates": immediates}


def run_inputs(inputs, vectors) -> dict:
    """firmfold's interpreter on the unoptimized inputs: the base for exec_steps."""
    steps = 0
    elapsed = 0.0
    for path, vecs in zip(inputs, vectors):
        g = graphio.load(path)
        t0 = time.perf_counter()
        for vec in vecs:
            steps += interp.execute(g, vec, max_steps=workloads.STEP_LIMIT).steps
        elapsed += time.perf_counter() - t0
    return {"interp.steps_in": steps, "interp.execute_in_s": elapsed}


def end_to_end(setups, rounds, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "compile_s": statistics.median(r["compile_s"] for r in rounds),
        "transform_s": statistics.median(r["transform_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "nodes_out": rounds[0]["nodes_out"],
        "edges_out": rounds[0]["edges_out"],
        "exec_steps": rounds[0]["exec_steps"],
        "exec_s": statistics.median(r["exec_s"] for r in rounds),
    }


def per_layer(setups, rounds, inputs, vectors, counts) -> dict:
    traced = [r for r in rounds if r["trace"] is not None]
    plain = [r for r in rounds if r["trace"] is None]
    values = {
        "graphio.generate_s": statistics.median(s["generate_s"] for s in setups),
        "graphio.input_bytes": setups[0]["input_bytes"],
        "graphio.load_s": statistics.median(r["load_s"] for r in traced),
        "graphio.save_s": statistics.median(r["save_s"] for r in traced),
        "trace.overhead_s": statistics.median(r["compile_s"] for r in traced)
        - statistics.median(r["compile_s"] for r in plain),
    }
    for key in ("nodes_in", "edges_in", "nodes_after_fold", "edges_after_fold"):
        values[f"ir.{key}"] = traced[0][key]
    for key in traced[0]["trace"]:
        values[key] = statistics.median(r["trace"][key] for r in traced)
    values.update(counts)
    values.update(run_inputs(inputs, vectors))
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    units_e2e, units_layer = metric_units()
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    in_dir, out_dir = work / "in", work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [set_up(workload, seed, in_dir) for _ in range(SETUP_REPEATS)]
        inputs = sorted(in_dir.glob("p*.json"))
        raw = json.loads((in_dir / "vectors.json").read_text(encoding="utf-8"))
        vectors = [[{int(k): v for k, v in vec.items()} for vec in prog] for prog in raw]

        tracer = Tracer() if trace else None
        t0 = time.perf_counter()
        rounds = measure(inputs, out_dir, vectors, seconds, tracer)
        measured_s = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems, failed, counts = check(inputs, out_dir, vectors, rounds)
        if trace:
            values, units = per_layer(setups, rounds, inputs, vectors, counts), units_layer
            for name in tracer.absent:
                print(f"perfbench: {name} is gone; its trace metrics are absent", file=sys.stderr)
        else:
            values, units = end_to_end(setups, rounds, peak_rss_mb), units_e2e
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems[:20]:
        print(f"perfbench: WRONG: {problem}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        else:
            print(f"perfbench: metric {name} is absent", file=sys.stderr)
    attempted = len(rounds) * sum(1 + len(vecs) for vecs in vectors)
    print(f"{workload} seed {seed}: {len(rounds)} rounds in {measured_s:.1f} s, "
          f"{len(inputs)} programs, {attempted} operations attempted, {failed} failed"
          + ("" if not problems else f", {len(problems)} WRONG"))
    print("  compile_s by round: " + " ".join(f"{r['compile_s']:.3f}" for r in rounds))
    print("  exec_s by round:    " + " ".join(f"{r['exec_s']:.3f}" for r in rounds))
    print("  setup_s by repeat:  " + " ".join(f"{s['setup_s']:.3f}" for s in setups))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own process, so each has its own peak memory."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {workload} failed")
        results[workload] = json.loads(lines[-1])
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description="Benchmark firmfold's fold and isel pipeline.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
