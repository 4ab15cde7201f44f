"""Command-line front end.

Exit codes: 0 success, 1 verifier findings on the input, 2 usage or input
problems, 3 broken pipeline contract, such as a pass whose output fails
verification. The FIRMFOLD_SEED environment variable overrides --seed
wherever a seed is taken.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import graphio
from .cfgfold import optimize
from .errors import (
    ContractError,
    FirmfoldError,
    FormatError,
    InterpreterError,
    VerificationError,
)
from .graphio import GenSpec, generate, spec_for_nodes
from .interp import execute
from .ir import OPS, NodeKind
from .isel import run_instruction_selection
from .verifier import format_violations, verify


def _dot_writer(directory: str):
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)

    def write(round_no: int, g) -> None:
        graphio.export_dot(g, out / f"round_{round_no:04d}.dot")

    return write


def _seed(args) -> int:
    env = os.environ.get("FIRMFOLD_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise FormatError(f"FIRMFOLD_SEED must be an integer, got {env!r}") from None


def _at_least_one(option: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise FormatError(f"{option} must be at least 1, got {value}")


def _cmd_run(args) -> int:
    """Load, apply the passes in order, save. fold and isel come here with
    a fixed pass list."""
    _at_least_one("--max-rounds", args.max_rounds)
    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    unknown = [p for p in passes if p not in ("fold", "isel")]
    if unknown or not passes:
        raise FormatError(f"--passes takes fold,isel combinations, got {args.passes!r}")
    g = graphio.load(args.input)
    on_round = _dot_writer(args.emit_dot) if args.emit_dot else None
    for name in passes:
        if name == "fold":
            optimize(g, max_rounds=args.max_rounds, on_round=on_round)
        else:
            run_instruction_selection(g)
    graphio.save(g, args.output)
    return 0


def _cmd_verify(args) -> int:
    g = graphio.load(args.input)
    findings = verify(g)
    if findings:
        print(format_violations(findings))
        return 1
    print("ok")
    return 0


def _parse_inputs(text: str | None) -> dict[int, int]:
    inputs: dict[int, int] = {}
    if not text:
        return inputs
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            key, _, text = part.partition("=")
            nid, value = int(key), int(text)
        except ValueError:
            raise FormatError(
                f"--inputs takes id=value pairs separated by commas, got {part!r}"
            ) from None
        if nid in inputs:
            raise FormatError(f"--inputs names node {nid} twice")
        inputs[nid] = value
    return inputs


def _cmd_exec(args) -> int:
    _at_least_one("--max-steps", args.max_steps)
    g = graphio.load(args.input)
    findings = verify(g)
    if findings:
        raise VerificationError(findings, "before exec")
    inputs = _parse_inputs(args.inputs)
    loads = {nid for nid, n in g.items() if OPS[n.kind].op is NodeKind.LOAD and n.volatile}
    for nid in inputs:
        if nid not in loads:
            raise InterpreterError(f"--inputs names node {nid}, which is not a volatile Load")
    result = execute(g, inputs, max_steps=args.max_steps)
    if result.trapped is not None:
        print(f"trap: {result.trapped}")
    else:
        print(result.value)
    return 0


def _cmd_gen(args) -> int:
    spec = GenSpec(
        blocks=args.blocks,
        ops_per_block=args.ops_per_block,
        const_ratio=args.const_ratio,
        loop_count=args.loops,
        input_count=args.inputs,
    )
    try:
        g = generate(_seed(args), spec)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    graphio.save(g, args.output)
    return 0


def _parse_sizes(text: str) -> list[int]:
    sizes = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            size = int(float(part))
        except (ValueError, OverflowError):
            raise FormatError(f"bad size {part!r} in --sizes") from None
        if size < 1:
            raise FormatError(f"bad size {part!r} in --sizes: a size is at least 1 node")
        sizes.append(size)
    if not sizes:
        raise FormatError("--sizes needs at least one size")
    return sizes


def _best_of(repeat: int, graph, pass_fn) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(repeat):
        work = graph.copy()
        t0 = time.perf_counter()
        pass_fn(work)
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
            result = work
    return best * 1000.0, result


def _cmd_bench(args) -> int:
    seed = _seed(args)
    sizes = _parse_sizes(args.sizes)
    _at_least_one("--repeat", args.repeat)
    rows = []
    for size in sizes:
        g = generate(seed, spec_for_nodes(size))
        fold_ms, folded = _best_of(args.repeat, g, optimize)
        isel_ms, lowered = _best_of(args.repeat, folded, run_instruction_selection)
        rows.append((size, fold_ms, isel_ms, len(lowered)))
        print(
            f"size {size}: {len(g)} nodes in, fold {fold_ms:.1f} ms, "
            f"isel {isel_ms:.1f} ms, {len(lowered)} nodes out",
            file=sys.stderr,
        )
    lines = ["size,fold_ms,isel_ms,nodes_out"]
    lines += [f"{s},{f:.3f},{i:.3f},{n}" for s, f, i, n in rows]
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="firmfold",
        description="Constant folding, CFG cleanup and instruction selection "
        "over JSON graph files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, output_required=True):
        p.add_argument("input", help="input graph (JSON)")
        p.add_argument("-o", "--output", required=output_required, help="output path")

    p = sub.add_parser("fold", help="run the optimizer to a fixpoint")
    add_io(p)
    p.add_argument("--emit-dot", metavar="DIR", help="write a DOT snapshot per round")
    p.add_argument("--max-rounds", type=int, default=None)
    p.set_defaults(func=_cmd_run, passes="fold")

    p = sub.add_parser("isel", help="lower IR kinds to target kinds")
    add_io(p)
    p.set_defaults(func=_cmd_run, passes="isel", emit_dot=None, max_rounds=None)

    p = sub.add_parser("run", help="compose passes in order")
    p.add_argument("--passes", required=True, help="comma list drawn from fold,isel")
    add_io(p)
    p.add_argument("--emit-dot", metavar="DIR")
    p.add_argument("--max-rounds", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="print structural findings")
    p.add_argument("input")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("exec", help="interpret a graph")
    p.add_argument("input")
    p.add_argument("--inputs", help="volatile Load values as id=value,id=value")
    p.add_argument("--max-steps", type=int, default=10**6)
    p.set_defaults(func=_cmd_exec)

    p = sub.add_parser("gen", help="generate a random graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--ops-per-block", type=int, default=6)
    p.add_argument("--const-ratio", type=float, default=0.4)
    p.add_argument("--loops", type=int, default=1)
    p.add_argument("--inputs", type=int, default=2)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="time fold and isel on generated graphs")
    p.add_argument("--sizes", required=True, help="node counts, e.g. 1e4,1e5")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("-o", "--output", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc.when}", file=sys.stderr)
        print(format_violations(exc.violations), file=sys.stderr)
        return 3 if isinstance(exc, ContractError) else 1
    except ContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FirmfoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
