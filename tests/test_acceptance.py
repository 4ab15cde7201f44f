"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line on the real stdout, so the gate's verdict is visible even when
pytest captures output. Tolerances are stated inline; everything not
marked as a timing bound is exact.
"""

import ctypes
import math
import operator
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (
    broken_graphs,
    build_add_graph,
    build_jmp_chain,
    build_mul_chain,
    sized_gen_spec,
)
from firmfold.arith import INT_MAX, INT_MIN, apply_binary
from firmfold.cfgfold import optimize
from firmfold.errors import ContractError
from firmfold.graphio import generate, spec_for_nodes
from firmfold.interp import execute
from firmfold.ir import (
    BINARY_KINDS,
    IMMEDIATE_KINDS,
    IMMEDIATE_TARGET_OF,
    TARGET_BINARY_KINDS,
    NodeKind,
    Relation,
)
from firmfold.isel import run_instruction_selection
from firmfold.verifier import verify


@contextmanager
def criterion(capsys, number, text):
    """Print one verdict line per criterion past pytest's capture."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number}] FAIL  {text}", flush=True)
        raise
    with capsys.disabled():
        print(f"[criterion {number}] PASS  {text}", flush=True)


def test_criterion_01_add_folds_to_a_single_const(capsys):
    with criterion(capsys, 1, "1 + 2 folds to a single reconnected Const 3"):
        g, names = build_add_graph(1, 2)
        optimize(g)
        assert len(g) == 6  # two Blocks, Start, End, Return, Const
        consts = [nid for nid, n in g.items() if n.kind is NodeKind.CONST]
        assert len(consts) == 1
        assert g.node(consts[0]).value == 3
        assert g.operands_of(names["ret"]) == [(consts[0], 0)]
        assert g.users_of(consts[0]) == [(names["ret"], 0)]
        result = execute(g)
        assert result.ok and result.value == 3


def test_criterion_02_jmp_chain_collapses_to_one_block(capsys):
    with criterion(capsys, 2, "a 5-deep Jmp chain collapses to one code block"):
        g, names = build_jmp_chain(k=5, ret_value=7)
        optimize(g)
        blocks = [nid for nid, n in g.items() if n.kind is NodeKind.BLOCK]
        assert blocks == [names["entry"], g.end_block]
        code_blocks = [b for b in blocks if b != g.end_block]
        assert len(code_blocks) == 1
        assert g.block_of(names["ret"]) == names["entry"]
        assert sum(1 for _n, n in g.items() if n.kind is NodeKind.JMP) == 0
        result = execute(g)
        assert result.ok and result.value == 7


def test_criterion_03_mul_chain_reassociates(capsys):
    coeffs = [3, 5, 2, 7, 1, -1, 2, 2, 3, 1]
    product = math.prod(coeffs)
    with criterion(capsys, 3, "a depth-10 constant multiply chain becomes one multiply"):
        g, names = build_mul_chain(coeffs)
        baseline = {x: execute(g, {names["x"]: x}).value for x in (0, 5, -3, 123456789)}
        optimize(g)
        muls = [nid for nid, n in g.items() if n.kind is NodeKind.MUL]
        assert muls == [names["last"]]
        (op0, op1) = g.operands_of(muls[0])
        assert op0 == (names["x"], 0)
        assert g.node(op1[0]).kind is NodeKind.CONST
        assert g.node(op1[0]).value == product
        assert g.users_of(names["x"]) == [(muls[0], 0)]
        for x, expected in baseline.items():
            assert expected == ctypes.c_int32(x * product).value
            result = execute(g, {names["x"]: x})
            assert result.ok and result.value == expected


def test_criterion_04_semantics_preserved_across_stages(capsys):
    text = "500 seeded graphs agree on 10 input vectors through fold and isel"
    with criterion(capsys, 4, text):
        mismatches = 0
        for seed in range(500):
            rng = random.Random(900_000 + seed)
            g = generate(seed, sized_gen_spec(rng))
            assert len(g) <= 500
            assert verify(g) == []
            folded = g.copy()
            optimize(folded)
            lowered = folded.copy()
            run_instruction_selection(lowered)
            loads = [
                nid for nid, n in g.items() if n.kind is NodeKind.LOAD and n.volatile
            ]
            for _ in range(10):
                inputs = {nid: rng.randint(INT_MIN, INT_MAX) for nid in loads}
                results = [
                    execute(stage, inputs, max_steps=50_000)
                    for stage in (g, folded, lowered)
                ]
                outcomes = {(r.value, r.trapped) for r in results}
                if len(outcomes) != 1:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_05_fixpoint_and_stage_contracts(capsys):
    with criterion(capsys, 5, "optimize is idempotent and isel refuses lowered graphs"):
        for seed in range(20):
            rng = random.Random(550_000 + seed)
            g = generate(seed, sized_gen_spec(rng))
            assert verify(g) == []
            folded = g.copy()
            optimize(folded)
            assert verify(folded) == []
            assert optimize(folded) is False
            lowered = folded.copy()
            run_instruction_selection(lowered)
            assert verify(lowered) == []
            with pytest.raises(ContractError):
                run_instruction_selection(lowered)


def _wrap_i32(x):
    return ctypes.c_int32(x & 0xFFFFFFFF).value


_CMP_OPS = {
    Relation.EQUAL: operator.eq,
    Relation.NOT_EQUAL: operator.ne,
    Relation.LESS: operator.lt,
    Relation.LESS_EQUAL: operator.le,
    Relation.GREATER: operator.gt,
    Relation.GREATER_EQUAL: operator.ge,
}


def _brute_force(kind, a, b, relation):
    """An independent 32-bit evaluator built from different primitives."""
    if kind is NodeKind.ADD:
        return _wrap_i32(a + b)
    if kind is NodeKind.SUB:
        return _wrap_i32(a - b)
    if kind is NodeKind.MUL:
        return _wrap_i32(a * b)
    if kind in (NodeKind.DIV, NodeKind.MOD):
        if b == 0:
            return None
        q = a // b
        if a % b != 0 and (a < 0) != (b < 0):
            q += 1  # floor -> truncation
        if kind is NodeKind.DIV:
            return _wrap_i32(q)
        return _wrap_i32(a - b * q)
    if kind is NodeKind.AND:
        return _wrap_i32(a & b)
    if kind is NodeKind.OR:
        return _wrap_i32(a | b)
    if kind is NodeKind.XOR:
        return _wrap_i32(a ^ b)
    if kind is NodeKind.SHL:
        return _wrap_i32(a << (b & 31))
    if kind is NodeKind.SHR:
        s = b & 31
        r = (a & 0xFFFFFFFF) >> s
        if a < 0 and s:
            r |= 0xFFFFFFFF << (32 - s)
        return _wrap_i32(r)
    if kind is NodeKind.CMP:
        return 1 if _CMP_OPS[relation](a, b) else 0
    raise AssertionError(kind)


def test_criterion_06_fold_binary_matches_brute_force(capsys):
    with criterion(capsys, 6, "10^4 random binary evaluations match an independent oracle"):
        rng = random.Random(20260814)
        kinds = sorted(BINARY_KINDS, key=lambda k: k.value)
        relations = list(Relation)
        edge_values = [0, 1, -1, 2, -2, 31, 32, 33, 65536, INT_MIN, INT_MAX]
        for _ in range(10_000):
            kind = rng.choice(kinds)
            relation = rng.choice(relations) if kind is NodeKind.CMP else None
            a = rng.choice(edge_values) if rng.random() < 0.4 else rng.randint(INT_MIN, INT_MAX)
            b = rng.choice(edge_values) if rng.random() < 0.4 else rng.randint(INT_MIN, INT_MAX)
            assert apply_binary(kind, a, b, relation) == _brute_force(kind, a, b, relation)


def test_criterion_07_immediate_encoding_census(capsys):
    text = "right-hand constants lower to immediates, none remain at position 0"
    with criterion(capsys, 7, text):
        absorbed = 0
        # 1,000 seeds: optimize deletes dead cycles and counted loops that
        # nothing reads, and the immediates they held, so 150 seeds no
        # longer reach the floor below.
        for seed in range(1_000):
            rng = random.Random(700_000 + seed)
            g = generate(seed, sized_gen_spec(rng))
            optimize(g)
            expected = {}
            for nid, node in g.items():
                if node.kind in BINARY_KINDS:
                    ops = g.operands_of(nid)
                    if len(ops) == 2 and g.node(ops[1][0]).kind is NodeKind.CONST:
                        expected[nid] = (
                            IMMEDIATE_TARGET_OF[node.kind],
                            g.node(ops[1][0]).value,
                        )
            run_instruction_selection(g)
            for nid, (target_kind, value) in expected.items():
                assert nid in g
                assert g.node(nid).kind is target_kind
                assert g.node(nid).value == value
                absorbed += 1
            for nid, node in g.items():
                if node.kind in TARGET_BINARY_KINDS:
                    ops = g.operands_of(nid)
                    assert g.node(ops[0][0]).kind is not NodeKind.TARGET_CONST
                    assert g.node(ops[1][0]).kind is not NodeKind.TARGET_CONST
                elif node.kind in IMMEDIATE_KINDS:
                    (op0, _pos), = g.operands_of(nid)
                    assert g.node(op0).kind is not NodeKind.TARGET_CONST
        assert absorbed > 200  # the census actually exercised something


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_08_performance_at_scale(big_graph, capsys):
    text = "fold < 60 s and isel < 10 s on ~300k nodes, sub-quadratic growth"
    with criterion(capsys, 8, text):
        assert len(big_graph) >= 277_000
        assert big_graph.edge_count >= 800_000
        work = big_graph.copy()
        fold_s = _timed(optimize, work)
        isel_s = _timed(run_instruction_selection, work)
        assert fold_s < 60.0
        assert isel_s < 10.0

        samples = []
        for size in (10**3, 10**4, 10**5):
            g = generate(7, spec_for_nodes(size))
            elapsed = min(_timed(optimize, g.copy()) for _ in range(2))
            samples.append((len(g), elapsed))
        xs = [math.log(n) for n, _ in samples]
        ys = [math.log(t) for _, t in samples]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        assert slope < 1.6


def test_criterion_09_verifier_catalog(capsys):
    with criterion(capsys, 9, "each broken graph trips exactly its own verifier rule"):
        for rule, g in broken_graphs().items():
            findings = verify(g)
            assert [v.rule for v in findings] == [rule]
