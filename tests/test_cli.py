"""Command-line behavior: exit codes, outputs, and the seed override."""

import contextlib
import io
import json
import os
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_diamond,
    build_div_graph,
    build_jmp_chain,
    finish_return,
    func_graph,
    mutate_payload,
)
from firmfold.cli import main
from firmfold.graphio import GenSpec, generate, load, save, to_payload
from firmfold.ir import EdgeKind, NodeKind, TARGET_KINDS
from firmfold.isel import run_instruction_selection


def _gen(tmp_path, name="g.json", *extra):
    path = tmp_path / name
    assert main(["gen", "--seed", "5", "-o", str(path), *extra]) == 0
    return path


def test_gen_then_verify_ok(tmp_path, capsys):
    path = _gen(tmp_path)
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path, "a.json")
    b = _gen(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    plain = _gen(tmp_path, "seed9.json")
    monkeypatch.setenv("FIRMFOLD_SEED", "5")
    overridden = tmp_path / "env.json"
    assert main(["gen", "--seed", "1234", "-o", str(overridden)]) == 0
    monkeypatch.setenv("FIRMFOLD_SEED", "oops")
    assert main(["gen", "--seed", "1", "-o", str(tmp_path / "x.json")]) == 2
    monkeypatch.delenv("FIRMFOLD_SEED")
    assert overridden.read_bytes() == plain.read_bytes()


def test_fold_writes_an_optimized_graph(tmp_path):
    g, _ = build_diamond(cond_const=0)
    src = tmp_path / "in.json"
    save(g, src)
    out = tmp_path / "out.json"
    assert main(["fold", str(src), "-o", str(out)]) == 0
    folded = load(out)
    blocks = sum(1 for _n, node in folded.items() if node.kind is NodeKind.BLOCK)
    assert blocks == 2


def test_fold_emit_dot_writes_one_file_per_round(tmp_path):
    g, _ = build_diamond(cond_const=0)
    src = tmp_path / "in.json"
    save(g, src)
    dots = tmp_path / "rounds"
    assert main(["fold", str(src), "-o", str(tmp_path / "out.json"), "--emit-dot", str(dots)]) == 0
    names = sorted(p.name for p in dots.iterdir())
    assert names == ["round_0001.dot", "round_0002.dot"]
    assert (dots / "round_0001.dot").read_text().startswith("digraph")


def test_fold_settles_a_jump_chain_in_one_round(tmp_path):
    # Merging the chain's blocks makes due only the loop rule, which runs
    # after merging in the same round, so no round follows that only
    # proves the fixpoint: one DOT file, and one round is enough.
    g, _ = build_jmp_chain(4)
    src = tmp_path / "in.json"
    save(g, src)
    dots = tmp_path / "rounds"
    out = tmp_path / "out.json"
    args = ["-o", str(out), "--max-rounds", "1", "--emit-dot", str(dots)]
    assert main(["fold", str(src), *args]) == 0
    assert sorted(p.name for p in dots.iterdir()) == ["round_0001.dot"]


def test_fold_round_limit_is_a_contract_breach(tmp_path, capsys):
    g, _ = build_diamond(cond_const=0)
    src = tmp_path / "in.json"
    save(g, src)
    assert main(["fold", str(src), "-o", str(tmp_path / "o.json"), "--max-rounds", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_an_output_that_fails_verification_is_a_contract_breach(tmp_path, capsys):
    # Only Cond(Const 0)'s True edge enters the block that defines the
    # Load, yet the tail block, also entered from the False edge, reads
    # it. verify has no dominance rule, so the graph verifies clean;
    # optimize deletes the dead block with the Load and leaves the Add with
    # one operand, which its exit check reports.
    g, entry, _ = func_graph()
    zero = g.add_node(NodeKind.CONST, value=0, block=entry)
    cond = g.add_node(NodeKind.COND, block=entry)
    g.add_edge(cond, zero, EdgeKind.DATAFLOW, 0)
    then_b = g.add_node(NodeKind.BLOCK)
    g.add_edge(then_b, cond, EdgeKind.TRUE, 0)
    addr = g.add_node(NodeKind.CONST, value=0, block=then_b)
    load = g.add_node(NodeKind.LOAD, volatile=True, block=then_b)
    g.add_edge(load, addr, EdgeKind.DATAFLOW, 0)
    jmp = g.add_node(NodeKind.JMP, block=then_b)
    tail = g.add_node(NodeKind.BLOCK)
    g.add_edge(tail, jmp, EdgeKind.CONTROLFLOW, 0)
    g.add_edge(tail, cond, EdgeKind.FALSE, 1)
    two = g.add_node(NodeKind.CONST, value=2, block=tail)
    add = g.add_node(NodeKind.ADD, block=tail)
    g.add_edge(add, load, EdgeKind.DATAFLOW, 0)
    g.add_edge(add, two, EdgeKind.DATAFLOW, 1)
    finish_return(g, tail, add)
    src = tmp_path / "in.json"
    save(g, src)
    assert main(["verify", str(src)]) == 0
    capsys.readouterr()
    assert main(["fold", str(src), "-o", str(tmp_path / "o.json")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: after optimize"
    assert [line.split("\t")[0] for line in err[1:]] == ["V2", "V3"]


@pytest.mark.parametrize("command", ["fold", "run"])
@pytest.mark.parametrize("rounds", ["0", "-1"])
def test_round_limit_below_one_is_a_usage_error(tmp_path, capsys, command, rounds):
    src = _gen(tmp_path)
    out = tmp_path / "o.json"
    passes = ["--passes", "fold"] if command == "run" else []
    assert main([command, *passes, str(src), "-o", str(out), "--max-rounds", rounds]) == 2
    assert capsys.readouterr().err == f"error: --max-rounds must be at least 1, got {rounds}\n"
    assert not out.exists()


def test_run_pipeline_lowers_everything(tmp_path):
    src = _gen(tmp_path, "g.json", "--inputs", "0")
    out = tmp_path / "tr.json"
    assert main(["run", "--passes", "fold,isel", str(src), "-o", str(out)]) == 0
    lowered = load(out)
    anchors = {NodeKind.BLOCK, NodeKind.START, NodeKind.END}
    assert all(
        node.kind in TARGET_KINDS or node.kind in anchors
        for _nid, node in lowered.items()
    )


def test_run_rejects_unknown_passes(tmp_path, capsys):
    src = _gen(tmp_path)
    assert main(["run", "--passes", "fold,magic", str(src), "-o", str(tmp_path / "o.json")]) == 2
    assert "--passes" in capsys.readouterr().err
    assert main(["run", "--passes", ",", str(src), "-o", str(tmp_path / "o.json")]) == 2


def test_verify_reports_findings_with_exit_1(tmp_path, capsys):
    src = _gen(tmp_path)
    data = json.loads(src.read_text())
    data["start"] = None
    src.write_text(json.dumps(data))
    assert main(["verify", str(src)]) == 1
    assert "V9" in capsys.readouterr().out


def test_exec_prints_the_value(tmp_path, capsys):
    src = _gen(tmp_path, "g.json", "--inputs", "0", "--loops", "0")
    assert main(["exec", str(src)]) == 0
    out = capsys.readouterr().out.strip()
    int(out)  # a plain integer


def test_exec_inputs_flag(tmp_path, capsys):
    g, names = build_div_graph()
    src = tmp_path / "div.json"
    save(g, src)
    ok = main(["exec", str(src), "--inputs", f"{names['x']}=-7,{names['d']}=2"])
    assert ok == 0
    assert capsys.readouterr().out.strip() == "-3"


def test_exec_reports_traps(tmp_path, capsys):
    g, names = build_div_graph(divisor_const=0)
    src = tmp_path / "div0.json"
    save(g, src)
    assert main(["exec", str(src), "--inputs", f"{names['x']}=1"]) == 0
    assert capsys.readouterr().out.strip() == "trap: divide-by-zero"


def test_exec_step_budget(tmp_path, capsys):
    src = _gen(tmp_path, "g.json", "--inputs", "0")
    assert main(["exec", str(src), "--max-steps", "1"]) == 0
    assert capsys.readouterr().out.strip() == "trap: step-limit"


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_exec_step_budget_below_one_is_a_usage_error(tmp_path, capsys, steps):
    g, names = build_div_graph()
    src = tmp_path / "div.json"
    save(g, src)
    inputs = f"{names['x']}=1,{names['d']}=2"
    assert main(["exec", str(src), "--inputs", inputs, "--max-steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --max-steps must be at least 1, got {steps}\n"


def test_exec_verifies_first(tmp_path, capsys):
    g, entry, _ = func_graph()
    c = g.add_node(NodeKind.CONST, value=1, block=entry)
    add = g.add_node(NodeKind.ADD, block=entry)
    g.add_edge(add, c, EdgeKind.DATAFLOW, 0)
    finish_return(g, entry, add)
    src = tmp_path / "one_operand_add.json"
    save(g, src)
    assert main(["exec", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: before exec\n")
    assert f"V3\t[{add}]\tAdd node {add} has 1 operands, expected 2" in captured.err
    assert "Traceback" not in captured.err


def test_exec_rejects_malformed_inputs(tmp_path, capsys):
    src = _gen(tmp_path)
    assert main(["exec", str(src), "--inputs", "1=two"]) == 2
    assert "id=value" in capsys.readouterr().err


def test_exec_rejects_a_repeated_input_id(tmp_path, capsys):
    g, names = build_div_graph()
    src = tmp_path / "div.json"
    save(g, src)
    x, d = names["x"], names["d"]
    assert main(["exec", str(src), "--inputs", f"{x}=1,{d}=2,{x}=9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --inputs names node {x} twice\n"


def test_exec_rejects_out_of_range_inputs(tmp_path, capsys):
    g, names = build_div_graph()
    src = tmp_path / "div.json"
    save(g, src)
    for value in (2**40, 2**31, -(2**31) - 1):
        assert main(["exec", str(src), "--inputs", f"{names['x']}={value},{names['d']}=1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: input {value} for node {names['x']} is not a 32-bit")
        assert "Traceback" not in err


def test_exec_rejects_inputs_that_name_no_volatile_load(tmp_path, capsys):
    g, names = build_div_graph(divisor_const=3)
    src = tmp_path / "div.json"
    save(g, src)
    for bad in (999, names["div"], names["d"]):
        assert main(["exec", str(src), "--inputs", f"{names['x']}=6,{bad}=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --inputs names node {bad}, which is not a volatile Load\n"
    src = _gen(tmp_path, "none.json", "--inputs", "0")
    assert main(["exec", str(src), "--inputs", "999=5"]) == 2
    assert "node 999" in capsys.readouterr().err


def test_exec_takes_inputs_for_a_volatile_target_load(tmp_path, capsys):
    g, names = build_diamond(cond_const=None)
    run_instruction_selection(g)
    load_id = names["cond_src"]
    assert g.node(load_id).kind is NodeKind.TARGET_LOAD
    src = tmp_path / "tr.json"
    save(g, src)
    assert main(["exec", str(src), "--inputs", f"{load_id}=1"]) == 0
    assert capsys.readouterr().out.strip() == "10"
    assert main(["exec", str(src), "--inputs", f"{load_id}=0,{names['ret']}=0"]) == 2
    assert f"node {names['ret']}," in capsys.readouterr().err


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["fold", str(bad), "-o", str(tmp_path / "o.json")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content,fragment",
    [
        (b'{"nodes": [], "edges": [], "start": null, "end": "\xff"}', "invalid UTF-8"),
        (b"[" * 200_000, "invalid JSON"),
        (b'{"nodes": [{"id": ' + b"7" * 5000 + b"}]}", "invalid JSON"),
    ],
    ids=["not-utf8", "nested-too-deep", "overlong-integer"],
)
def test_malformed_file_is_exit_2_without_traceback(tmp_path, capsys, content, fragment):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}")
    assert "Traceback" not in err


def test_isel_on_lowered_graph_is_exit_3(tmp_path, capsys):
    g, _ = build_diamond(cond_const=None)
    run_instruction_selection(g)
    src = tmp_path / "tr.json"
    save(g, src)
    assert main(["isel", str(src), "-o", str(tmp_path / "o.json")]) == 3
    assert "IR-only" in capsys.readouterr().err


def test_gen_with_no_values_writes_a_graph(tmp_path, capsys):
    path = tmp_path / "x.json"
    args = ["--blocks", "30", "--ops-per-block", "0", "--inputs", "0", "--loops", "0"]
    assert main(["gen", "--seed", "10040", *args, "-o", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def _main_in_process(argv):
    """(exit code, stderr) of main(argv), with its output captured."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


# Kinds that carry no attribute, so a node retyped among them still loads.
_PLAIN_KINDS = (
    "Add", "Sub", "Mul", "Div", "Mod", "And", "Or", "Xor", "Shl", "Shr", "Not",
    "Phi", "Jmp", "Cond", "Return",
)


def _rewire(payload, data):
    """A mutation that keeps the file loadable: drop, retarget or renumber
    an edge, retype a node among _PLAIN_KINDS, or set a Const's value."""
    nodes, edges = payload["nodes"], payload["edges"]
    op = data.draw(st.sampled_from(("drop", "retarget", "reposition", "retype", "revalue")))
    if op == "retype":
        plain = [n for n in nodes if n["kind"] in _PLAIN_KINDS]
        if plain:
            data.draw(st.sampled_from(plain))["kind"] = data.draw(st.sampled_from(_PLAIN_KINDS))
    elif op == "revalue":
        consts = [n for n in nodes if n["kind"] == "Const"]
        if consts:
            value = data.draw(st.sampled_from((-(2**31), -1, 0, 1, 2**31 - 1)))
            data.draw(st.sampled_from(consts))["value"] = value
    elif edges:
        i = data.draw(st.integers(0, len(edges) - 1))
        if op == "drop":
            del edges[i]
        elif op == "retarget":
            edges[i]["dst"] = data.draw(st.sampled_from([n["id"] for n in nodes]))
        else:
            edges[i]["position"] = data.draw(st.integers(0, 2))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_commands_on_mutated_payloads_keep_the_exit_code_contract(tmp_path_factory, data):
    """verify, fold, run and exec on a mutated graph file exit 0, 1, 2 or 3,
    with no traceback. An exception main lets out fails the test."""
    seed = data.draw(st.integers(0, 40))
    spec = GenSpec(blocks=5, ops_per_block=2, const_ratio=0.3, loop_count=1, input_count=2)
    payload = to_payload(generate(seed, spec))
    loads = [n["id"] for n in payload["nodes"] if n["kind"] == "Load"]
    for _ in range(data.draw(st.integers(0, 3))):
        _rewire(payload, data)
    # A schema-level mutation last, since _rewire needs a well-formed file.
    if data.draw(st.booleans()):
        mutate_payload(payload, data)
    work = tmp_path_factory.mktemp("fuzz")
    src, out = work / "in.json", work / "out.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    inputs = ",".join(f"{nid}={data.draw(st.integers(-(2**31), 2**31 - 1))}" for nid in loads)
    for argv in (
        ["verify", str(src)],
        ["fold", str(src), "-o", str(out)],
        ["run", "--passes", "fold,isel", str(src), "-o", str(out)],
        ["exec", str(src), "--inputs", inputs, "--max-steps", "5000"],
    ):
        code, err = _main_in_process(argv)
        assert code in (0, 1, 2, 3), (argv[0], code, err)
        assert "Traceback" not in err, (argv[0], err)


def test_run_can_write_to_the_null_device(tmp_path):
    src = _gen(tmp_path)
    code, err = _main_in_process(["run", "--passes", "fold,isel", str(src), "-o", os.devnull])
    assert code == 0, err


# Odd parts of exec's arguments: negative, huge and non-numeric ids and
# values, repeated keys, empty pairs and pairs with no "=".
_NUMBERS = st.one_of(
    st.integers(-(2**31), 2**31 - 1),
    st.integers(-(10**30), 10**30),
    st.sampled_from((2**31, -(2**31) - 1)),
)
_WORDS = st.text(alphabet="0123456789-+=_ xa.,", max_size=5)


@st.composite
def _inputs_texts(draw, loads):
    """A value for every Load, then up to three edits: a value or a whole
    pair replaced by an odd one, an odd pair added, or a pair repeated."""
    ids = st.one_of(st.sampled_from(loads).map(str), _NUMBERS.map(str), _WORDS)
    values = st.one_of(_NUMBERS.map(str), _WORDS)
    odd = st.one_of(st.tuples(ids, values).map("=".join), st.just(""), ids, st.just("="))
    pairs = [f"{nid}={draw(st.integers(-(2**31), 2**31 - 1))}" for nid in loads]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("value", "replace", "add", "repeat")))
        if edit == "add" or not pairs:
            pairs.insert(draw(st.integers(0, len(pairs))), draw(odd))
        elif edit == "value":
            i = draw(st.integers(0, len(pairs) - 1))
            pairs[i] = pairs[i].partition("=")[0] + "=" + draw(values)
        elif edit == "replace":
            pairs[draw(st.integers(0, len(pairs) - 1))] = draw(odd)
        else:
            pairs.append(draw(st.sampled_from(pairs)))
    return ",".join(pairs)


_MAX_STEPS = st.one_of(
    st.integers(-5, 5).map(str),
    st.integers(10**9, 10**30).map(str),
    st.integers(-(10**30), -1).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(str),
    _WORDS,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_exec_arguments_keep_the_exit_code_contract(tmp_path_factory, data):
    """exec with generated --inputs and --max-steps texts exits 0, 1, 2 or 3
    with no exception let out, and every failing exit prints an error line."""
    seed = data.draw(st.integers(0, 5))
    work = tmp_path_factory.mktemp("exec_args")
    path = work / "g.json"
    spec = GenSpec(blocks=6, ops_per_block=2, const_ratio=0.3, loop_count=1, input_count=2)
    g = generate(seed, spec)
    save(g, path)
    loads = sorted(nid for nid, node in g.items() if node.kind is NodeKind.LOAD and node.volatile)
    argv = ["exec", str(path)]
    if data.draw(st.booleans()):
        argv.append("--inputs=" + data.draw(_inputs_texts(loads)))
    if data.draw(st.booleans()):
        argv.append("--max-steps=" + data.draw(_MAX_STEPS))
    code, err = _main_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code != 0:
        assert any("error: " in line for line in err.splitlines()), (argv, err)


def _at_most(top, text):
    """Whether text, read as a number, is at most top; True if it is none."""
    try:
        return float(text) <= top
    except ValueError:
        return True


def _count(top):
    """An option's text: an integer from -3 to top, or a short word that
    reads as no number above top. Counts that size what gen or bench builds,
    or how often bench repeats it, stay at most top: a huge one is work and
    memory the command would really spend."""
    words = _WORDS.filter(lambda text: _at_most(top, text))
    return st.one_of(st.integers(0, top).map(str), st.integers(-3, top).map(str), words)


_ODD_NUMBERS = st.one_of(_NUMBERS.map(str), st.floats(allow_nan=True, allow_infinity=True).map(str))
_PASSES = st.lists(st.sampled_from(("fold", "isel", "", " fold", "isel ", "dce", "FOLD")), max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_gen_bench_and_pass_arguments_keep_the_exit_code_contract(tmp_path_factory, data):
    """gen's shape flags, bench's --sizes and --repeat, and --max-rounds and
    --passes on fold and run, with generated texts: every exit is 0, 1, 2 or
    3 with no exception let out, and every failing exit prints an error
    line. Outputs go to the null device, which keeps file-system writes out
    of the test's time."""
    command = data.draw(st.sampled_from(("gen", "bench", "fold", "run")))
    if command == "gen":
        argv = ["gen", "-o", os.devnull]
        for flag, values in (
            ("--seed", st.one_of(_NUMBERS.map(str), _WORDS)),
            ("--blocks", _count(40)),
            ("--ops-per-block", _count(8)),
            ("--const-ratio", st.one_of(st.floats(0, 1).map(str), _ODD_NUMBERS)),
            ("--loops", st.one_of(_count(12), _NUMBERS.map(str))),
            ("--inputs", _count(8)),
        ):
            if data.draw(st.booleans()):
                argv.append(f"{flag}={data.draw(values)}")
    elif command == "bench":
        sizes = data.draw(st.lists(_count(300), max_size=2))
        argv = ["bench", "--sizes=" + ",".join(sizes), "--repeat=" + data.draw(_count(2))]
        argv += ["-o", os.devnull]
    else:
        seed = data.draw(st.integers(0, 5))
        src = tmp_path_factory.getbasetemp() / f"cli_args_{seed}.json"
        if not src.exists():
            spec = GenSpec(blocks=8, ops_per_block=2, const_ratio=0.3, loop_count=2, input_count=2)
            save(generate(seed, spec), src)
        argv = [command, str(src), "-o", os.devnull]
        if command == "run":
            argv.append("--passes=" + ",".join(data.draw(_PASSES)))
        if data.draw(st.booleans()):
            argv.append("--max-rounds=" + data.draw(st.one_of(_count(4), _ODD_NUMBERS)))
    code, err = _main_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code != 0:
        assert any("error: " in line for line in err.splitlines()), (argv, err)


def test_gen_rejects_impossible_shapes(tmp_path, capsys):
    assert main(["gen", "--blocks", "1", "-o", str(tmp_path / "g.json")]) == 2
    assert "at least 2 blocks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sizes", ["inf", "1e400", "1,-inf", "nan", "two", ",", "-5", "0", "1e-3", "200,0"]
)
def test_bench_rejects_bad_sizes(tmp_path, capsys, sizes):
    out = tmp_path / "b.csv"
    assert main(["bench", f"--sizes={sizes}", "--repeat", "1", "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_bench_rejects_a_repeat_below_one(tmp_path, capsys, repeat):
    out = tmp_path / "b.csv"
    assert main(["bench", "--sizes", "200", "--repeat", repeat, "-o", str(out)]) == 2
    assert "--repeat must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "200,400", "--repeat", "1", "-o", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "size,fold_ms,isel_ms,nodes_out"
    assert len(lines) == 3
    for line in lines[1:]:
        size, fold_ms, isel_ms, nodes_out = line.split(",")
        assert int(size) in (200, 400)
        float(fold_ms), float(isel_ms)
        assert int(nodes_out) > 0


def test_bench_is_deterministic_in_shape(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bench", "--sizes", "200", "--repeat", "1", "-o", str(a)])
    main(["bench", "--sizes", "200", "--repeat", "1", "-o", str(b)])
    nodes_a = a.read_text().splitlines()[1].split(",")[3]
    nodes_b = b.read_text().splitlines()[1].split(",")[3]
    assert nodes_a == nodes_b


def test_console_script_round_trip(tmp_path):
    path = tmp_path / "g.json"
    subprocess.run(
        ["firmfold", "gen", "--seed", "2", "-o", str(path)],
        check=True,
        capture_output=True,
    )
    done = subprocess.run(
        ["firmfold", "verify", str(path)], capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "ok"
