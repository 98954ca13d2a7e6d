"""Command-line interface: subcommands, exit codes, JSON contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ppmbqc.cli import main
from ppmbqc.compiler import load_brick_table
from ppmbqc.fragments import builtin_fragment, hierarchy_fragment, xhalf_fragment
from ppmbqc.pattern import compose, fragment_to_dict, fragment_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_builtin_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "builtin:xhalf", "--target", "X(pi/2)")
    assert code == 0
    assert "PASS" in out


def test_verify_default_target_from_builtin(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "builtin:e_s")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["target"] == "S"
    assert payload["amplitude_runs"] == 1  # no choice of e_s reads an input error


def test_verify_mismatch_exits_one(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "builtin:xhalf", "--target", "T")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_every_builtin_name_resolves(capsys):
    for name in (
        "xhalf", "e_t", "e_tdg", "e_h", "e_s", "e_t_nomiddle",
        "cz_on", "cz_off", "brick", "hier_m1", "hier_m3",
    ):
        frag, label = builtin_fragment(name)
        assert frag.pattern.graph.vertex_count >= 2
        assert label


def test_usage_error_exits_two_with_text(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "usage" in err.lower() or "error" in err.lower()


def test_usage_error_with_json_is_valid_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify")
    assert code == 2
    payload = json.loads(out)
    assert "error" in payload


def test_unknown_builtin_is_json_error(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "builtin:nope")
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "target", ["Z(pi/0)", "Z(abc)", "X()", "Z(1e400)", "Z(pi/\u0662)", "Z(\u0661.5)"]
)
def test_malformed_target_angle_is_json_usage_error(capsys, target):
    code, out, _ = run_cli(capsys, "--json", "verify", "builtin:xhalf", "--target", target)
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0", "\u0661e-9"])
def test_meaningless_tolerance_is_json_usage_error(capsys, tol):
    code, out, _ = run_cli(capsys, "--json", "verify", "builtin:xhalf", "--tol", tol)
    assert code == 2
    assert "error" in json.loads(out)


def test_table_tolerance_is_read_in_ascii_only(capsys):
    # float() reads other scripts' digits; the table must not run on them.
    code, out, _ = run_cli(capsys, "--json", "table", "--tol", "\u0661e-9")
    assert code == 2
    assert "error" in json.loads(out)


def test_run_pattern_with_tape_and_branches(tmp_path, capsys):
    frag = hierarchy_fragment(1)
    # strip the input to make a closed pattern: measure everything instead
    from ppmbqc.boolfn import BoolFn
    from ppmbqc.pattern import (
        Correction,
        Measurement,
        MeasurementPattern,
        PatternFragment,
    )
    from ppmbqc.pgraph import PGraph

    g = PGraph(2, base_exponent=2).add_edges(0, 1, 1)
    p = PatternFragment(
        MeasurementPattern(g, {1: Measurement("a", BoolFn.one())}),
        (),
        (0,),
        {},
        {0: Correction(BoolFn.zero(), BoolFn.zero())},
    )
    path = tmp_path / "pattern.json"
    path.write_text(fragment_to_json(p))

    code, out, _ = run_cli(capsys, "--json", "run", str(path), "--tape", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcomes"] == {"a": 1}
    assert payload["probability"] == pytest.approx(0.5)

    # One bit per measurement, a tape never goes with --branches, and a
    # seed is never negative, for run or verify, sampled or exhaustive.
    run, verify = ("run", str(path)), ("verify", "builtin:e_t")
    for command, extra in (
        (run, ("--tape", "0111")),
        (run, ("--branches", "all", "--tape", "1")),
        (run, ("--seed=-1",)),
        (run, ("--branches", "sample:2", "--seed=-1")),
        (verify, ("--seed=-1",)),
        (verify, ("--branches", "sample:2", "--seed=-1")),
    ):
        code, out, _ = run_cli(capsys, "--json", *command, *extra)
        assert code == 2
        error = json.loads(out)["error"]
        assert "--seed=-1" not in extra or error == "seed must be a non-negative integer, got -1"

    code, out, _ = run_cli(capsys, "--json", "run", str(path), "--branches", "all")
    assert code == 0
    payload = json.loads(out)
    assert payload["probability_total"] == pytest.approx(1.0)
    assert len(payload["traces"]) == 2

    code, out, _ = run_cli(
        capsys, "--json", "run", str(path), "--branches", "sample:3", "--seed", "7"
    )
    assert code == 0
    assert len(json.loads(out)["traces"]) == 3


def test_run_uses_the_fragments_outputs_and_corrections(tmp_path, capsys):
    # Outputs are declared out of vertex order and the corrections read the
    # outcome, so a run that re-wraps the bare pattern reports another frame
    # and another amplitude order.
    from ppmbqc.boolfn import BoolFn
    from ppmbqc.pattern import (
        Correction,
        Measurement,
        MeasurementPattern,
        PatternFragment,
    )
    from ppmbqc.pgraph import PGraph

    a = BoolFn.var("a")
    g = PGraph(3, base_exponent=2).add_edges(0, 1, 1).add_edges(1, 2, 2)
    frag = PatternFragment(
        MeasurementPattern(g, {0: Measurement("a", BoolFn.one())}),
        (),
        (2, 1),
        {},
        {1: Correction(a, BoolFn.zero()), 2: Correction(BoolFn.zero(), a)},
    )
    path = tmp_path / "pattern.json"
    path.write_text(fragment_to_json(frag))

    def run(*flags):
        argv = ("--json", "run", str(path), *flags, "--amplitudes")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return json.loads(out)

    branches = {t["outcomes"]["a"]: t for t in run("--branches", "all")["traces"]}
    assert branches[1]["frame"] == {"1": [1, 0], "2": [0, 1]}
    sampled = run("--branches", "sample:4")["traces"]
    for trace in (run("--tape", "0"), run("--tape", "1"), *sampled):
        expected = branches[trace["outcomes"]["a"]]
        assert trace["frame"] == expected["frame"]
        assert np.allclose(trace["amplitudes"], expected["amplitudes"], atol=1e-12)


def test_run_rejects_fragments_with_inputs(tmp_path, capsys):
    frag, _ = builtin_fragment("xhalf")
    path = tmp_path / "frag.json"
    path.write_text(fragment_to_json(frag))
    code, out, _ = run_cli(capsys, "--json", "run", str(path))
    assert code == 2
    assert "error" in json.loads(out)


def test_compile_and_depth(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_text("qubits 2\nH 0\nT 0\nCZ 0 1\n")
    out_json = tmp_path / "c.json"
    code, out, _ = run_cli(
        capsys, "--json", "compile", "--in", str(src), "--out", str(out_json)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bricks"] == 3 and payload["format"] == "json"

    code, out, _ = run_cli(capsys, "--json", "depth", str(out_json))
    assert code == 0
    assert json.loads(out)["feed_forward_depth"] == 2

    out_dot = tmp_path / "c.dot"
    code, _, _ = run_cli(capsys, "compile", "--in", str(src), "--out", str(out_dot))
    assert code == 0
    assert out_dot.read_text().startswith("graph pattern {")


def test_compiled_definitions_write_schema_two_and_read_back(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_text("qubits 2\nT 0\nH 0\nT 0\nCNOT 0 1\nT 1\nH 1\nTdg 1\n")
    out_json = tmp_path / "c.json"
    code, out, _ = run_cli(capsys, "--json", "compile", "--in", str(src), "--out", str(out_json))
    assert code == 0
    depth = json.loads(out)["feed_forward_depth"]
    data = json.loads(out_json.read_text())
    assert data["schema_version"] == 2 and data["frames"]
    code, out, _ = run_cli(capsys, "--json", "depth", str(out_json))
    assert code == 0 and json.loads(out)["feed_forward_depth"] == depth
    # A compiled pattern has input wires, which `run` refuses as before.
    code, out, _ = run_cli(capsys, "--json", "run", str(out_json))
    assert code == 2 and "input wires" in json.loads(out)["error"]

    # A closed pattern with definitions runs, branch by branch as its flat form.
    from ppmbqc.boolfn import BoolFn
    from ppmbqc.pattern import (
        Correction,
        Measurement,
        MeasurementPattern,
        PatternFragment,
        flatten,
    )
    from ppmbqc.pgraph import PGraph

    g = PGraph(2, base_exponent=2).add_edges(0, 1, 1)
    source = PatternFragment(
        MeasurementPattern(g, {1: Measurement("a", BoolFn.one())}),
        (),
        (0,),
        {},
        {0: Correction(BoolFn.var("a"), BoolFn.zero())},
    )
    framed = compose(source, xhalf_fragment(), {0: 0})
    payloads = []
    for frag, version in ((framed, 2), (flatten(framed), 1)):
        path = tmp_path / f"closed{version}.json"
        path.write_text(fragment_to_json(frag))
        assert json.loads(path.read_text())["schema_version"] == version
        code, out, _ = run_cli(capsys, "--json", "run", str(path), "--branches", "all")
        assert code == 0
        payloads.append(json.loads(out))
        code, out, _ = run_cli(capsys, "--json", "run", str(path), "--tape", "10")
        assert code == 0
    assert payloads[0] == payloads[1]

    # A builtin's schema 1 JSON still reads.
    path = tmp_path / "xhalf.json"
    path.write_text(fragment_to_json(xhalf_fragment()))
    code, out, _ = run_cli(capsys, "--json", "depth", str(path))
    assert code == 0 and json.loads(out)["feed_forward_depth"] == 1


def test_verify_file_fragment_requires_target(tmp_path, capsys):
    frag, _ = builtin_fragment("xhalf")
    path = tmp_path / "frag.json"
    path.write_text(fragment_to_json(frag))
    code, out, _ = run_cli(capsys, "--json", "verify", str(path))
    assert code == 2
    code, out, _ = run_cli(
        capsys, "--json", "verify", str(path), "--target", "X(pi/2)"
    )
    assert code == 0


def test_verify_names_a_mismatched_product_in_the_target(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_text("qubits 2\nH 0\nT 1\n")
    path = tmp_path / "c.json"
    assert run_cli(capsys, "compile", "--in", str(src), "--out", str(path))[0] == 0
    message = "'H*TxI' multiplies a (2, 2) by a (4, 4) matrix"
    code, _, err = run_cli(capsys, "verify", str(path), "--target", "H*TxI")
    assert code == 2 and message in err
    code, out, _ = run_cli(capsys, "--json", "verify", str(path), "--target", "H*TxI")
    assert code == 2 and message in json.loads(out)["error"]


def test_verify_sampled_branches_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "verify", "builtin:e_t", "--branches", "sample:3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "sample:3"
    assert payload["amplitude_runs"] == 4 * 3  # seeded runs: samples x error combinations


@pytest.mark.parametrize("count", ["0", "-3", "x", "\u0662"])
def test_verify_rejects_sample_counts_below_one(capsys, count):
    argv = ("verify", "builtin:e_t", "--branches", f"sample:{count}")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "error" in err
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [("verify", "builtin:hier_m\u0663"), ("verify", "builtin:e_t", "--seed", "\u0663")],
    ids=["builtin", "seed"],
)
def test_only_ascii_digits_are_read_as_numbers(capsys, argv):
    # Python's int(), float() and \d read other scripts' digits too; so do
    # the target angles and sample counts above.
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "error" in err
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("seed, same", [("0xC0FFEE", None), ("12_345", "12345")])
def test_seeds_keep_pythons_integer_syntax(capsys, seed, same):
    argv = ("--json", "verify", "builtin:e_t", "--branches", "sample:2")
    code, out, _ = run_cli(capsys, *argv, "--seed", seed)
    assert code == 0
    _, want, _ = run_cli(capsys, *argv, *(() if same is None else ("--seed", same)))
    assert json.loads(out) == json.loads(want)


def test_run_rejects_tape_characters_other_than_bits(tmp_path, capsys):
    from ppmbqc.boolfn import BoolFn
    from ppmbqc.pattern import (
        Correction,
        Measurement,
        MeasurementPattern,
        PatternFragment,
    )
    from ppmbqc.pgraph import PGraph

    g = PGraph(2, base_exponent=2).add_edges(0, 1, 1)
    pattern = PatternFragment(
        MeasurementPattern(g, {1: Measurement("a", BoolFn.one())}),
        (),
        (0,),
        {},
        {0: Correction(BoolFn.zero(), BoolFn.zero())},
    )
    path = tmp_path / "pattern.json"
    path.write_text(fragment_to_json(pattern))
    assert run_cli(capsys, "run", str(path), "--tape", "1")[0] == 0
    code, _, err = run_cli(capsys, "run", str(path), "--tape", "01x1")
    assert code == 2 and "01x1" in err
    code, out, _ = run_cli(capsys, "--json", "run", str(path), "--tape", "01x1")
    assert code == 2
    assert "01x1" in json.loads(out)["error"]


MALFORMED_FRAGMENTS = {
    "missing key": {"schema_version": 1, "vertices": 2},
    "wrong type": {
        "schema_version": 1,
        "vertices": "2",
        "base_exponent": 2,
        "edges": [],
    },
    "not an object": [1, 2],
    "boolean version": {"schema_version": True, "vertices": 2, "base_exponent": 2, "edges": []},
}


def _two_halves(**changes) -> dict:
    """Schema 2 JSON of two wired half X-turns, with some keys changed.

    Its frames are g2.z := a ^ z and g2.x := 1 ^ a ^ x ^ z, and the output
    correction of vertex 2 reads them.
    """
    data = fragment_to_dict(compose(xhalf_fragment(), xhalf_fragment(), {1: 0}))
    return dict(data, **changes)


_Z2, _X2 = _two_halves()["frames"]
MALFORMED_FRAGMENTS.update({
    "v2 without frames": {k: v for k, v in _two_halves().items() if k != "frames"},
    "v2 frames not a list": _two_halves(frames={"g2.z": [["a"]]}),
    "v2 frames entry not a pair": _two_halves(frames=[_Z2, ["g2.x"]]),
    "v2 definition name not a string": _two_halves(frames=[_Z2, [7, _X2[1]]]),
    "v2 definition anf not a list": _two_halves(frames=[_Z2, ["g2.x", "a"]]),
    "v2 definition reused": _two_halves(frames=[_Z2, _X2, _Z2]),
    "v2 definition is an outcome": _two_halves(frames=[_Z2, _X2, ["g2.a", []]]),
    "v2 definition is an error variable": _two_halves(frames=[_Z2, _X2, ["x", []]]),
    "v2 definition reads a later one": _two_halves(frames=[["g2.z", [["g2.x"]]], _X2]),
    "v2 definition reads itself": _two_halves(frames=[_Z2, ["g2.x", [["g2.x"]]]]),
    "v2 definition reads an unknown name": _two_halves(frames=[_Z2, ["g2.x", [["q"]]]]),
    "v2 choice reads an unknown name": _two_halves(
        measurements={"0": {"var": "a", "anf": []}, "1": {"var": "g2.a", "anf": [["q"]]}}
    ),
    "v2 correction reads an unknown name": _two_halves(
        corrections={"2": {"zeta": [["g2.z"]], "xi": [["g3.x"]]}}
    ),
    "nested too deeply": "[" * 100_000 + "]" * 100_000,  # JSON text, written as it is
})

EXPECTED_MESSAGE = {
    "missing key": "fragment JSON lacks key",
    "wrong type": "key 'vertices' must be an integer",
    "not an object": "fragment JSON must be an object",
    "boolean version": "unsupported schema_version True",
    "v2 without frames": "fragment JSON lacks key 'frames'",
    "v2 frames not a list": "key 'frames' must be a list",
    "v2 frames entry not a pair": "a frames entry must be a [name, anf] pair",
    "v2 definition name not a string": "definition name must be a string",
    "v2 definition anf not a list": "definition 'g2.x' must be a list",
    "v2 definition reused": "definition 'g2.z' is not fresh",
    "v2 definition is an outcome": "definition 'g2.a' is not fresh",
    "v2 definition is an error variable": "definition 'x' is not fresh",
    "v2 definition reads a later one": "definition 'g2.z' reads 'g2.x'",
    "v2 definition reads itself": "definition 'g2.x' reads 'g2.x'",
    "v2 definition reads an unknown name": "definition 'g2.x' reads 'q'",
    "v2 choice reads an unknown name": "vertex 1 choice references unknown variable 'q'",
    "v2 correction reads an unknown name": "correction on vertex 2 references unknown 'g3.x'",
    "nested too deeply": "fragment JSON is nested too deeply",
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_FRAGMENTS))
@pytest.mark.parametrize("command", ["verify", "depth"])
def test_malformed_fragment_json_is_a_usage_error(tmp_path, capsys, shape, command):
    path = tmp_path / "frag.json"
    data = MALFORMED_FRAGMENTS[shape]
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    extra = ("--target", "I") if command == "verify" else ()
    code, _, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2 and err.startswith("error:")
    code, out, _ = run_cli(capsys, "--json", command, str(path), *extra)
    assert code == 2
    assert json.loads(out)["error"].startswith(EXPECTED_MESSAGE[shape])


def test_base_exponent_past_float_range_is_a_json_usage_error(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "vertices": 2,
        "base_exponent": 2000,
        "edges": [{"u": 0, "v": 1, "mult": 1}],
        "measurements": {"1": {"var": "a", "anf": [[]]}},
        "outputs": [0],
        "corrections": {"0": {"zeta": [], "xi": []}},
    }
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "--json", "run", str(path))
    assert code == 2
    assert "base_exponent" in json.loads(out)["error"]
    path.write_text(json.dumps(dict(data, base_exponent=1023)))
    assert run_cli(capsys, "--json", "run", str(path))[0] == 0


def test_multiplicity_past_float_range_runs(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "vertices": 2,
        "base_exponent": 1023,
        "edges": [{"u": 0, "v": 1, "mult": 2**1024 - 1}],
        "measurements": {"1": {"var": "a", "anf": [[]]}},
        "outputs": [0],
        "corrections": {"0": {"zeta": [], "xi": []}},
    }
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "--json", "run", str(path))
    assert code == 0
    payload = json.loads(out)
    assert set(payload["outcomes"]) == {"a"}
    assert payload["probability"] == pytest.approx(0.5)


def test_table_command_reproduces_the_shipped_table(tmp_path, capsys):
    # One full derivation (about 1.5 s): catches a shipped table gone stale.
    out = tmp_path / "table.json"
    code, stdout, _ = run_cli(capsys, "--json", "table", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["entries"] == 18
    derived = json.loads(out.read_text())["entries"]
    shipped = load_brick_table()["entries"]
    assert len(derived) == len(shipped)
    for got, want in zip(derived, shipped):
        assert got.keys() == want.keys()
        assert got["worst_infidelity"] == pytest.approx(want["worst_infidelity"], rel=0, abs=1e-12)
        for key in want.keys() - {"worst_infidelity"}:
            assert got[key] == want[key], key


def module_env(**extra) -> dict[str, str]:
    """The environment for ``python -m ppmbqc`` with this checkout's ``src`` first."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


def test_module_entry_point_keeps_the_exit_codes():
    env = module_env()

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "ppmbqc", *argv], capture_output=True, text=True, env=env
        )

    helped = run("--help")
    assert helped.returncode == 0 and "depth" in helped.stdout
    missing = run("--json", "depth", "/nonexistent")
    assert missing.returncode == 2
    assert "error" in json.loads(missing.stdout)


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [("--json",), ()], ids=["json", "plain"])
def test_a_closed_stdout_exits_two_without_a_traceback(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is written
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ppmbqc", *argv, "verify", "builtin:xhalf"],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=module_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
