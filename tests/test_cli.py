"""Command-line interface: subcommands, exit codes, JSON contract."""

import json

import numpy as np
import pytest

from ppmbqc.cli import main
from ppmbqc.fragments import builtin_fragment, hierarchy_fragment
from ppmbqc.pattern import fragment_to_json


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


@pytest.mark.parametrize("target", ["Z(pi/0)", "Z(abc)", "X()", "Z(1e400)"])
def test_malformed_target_angle_is_json_usage_error(capsys, target):
    code, out, _ = run_cli(capsys, "--json", "verify", "builtin:xhalf", "--target", target)
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
def test_meaningless_tolerance_is_json_usage_error(capsys, tol):
    code, out, _ = run_cli(capsys, "--json", "verify", "builtin:xhalf", "--tol", tol)
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


def test_verify_sampled_branches_flag(capsys):
    code, out, _ = run_cli(
        capsys, "--json", "verify", "builtin:e_t", "--branches", "sample:3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "sample:3"


@pytest.mark.parametrize("count", ["0", "-3", "x"])
def test_verify_rejects_sample_counts_below_one(capsys, count):
    argv = ("verify", "builtin:e_t", "--branches", f"sample:{count}")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "error" in err
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert code == 2
    assert "error" in json.loads(out)


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
}

EXPECTED_MESSAGE = {
    "missing key": "fragment JSON lacks key",
    "wrong type": "key 'vertices' must be an integer",
    "not an object": "fragment JSON must be an object",
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_FRAGMENTS))
@pytest.mark.parametrize("command", ["verify", "depth"])
def test_malformed_fragment_json_is_a_usage_error(tmp_path, capsys, shape, command):
    path = tmp_path / "frag.json"
    path.write_text(json.dumps(MALFORMED_FRAGMENTS[shape]))
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
