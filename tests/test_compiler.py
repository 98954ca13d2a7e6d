"""Circuit parsing, brick compilation, layout, exports."""

import hashlib
import json
import re

import numpy as np
import pytest

from ppmbqc import compiler
from ppmbqc.boolfn import BoolFn
from ppmbqc.cli import main
from ppmbqc.compiler import (
    BrickLayer,
    Circuit,
    circuit_unitary,
    compile_circuit,
    compile_to_bricks,
    export,
    layers_unitary,
    layout_brickwork,
    parse_circuit,
)
from ppmbqc.errors import CircuitParseError, StructuralError
from ppmbqc.executor import OutcomeSource, feed_forward_depth, measurement_order, run_fragment
from ppmbqc.fragments import BRICK_INPUTS, BRICK_OUTPUTS, BrickSettings, brick
from ppmbqc.pattern import (
    Correction,
    compose,
    flatten,
    fragment_from_json,
    fragment_to_json,
)
from ppmbqc.statevec import from_amplitudes
from ppmbqc.unitaries import pauli_product, phase_matched
from ppmbqc.verifier import verify_fragment, with_corrections

RNG = np.random.default_rng(0xA11CE)


def test_parse_basic_circuit():
    c = parse_circuit("qubits 2\nH 0\nT 1\nCZ 0 1")
    assert c.qubit_count == 2
    assert c.gates == (("H", (0,)), ("T", (1,)), ("CZ", (0, 1)))


def test_parse_reports_line_numbers():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("FOO 0")
    assert err.value.line == 1
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("qubits 2\nH 0\nFOO 1")
    assert err.value.line == 3


def test_parse_rejects_bad_operands():
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits 2\nCZ 0 0")
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits 2\nH 5")
    with pytest.raises(CircuitParseError):
        parse_circuit("qubits 2\nCZ 0")


def test_parse_rejects_non_ascii_digit_qubit_count():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("qubits ²\nH 0")
    assert err.value.line == 1
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("qubits 2\nH ²")
    assert err.value.line == 2


def test_parse_comments_and_blank_lines():
    c = parse_circuit("# intro\nqubits 1\n\nH 0  # flip basis\n")
    assert c.gates == (("H", (0,)),)


def test_single_t_compiles_to_one_layer():
    layers = compile_to_bricks(parse_circuit("qubits 2\nT 0"))
    assert layers == [BrickLayer(0, BrickSettings("T", "PAD", 0))]


def test_t_on_right_lane_uses_conjugation():
    layers = compile_to_bricks(parse_circuit("qubits 2\nT 1"))
    assert [l.settings.right for l in layers] == ["H", "HTH", "H"]
    assert all(l.settings.left == "PAD" for l in layers)


def test_sdg_is_three_s_bricks():
    layers = compile_to_bricks(parse_circuit("qubits 2\nSdg 0"))
    assert [l.settings.left for l in layers] == ["S", "S", "S"]


def test_cnot_realizes_h_conjugated_cz():
    layers = compile_to_bricks(parse_circuit("qubits 2\nCNOT 0 1"))
    kinds = [(l.settings.left, l.settings.right, l.settings.cz) for l in layers]
    assert kinds == [
        ("PAD", "H", 0),
        ("PAD", "PAD", 1),
        ("PAD", "H", 0),
    ]
    U = layers_unitary(layers, 2)
    assert phase_matched(U, circuit_unitary(parse_circuit("qubits 2\nCNOT 0 1")))


def test_non_adjacent_entangler_rejected():
    with pytest.raises(StructuralError):
        compile_to_bricks(parse_circuit("qubits 3\nCZ 0 2"))


def test_label_product_oracle_matches_circuit_unitary():
    # The compiled layer list, multiplied out from the certified labels,
    # equals the circuit unitary: a matrix oracle independent of any
    # statevector simulation.
    gates = ["H", "S", "Sdg", "T", "Tdg"]
    for seed in range(10):
        rng = np.random.default_rng(seed)
        lines = ["qubits 2"]
        for _ in range(int(rng.integers(1, 7))):
            if rng.random() < 0.3:
                pair = ["CZ 0 1", "CNOT 0 1", "CNOT 1 0"][int(rng.integers(3))]
                lines.append(pair)
            else:
                lines.append(f"{gates[int(rng.integers(5))]} {int(rng.integers(2))}")
        c = parse_circuit("\n".join(lines))
        layers = compile_to_bricks(c)
        assert phase_matched(layers_unitary(layers, 2), circuit_unitary(c)), lines


def test_layout_single_layer_is_one_brick():
    frag = layout_brickwork([BrickLayer(0, BrickSettings("H", "PAD", 0))])
    assert frag.pattern.graph.vertex_count == 16
    assert len(frag.inputs) == 2 and len(frag.outputs) == 2


def test_two_stacked_layers_tile_without_collisions():
    layers = [
        BrickLayer(0, BrickSettings("H", "PAD", 0)),
        BrickLayer(0, BrickSettings("PAD", "H", 0)),
    ]
    frag = layout_brickwork(layers)
    assert frag.pattern.graph.vertex_count == 30  # 16 + 14 after merging


def _random_circuit(rng, qubits: int, gates: int) -> Circuit:
    """Seeded Clifford+T circuit; about 30 % of the gates entangle adjacent lanes."""
    lines = [f"qubits {qubits}"]
    for _ in range(gates):
        if qubits > 1 and rng.random() < 0.3:
            q = int(rng.integers(qubits - 1))
            a, b = (q, q + 1) if rng.random() < 0.5 else (q + 1, q)
            lines.append(f"{('CZ', 'CNOT')[int(rng.integers(2))]} {a} {b}")
        else:
            gate = ("H", "S", "Sdg", "T", "Tdg")[int(rng.integers(5))]
            lines.append(f"{gate} {int(rng.integers(qubits))}")
    return parse_circuit("\n".join(lines))


def _composed_layout(layers):
    """Reference layout: one ``compose`` per brick, then lane-ordered wires."""
    frag, starts, ends = None, {}, {}
    for layer in layers:
        piece = brick(layer.settings)
        lanes = (layer.pair, layer.pair + 1)
        wiring = {ends[w]: i for w, i in zip(lanes, BRICK_INPUTS) if w in ends}
        # compose keeps wired inputs on their outputs and numbers the rest on
        n = frag.pattern.graph.vertex_count if frag else 0
        wired = {i: o for o, i in wiring.items()}
        fresh = iter(range(n, n + 16))
        relabel = {v: wired[v] if v in wired else next(fresh) for v in range(16)}
        frag = compose(frag, piece, wiring) if frag else piece
        for w, i, o in zip(lanes, BRICK_INPUTS, BRICK_OUTPUTS):
            starts.setdefault(w, relabel[i])
            ends[w] = relabel[o]
    inputs = tuple(starts[w] for w in sorted(starts))
    outputs = tuple(ends[w] for w in sorted(ends))
    return frag.with_io_order(inputs, outputs)


def test_layout_matches_brick_by_brick_composition():
    for seed in range(12):
        rng = np.random.default_rng([0x1A7, seed])
        c = _random_circuit(rng, 1 + seed % 4, int(rng.integers(1, 9)))
        layers = compile_to_bricks(c)
        expected = fragment_to_json(_composed_layout(layers))
        assert fragment_to_json(layout_brickwork(layers)) == expected, c


# SHA-256 of fragment_to_json(compile_circuit(c)), recorded while wiring
# still substituted every upstream correction, for the seeded circuits of
# test_layout_matches_brick_by_brick_composition and of criterion 08.
FLAT_LAYOUT_PINS = [
    "829bcc648cf040792d32a45499395e6914ecabbcfbb59a678b3290967d4271fe",
    "9d346912992166f8954e40c258e0ca10390b41d1fe770a9690f76e10bdc5b306",
    "cbaa4df8fd521f7e75bf8a98d51e939eeb284a3c2a03ed22b351cd49ec2677d2",
    "6cf766c0942393349d42e5e2d9a6b09f9c91478c90f28a4225474b4e006b0428",
    "549f60ddfddb9facd2a870173244f55b411d8b35f284f14b8a35300a96117f46",
    "de72ed1c40cae36393a0baefae5441b1e8e882efdf5c7335c6c055e7e5bed917",
    "48433b447f43d851deecb4b0f49fdf041779b0cdb905e6a1e7841c42d4d9ea04",
    "31c4a3d5da1eb48d60276a8e837bc38f30441862f6903e290e85a0e6d2acf82d",
    "5a6216ed90495dea730beafc3e9e120bc4ddee5814e9d6a2c54b59f5af0cba53",
    "e8e710d72fedac2ce44e4ab04e8cbf18d7e1949458479f169a7340567ee55c5e",
    "d60af4de34033014a4337aa16eafcda9685a608b911259b6396843bb323457e1",
    "a5b0666699db94f19b0b136f5d24e5e96e2df89b3b8667c48fec43ddda30b0bc",
]
FLAT_CRITERION_08_PINS = [
    "924ec38f97b65bf65e99c5ac4dd2f5b6aff76dc4919894fbc0ee02e5b743f1dc",
    "e9a21826b718e148b84f3fb2043c0907ef76b03f933208b3d0993a2509769db5",
    "3e020a976abd9f809f6de4a3e9d877e07d9bd5ea4fc718236862ecd72f2ff18d",
    "f4bdf33e2a135c81e358d37d7c70f8398ce7028082aa64d28515b25c07ff4784",
    "78540a5ab50cf66124a7a8a4370f649de22c8190931bb49405ee27cb48d94b52",
    "026050eaee73055983ff6dced61027ba79277ed299d399e870e44852f521c230",
    "834f83b894323ca601853bc2abc72f0e2d7e9cd5e68163eee9f6b932329d1175",
    "203d29df93f09c305d325751b6f4cb2a739e06d7c19d9247baa7a2c3c2c6e6e2",
    "56680c43a4aa9ea41b8ab32f2eb06450e5c89a4b73bb4a2bb9f26821edf574b7",
    "7c0bbf0b668c9e0ee55d1b9bb8c8d80fc13f1af6ad1ed4f87c52589299406937",
    "4fb95c2ff3dbea1561b59486becc53657aa6df95401d1b9b8b1ab93611a748a4",
    "f0002b4b7218fe6508c5bdbb1ca703b1341869906976d8441eb46da4af49c697",
    "8b02f3fecdd5be6425fc8d58c0f3c2238e4c784753543744bbb09b36c7656a2a",
    "047cda1adc6fcf5395b47a87d396159b9fea80d0117420b25775f3b9d4a362b4",
    "37d89e80e312356d1816f4dd793c78e47a4fad858e6203c8f9fa2545fb659505",
    "23cbf18937c0d30fb3c88e0a39e9877587d1615ec878f19d3dcd8fb43229de46",
    "db0a754c976925a10629542040f6eef9d14c9f9d7b95b54f38079368f64f8664",
    "b042a69547a7abbe21b3aeca15f8803a2ec93aaab713f700f3392b429eafd785",
    "75232f0f3d65735b160f4cf8638c203cf8afcdd634f7c8a47a4286ec6194f6fd",
    "ddb2b673db86b7050be21c4defaefb8816b787cfb16cfb4c9ae256cae228bf28",
]


def _pinned_circuits():
    from test_acceptance import _random_circuit as criterion_08_circuit

    for seed, digest in enumerate(FLAT_LAYOUT_PINS):
        rng = np.random.default_rng([0x1A7, seed])
        yield _random_circuit(rng, 1 + seed % 4, int(rng.integers(1, 9))), digest
    for seed, digest in enumerate(FLAT_CRITERION_08_PINS):
        yield parse_circuit(criterion_08_circuit(1000 + seed)), digest


def test_flattened_compiles_match_the_substituting_compiler():
    for c, digest in _pinned_circuits():
        frag = compile_circuit(c)
        flat = flatten(frag)
        assert hashlib.sha256(fragment_to_json(flat).encode()).hexdigest() == digest, c
        assert measurement_order(frag) == measurement_order(flat), c
        assert feed_forward_depth(frag) == feed_forward_depth(flat), c


def _size(frag) -> int:
    fns = [m.choice for m in frag.pattern.measurements.values()]
    fns += [fn for c in frag.corrections.values() for fn in (c.zeta, c.xi)]
    return sum(len(fn.monomials) for fn in [*fns, *frag.frames.values()])


def test_definitions_grow_linearly_and_deep_patterns_run():
    circuits = [parse_circuit("qubits 1\n" + "T 0\nH 0\n" * n) for n in (100, 200)]
    short, frag = map(compile_circuit, circuits)
    assert _size(frag) <= 2.05 * _size(short)
    U = np.kron(circuit_unitary(circuits[1]), np.eye(2))
    rng = np.random.default_rng(0xD33B)
    psi = from_amplitudes(rng.normal(size=4) + 1j * rng.normal(size=4))
    errs = {frag.inputs[0]: (1, 0), frag.inputs[1]: (1, 1)}
    trace = run_fragment(frag, psi, errs, OutcomeSource.seeded(7))
    frame = [trace.frame[o] for o in frag.outputs]
    want = pauli_product(frame) @ U @ psi.amplitudes
    assert 1.0 - abs(np.vdot(want, trace.state.amplitudes)) ** 2 < 1e-9


def test_layout_builds_each_setting_once(monkeypatch):
    built = []

    def counting_brick(settings):
        built.append(settings)
        return brick(settings)

    monkeypatch.setattr(compiler, "brick", counting_brick)
    layers = compile_to_bricks(parse_circuit("qubits 2\nT 0\nH 1\nT 0\nCZ 0 1\nH 1"))
    layout_brickwork(layers)
    assert len(built) == len(set(built)) == len({layer.settings for layer in layers})
    assert len(built) < len(layers)


@pytest.mark.parametrize(
    "text, vertices",
    [
        ("qubits 3\nH 0\nCNOT 0 1\nT 2\nCZ 1 2\nTdg 1\nS 2", 143),
        ("qubits 4\nCZ 0 1\nCZ 2 3\nCZ 1 2", 46),
        # A lane no gate touches still gets its wire, through a PAD brick.
        ("qubits 3\nH 1\nCZ 1 2", 45),
        ("qubits 3\nT 0\nCZ 0 1", 45),
    ],
)
def test_multi_lane_circuits_certify(text, vertices):
    c = parse_circuit(text)
    frag = compile_circuit(c)
    assert frag.pattern.graph.vertex_count == vertices
    assert len(frag.inputs) == len(frag.outputs) == c.qubit_count
    rep = verify_fragment(
        frag, circuit_unitary(c), branches=("sample", 1), keep_branches=False
    )
    assert rep.passed, rep.worst_infidelity
    assert rep.branch_count == 4**c.qubit_count  # one sample per error combination
    assert rep.impossible_count == 0


def test_compiled_pipeline_certifies_composite():
    c = parse_circuit("qubits 2\nH 0\nT 0\nCZ 0 1")
    frag = compile_circuit(c)
    rep = verify_fragment(
        frag, circuit_unitary(c), branches=("sample", 4), keep_branches=False
    )
    assert rep.passed, rep.worst_infidelity
    assert rep.branch_count == 4**2 * 4
    assert rep.impossible_count == 0


def test_sampled_verify_sees_errors_on_the_second_input():
    # The second input is not vertex 1; a correction that reads its x error
    # where none belongs must fail.
    c = parse_circuit("qubits 2\nT 1\nCNOT 0 1\nH 1")
    frag = compile_circuit(c)
    x2 = BoolFn.var(frag.input_errors[frag.inputs[1]][1])
    wrong = with_corrections(
        frag, {o: Correction(cr.zeta, cr.xi ^ x2) for o, cr in frag.corrections.items()}
    )
    for f, ok in ((frag, True), (wrong, False)):
        rep = verify_fragment(
            f, circuit_unitary(c), branches=("sample", 1), keep_branches=False
        )
        assert rep.passed is ok, rep.worst_infidelity


def test_one_qubit_circuit_borrows_a_lane():
    c = parse_circuit("qubits 1\nH 0\nT 0")
    frag = compile_circuit(c)
    target = np.kron(circuit_unitary(c), np.eye(2, dtype=complex))
    rep = verify_fragment(frag, target, branches=("sample", 4), keep_branches=False)
    assert rep.passed


def test_depth_bounded_by_t_count():
    for text, tmax in [
        ("qubits 2\nH 0\nS 1\nCZ 0 1", 0),
        ("qubits 2\nT 0\nH 0\nT 0", 2),
        ("qubits 2\nT 1\nCNOT 0 1", 1),
    ]:
        c = parse_circuit(text)
        frag = compile_circuit(c)
        assert feed_forward_depth(frag) <= 1 + c.t_count()


def test_export_json_roundtrips_bit_exact():
    frag = compile_circuit(parse_circuit("qubits 2\nT 0\nCZ 0 1"))
    blob = export(frag, "json")
    again = fragment_from_json(blob.decode())
    assert again == frag
    assert export(again, "json") == blob


def test_export_dot_marks_multiplicities():
    frag = compile_circuit(parse_circuit("qubits 2\nH 0"))
    dot = export(frag, "dot").decode()
    assert 'label="x2"' in dot
    assert 'label="x1"' in dot  # the eighth-turn hair
    assert dot.startswith("graph pattern {")
    with pytest.raises(StructuralError):
        export(frag, "pdf")


def test_compilation_is_deterministic():
    text = "qubits 2\nH 0\nT 1\nCNOT 0 1\nSdg 1"
    c1, c2 = parse_circuit(text), parse_circuit(text)
    l1, l2 = compile_to_bricks(c1), compile_to_bricks(c2)
    assert l1 == l2
    assert export(layout_brickwork(l1), "json") == export(layout_brickwork(l2), "json")
    assert export(layout_brickwork(l1), "dot") == export(layout_brickwork(l2), "dot")


def test_circuit_validation():
    with pytest.raises(StructuralError):
        Circuit(0, ())
    with pytest.raises(StructuralError):
        Circuit(2, (("CZ", (1, 1)),))
    assert Circuit(2, (("T", (0,)), ("Tdg", (1,)))).t_count() == 2


def test_exported_json_has_schema_version_one():
    import json

    frag = compile_circuit(parse_circuit("qubits 2\nS 0"))
    payload = json.loads(export(frag, "json").decode())
    assert payload["schema_version"] == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits 2\nH +1\n", "line 2: operands must be integers"),
        ("qubits 2\nH 0_1\n", "line 2: operands must be integers"),
        ("qubits 2\nCNOT 0 +1\n", "line 2: operands must be integers"),
        ("qubits 2\nH \u0661\n", "line 2: operands must be integers"),
        ("qubits +2\nH 0\n", "line 1: usage: qubits N"),
        ("qubits 2_0\nH 0\n", "line 1: usage: qubits N"),
        ("qubits \u0662\nH 0\n", "line 1: usage: qubits N"),
        ("qubits 2\nH -1\n", "line 2: operand -1 out of range"),
    ],
    ids=["plus", "underscore", "plus-second", "arabic-indic", "plus-count",
         "underscore-count", "arabic-indic-count", "negative"],
)
def test_only_ascii_integers_are_read_as_numbers(text, message, tmp_path, capsys):
    with pytest.raises(CircuitParseError, match=re.escape(message)):
        parse_circuit(text)
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    out = str(tmp_path / "out.json")
    assert main(["--json", "compile", "--in", str(path), "--out", out]) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("qubits 2\nqubits 2\n", "line 2: duplicate qubits header"),
        ("# only a comment\n\n", "line 1: missing 'qubits N' header"),
    ],
    ids=["second-header", "no-header"],
)
def test_malformed_circuit_text_raises_and_exits_two(text, message, tmp_path, capsys):
    with pytest.raises(CircuitParseError, match=re.escape(message)):
        parse_circuit(text)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    out = str(tmp_path / "out.json")
    assert main(["--json", "compile", "--in", str(path), "--out", out]) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]
