"""Patterns, fragments, scheduling, composition and the JSON schema."""

import json
import re

import pytest

from ppmbqc.boolfn import BoolFn
from ppmbqc.cli import main
from ppmbqc.errors import StructuralError, WellFoundednessError
from ppmbqc.executor import measurement_order
from ppmbqc.fragments import cz_fragment, e_fragment, hierarchy_fragment, xhalf_fragment
from ppmbqc.pattern import (
    Correction,
    Measurement,
    MeasurementPattern,
    PatternFragment,
    compose,
    dependency_schedule,
    flatten,
    fragment_from_dict,
    fragment_from_json,
    fragment_to_dict,
    fragment_to_json,
)
from ppmbqc.pgraph import PGraph
from ppmbqc.verifier import verify_fragment


def test_all_constant_pattern_is_single_round():
    g = PGraph(3).add_edges(0, 1, 2).add_edges(1, 2, 2)
    p = MeasurementPattern(
        g, {v: Measurement(f"m{v}", BoolFn.zero()) for v in range(3)}
    )
    assert dependency_schedule(PatternFragment(p)) == [[0, 1, 2]]


@pytest.mark.parametrize(
    "choice, message",
    [
        (BoolFn([["m1"]]), "vertex 1 choice references its own outcome"),
        (BoolFn([["q"], ["p"]]), "vertex 1 choice references unknown variable 'p'"),
        (BoolFn([["m0", "z"]]), "vertex 1 choice references unknown variable 'z'"),
    ],
    ids=["own-outcome", "first-unknown-by-name", "unknown-beside-a-known-name"],
)
def test_construction_checks_every_name_a_choice_reads(choice, message):
    g = PGraph(2).add_edges(0, 1, 2)
    measurements = {0: Measurement("m0", BoolFn.zero()), 1: Measurement("m1", choice)}
    with pytest.raises(StructuralError, match=re.escape(message)):
        PatternFragment(MeasurementPattern(g, measurements))


def test_cyclic_two_vertex_pattern_rejected():
    g = PGraph(2).add_edges(0, 1, 1)
    p = MeasurementPattern(
        g,
        {
            0: Measurement("u", BoolFn.var("w")),
            1: Measurement("w", BoolFn.var("u")),
        },
    )
    with pytest.raises(WellFoundednessError) as err:
        dependency_schedule(PatternFragment(p))
    assert set(err.value.cycle) == {0, 1}


def test_cycle_is_reported_without_the_vertices_waiting_on_it():
    reads = {0: "w1", 1: "w3", 2: "w1", 3: "w2"}  # 1 -> 3 -> 2 -> 1; 0 waits on it
    p = MeasurementPattern(
        PGraph(4), {v: Measurement(f"w{v}", BoolFn.var(r)) for v, r in reads.items()}
    )
    with pytest.raises(WellFoundednessError) as err:
        dependency_schedule(PatternFragment(p))
    assert sorted(err.value.cycle) == [1, 2, 3]
    with pytest.raises(WellFoundednessError) as err:
        measurement_order(PatternFragment(p))
    assert sorted(err.value.cycle) == [1, 2, 3]


def test_t_gadget_schedule_rounds():
    f = e_fragment("T")
    rounds = dependency_schedule(f)
    assert len(rounds) == 2
    names = [sorted(f.pattern.measurements[v].var for v in r) for r in rounds]
    assert names == [["a", "b", "c", "d"], ["e"]]


def test_output_variable_freshness_enforced():
    g = PGraph(2)
    with pytest.raises(StructuralError):
        MeasurementPattern(
            g, {0: Measurement("a", BoolFn.zero()), 1: Measurement("a", BoolFn.zero())}
        )


def test_choice_may_not_reference_unknown_or_self():
    g = PGraph(1)
    p = MeasurementPattern(g, {0: Measurement("a", BoolFn.var("nope"))})
    with pytest.raises(StructuralError):
        dependency_schedule(PatternFragment(p))
    p2 = MeasurementPattern(g, {0: Measurement("a", BoolFn.var("a"))})
    with pytest.raises(StructuralError):
        dependency_schedule(PatternFragment(p2))


def test_fragment_validation_rules():
    g = PGraph(2).add_edges(0, 1, 2)
    meas = {0: Measurement("a", BoolFn.zero())}
    ok = PatternFragment(
        MeasurementPattern(g, meas),
        (0,),
        (1,),
        {0: ("z", "x")},
        {1: Correction(BoolFn.zero(), BoolFn.zero())},
    )
    assert ok.error_variables() == ("z", "x")
    with pytest.raises(StructuralError):  # output carries a measurement
        PatternFragment(
            MeasurementPattern(g, {**meas, 1: Measurement("b", BoolFn.zero())}),
            (0,),
            (1,),
            {0: ("z", "x")},
            {1: Correction(BoolFn.zero(), BoolFn.zero())},
        )
    with pytest.raises(StructuralError):  # error variable collides with outcome
        PatternFragment(
            MeasurementPattern(g, meas),
            (0,),
            (1,),
            {0: ("a", "x")},
            {1: Correction(BoolFn.zero(), BoolFn.zero())},
        )


def test_compose_requires_valid_injective_wiring():
    f1, f2 = xhalf_fragment(), xhalf_fragment()
    with pytest.raises(StructuralError):
        compose(f1, f2, {0: f2.inputs[0]})  # 0 is not an output of f1


def test_compose_empty_wiring_is_disjoint_union():
    f1, f2 = xhalf_fragment(), xhalf_fragment()
    u = compose(f1, f2, {})
    assert u.pattern.graph.vertex_count == 4
    assert len(u.inputs) == 2 and len(u.outputs) == 2
    # First fragment untouched; second renamed to keep namespaces disjoint.
    assert u.corrections[f1.outputs[0]] == f1.corrections[f1.outputs[0]]
    renamed = u.corrections[u.outputs[1]]
    assert renamed.zeta == f2.corrections[f2.outputs[0]].zeta.rename(
        {"a": "g2.a", "z": "g2.z", "x": "g2.x"}
    )


def test_compose_substitutes_error_variables():
    f1, f2 = xhalf_fragment(), xhalf_fragment()
    comp = compose(f1, f2, {f1.outputs[0]: f2.inputs[0]})
    # The second stage's (z, x) are bound to the first stage's corrections;
    # substituted, its zeta = z2 + a2 becomes (a ^ z) ^ a2.
    zeta = flatten(comp).corrections[comp.outputs[0]].zeta
    assert zeta == BoolFn.xor_of("a", "z", "g2.a")


def test_compose_binds_wired_errors_as_definitions():
    f1, f2 = xhalf_fragment(), xhalf_fragment()
    comp = compose(f1, f2, {f1.outputs[0]: f2.inputs[0]})
    c1 = f1.corrections[f1.outputs[0]]
    assert comp.frames == {"g2.z": c1.zeta, "g2.x": c1.xi}
    assert comp.corrections[comp.outputs[0]].zeta == BoolFn.xor_of("g2.z", "g2.a")
    # A composite wired on again renames its definitions with the rest.
    again = compose(xhalf_fragment(), comp, {1: comp.inputs[0]})
    assert list(again.frames) == ["g2.z", "g2.x", "g2.g2.z", "g2.g2.x"]
    assert again.frames["g2.g2.z"] == BoolFn.xor_of("g2.a", "g2.z")
    assert flatten(flatten(again)) == flatten(again) and not flatten(again).frames


def test_a_cycle_through_a_definition_is_reported_by_its_vertices():
    p = MeasurementPattern(
        PGraph(3),
        {0: Measurement("u", BoolFn.var("d")), 1: Measurement("w", BoolFn.zero())},
    )
    f = PatternFragment(
        p, (), (2,), {}, {2: Correction(BoolFn.zero(), BoolFn.zero())}, {"d": BoolFn.var("u")}
    )
    with pytest.raises(WellFoundednessError) as err:
        dependency_schedule(f)
    assert err.value.cycle == [0]


def test_definitions_cost_no_feed_forward_round():
    # u is measured first; d1 and d2 relay it, and w reads d2: two rounds,
    # as if w read u itself.
    p = MeasurementPattern(
        PGraph(3),
        {0: Measurement("u", BoolFn.zero()), 1: Measurement("w", BoolFn.var("d2"))},
    )
    frames = {"d1": BoolFn.xor_of("u", "z"), "d2": BoolFn.var("d1")}
    f = PatternFragment(
        p, (2,), (2,), {2: ("z", "x")}, {2: Correction(BoolFn.var("d2"), BoolFn.zero())}, frames
    )
    assert dependency_schedule(f) == dependency_schedule(flatten(f)) == [[0], [1]]


def test_composition_associativity_against_same_unitary():
    f1, f2, f3 = (xhalf_fragment() for _ in range(3))
    a = compose(f1, f2, {f1.outputs[0]: f2.inputs[0]})
    left = compose(a, f3, {a.outputs[0]: f3.inputs[0]})
    b = compose(f2, f3, {f2.outputs[0]: f3.inputs[0]})
    right = compose(f1, b, {f1.outputs[0]: b.inputs[0]})
    # Both certify the same composite: three half X-turns.
    for frag in (left, right):
        rep = verify_fragment(frag, "X(pi/2)*X(pi/2)*X(pi/2)", keep_branches=False)
        assert rep.passed, rep.worst_infidelity


def test_json_roundtrip_bit_exact():
    for frag in (xhalf_fragment(), e_fragment("T")):
        text = fragment_to_json(frag)
        again = fragment_from_json(text)
        assert again == frag
        assert fragment_to_json(again) == text


def test_definitions_round_trip_through_schema_two():
    comp = compose(xhalf_fragment(), xhalf_fragment(), {1: 0})
    text = fragment_to_json(comp)
    data = json.loads(text)
    assert data["schema_version"] == 2 and "\n" not in text
    assert data["frames"] == [[name, fn.to_anf_lists()] for name, fn in comp.frames.items()]
    again = fragment_from_json(text)
    assert again == comp and list(again.frames) == list(comp.frames)
    assert fragment_to_json(again) == text
    # Without definitions the schema is 1, indented, and flatten changes nothing.
    flat = flatten(comp)
    assert json.loads(fragment_to_json(flat))["schema_version"] == 1
    assert flatten(xhalf_fragment()) == xhalf_fragment()
    assert fragment_to_json(xhalf_fragment()).startswith("{\n")


def test_schema_version_present_and_checked():
    d = fragment_to_dict(xhalf_fragment())
    assert d["schema_version"] == 1
    for version in (99, True, 1.0):
        bad = dict(d, schema_version=version)
        with pytest.raises(StructuralError, match="unsupported schema_version"):
            fragment_from_json(json.dumps(bad))


def _mutations():
    """Malformed variants of a valid fragment dict, one defect each."""
    good = fragment_to_dict(xhalf_fragment())
    for key in ("vertices", "base_exponent", "edges"):
        yield {k: v for k, v in good.items() if k != key}
    for key, value in (
        ("vertices", "2"),
        ("vertices", True),
        ("base_exponent", 2.0),
        ("edges", {"u": 0}),
        ("edges", [[0, 1, 1]]),
        ("edges", [{"u": 0, "v": 1}]),
        ("measurements", []),
        ("measurements", {"0": ["b", []]}),
        ("measurements", {"x": {"var": "b", "anf": []}}),
        ("measurements", {"0": {"var": "b", "anf": "x"}}),
        ("measurements", {"0": {"var": "b", "anf": [[1]]}}),
        ("inputs", [0.0]),
        ("input_errors", {"0": "zx"}),
        ("input_errors", {"0": ["z"]}),
        ("corrections", {"1": {"zeta": []}}),
    ):
        yield dict(good, **{key: value})
    yield [good]
    yield None


@pytest.mark.parametrize("data", list(_mutations()))
def test_malformed_fragment_dict_raises_structural_error(data):
    with pytest.raises(StructuralError):
        fragment_from_dict(data)


@pytest.mark.parametrize("key", ["+0", " 0", "0 ", "00", "-0", "1_0", "\u0663", "0x0"])
def test_vertex_keys_must_be_an_integers_own_decimal_form(key):
    data = fragment_to_dict(xhalf_fragment())
    data["measurements"] = {key: data["measurements"]["0"]}
    with pytest.raises(StructuralError, match="is not an integer"):
        fragment_from_dict(data)


def test_two_spellings_of_one_vertex_do_not_overwrite_each_other():
    data = fragment_to_dict(xhalf_fragment())
    entry = data["measurements"]["0"]
    data["measurements"] = {"0": entry, "+0": dict(entry, var="b")}
    with pytest.raises(StructuralError, match="'\\+0' is not an integer"):
        fragment_from_dict(data)


def _xhalf_json(**changes):
    return dict(fragment_to_dict(xhalf_fragment()), **changes)


def _cz_wired_twice():
    cz = cz_fragment(1)
    return compose(cz, xhalf_fragment(), {cz.outputs[0]: 0, cz.outputs[1]: 0})


@pytest.mark.parametrize(
    "case, message",
    [
        (_xhalf_json(measurements={"0": {"var": "a", "anf": []}, "2": {"var": "b", "anf": []}}),
         "measured vertex 2 out of range"),
        (_xhalf_json(outputs=[1, 2]), "designated vertex 2 out of range"),
        (_xhalf_json(inputs=[0, 0]), "duplicate input vertex"),
        (_xhalf_json(outputs=[1, 1]), "duplicate output vertex"),
        (_xhalf_json(measurements={}), "non-output vertex 0 lacks a measurement"),
        (_xhalf_json(input_errors={}), "input_errors must cover exactly the inputs"),
        (_xhalf_json(corrections={}), "corrections must cover exactly the outputs"),
        (_xhalf_json(corrections={"1": {"zeta": [["q"]], "xi": []}}),
         "correction on vertex 1 references unknown 'q'"),
        (lambda: xhalf_fragment().with_io_order((0,), (0,)),
         "reorder must preserve the input/output sets"),
        (lambda: compose(xhalf_fragment(), hierarchy_fragment(3), {1: 0}),
         "base exponents differ"),
        (lambda: compose(xhalf_fragment(), xhalf_fragment(), {1: 1}),
         "1 is not an input of the second fragment"),
        (_cz_wired_twice, "wiring must be injective"),
    ],
    ids=[
        "measured-vertex-range", "designated-vertex-range", "duplicate-input",
        "duplicate-output", "unmeasured-non-output", "input-errors-cover",
        "corrections-cover", "correction-unknown-name", "reorder-sets",
        "compose-base-exponents", "compose-onto-non-input", "compose-not-injective",
    ],
)
def test_malformed_patterns_raise_structural_error(case, message, tmp_path, capsys):
    # Fragment JSON comes from outside the program, so the CLI must also
    # turn it into a usage error; composition and reordering are library-only.
    if callable(case):
        with pytest.raises(StructuralError, match=re.escape(message)):
            case()
        return
    with pytest.raises(StructuralError, match=re.escape(message)):
        fragment_from_dict(case)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(case))
    assert main(["--json", "depth", str(path)]) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]
