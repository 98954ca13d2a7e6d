"""The gadget library: certification, pinned corrections, structure."""

import numpy as np
import pytest

from ppmbqc.errors import StructuralError
from ppmbqc.fragments import (
    BrickSettings,
    brick,
    builtin_fragment,
    cz_fragment,
    e_fragment,
    e_fragment_nomiddle,
    hierarchy_fragment,
    xhalf_fragment,
)
from ppmbqc.executor import OutcomeSource, enumerate_fragment, run_fragment
from ppmbqc.pattern import compose
from ppmbqc.statevec import zero_state
from ppmbqc.verifier import choi_input, operator_schmidt_rank, verify_fragment

TOL = 1e-9


def corr_strings(f):
    return {
        f.pattern.measurements.get(v, None) and v or v: (str(c.zeta), str(c.xi))
        for v, c in sorted(f.corrections.items())
    }


@pytest.mark.parametrize(
    "name",
    [
        "xhalf",
        "e_t",
        "e_tdg",
        "e_h",
        "e_s",
        "e_t_nomiddle",
        "cz_on",
        "cz_off",
        "hier_m1",
        "hier_m2",
        "hier_m3",
        "hier_m4",
    ],
)
def test_builtin_certifies_its_advertised_gate(name):
    frag, label = builtin_fragment(name)
    report = verify_fragment(frag, label, tol=TOL, keep_branches=False)
    assert report.passed, (name, report.worst_infidelity)
    assert report.worst_infidelity < TOL
    assert all(abs(t - 1.0) < 1e-9 for t in report.probability_totals)


def test_xhalf_structure_and_corrections():
    f = xhalf_fragment()
    assert f.pattern.graph.edges == ((0, 1, 2),)
    corr = f.corrections[f.outputs[0]]
    assert str(corr.zeta) == "a ^ z"
    assert str(corr.xi) == "1 ^ a ^ x ^ z"


def test_xhalf_self_composition_gives_x_pi():
    f1, f2 = xhalf_fragment(), xhalf_fragment()
    comp = compose(f1, f2, {f1.outputs[0]: f2.inputs[0]})
    rep = verify_fragment(comp, "X(pi)", keep_branches=False)
    assert rep.passed


def test_e_t_pinned_corrections_and_rule():
    f = e_fragment("T")
    corr = f.corrections[f.outputs[0]]
    assert str(corr.zeta) == "1 ^ a ^ b ^ e ^ x ^ z ^ b*c ^ b*d ^ b*x"
    assert str(corr.xi) == "1 ^ c ^ d ^ x"
    adaptive = f.pattern.measurements[5].choice
    assert str(adaptive) == "1 ^ b ^ c ^ d ^ x"


def test_e_modes_share_one_topology():
    graphs = {mode: e_fragment(mode).pattern.graph for mode in ("T", "Tdg", "H", "S")}
    base = graphs["T"]
    assert all(g == base for g in graphs.values())
    # single edge for the eighth-turn hair, double elsewhere
    assert base.edges == ((0, 1, 2), (1, 2, 2), (1, 3, 2), (3, 4, 1), (3, 5, 2))


def test_e_mode_bases_match_prescription():
    def bases(f):
        out = {}
        for v, m in f.pattern.measurements.items():
            var = m.var
            out[var] = (
                ("Z" if m.choice.constant_value() else "X")
                if m.choice.is_constant()
                else "ADAPT"
            )
        return out

    assert bases(e_fragment("T")) == {"a": "X", "c": "X", "d": "X", "b": "Z", "e": "ADAPT"}
    assert bases(e_fragment("Tdg")) == {"a": "X", "c": "X", "d": "X", "b": "Z", "e": "ADAPT"}
    assert bases(e_fragment("H")) == {"a": "X", "c": "X", "d": "Z", "b": "X", "e": "X"}
    assert bases(e_fragment("S")) == {"a": "X", "c": "X", "d": "X", "b": "X", "e": "Z"}


def test_e_t_and_tdg_rules_are_opposite():
    t = e_fragment("T").pattern.measurements[5].choice
    tdg = e_fragment("Tdg").pattern.measurements[5].choice
    from ppmbqc.boolfn import BoolFn

    assert t == (tdg ^ BoolFn.one())


def test_e_self_composition_gives_s():
    a, b = e_fragment("T"), e_fragment("T")
    comp = compose(a, b, {a.outputs[0]: b.inputs[0]})
    rep = verify_fragment(comp, "S", keep_branches=False)
    assert rep.passed, rep.worst_infidelity


def test_nomiddle_variant_certifies_t():
    f = e_fragment_nomiddle("T")
    assert f.pattern.graph.vertex_count == 5
    rep = verify_fragment(f, "T", keep_branches=False)
    assert rep.passed


def test_cz_on_pinned_corrections():
    f = cz_fragment(1)
    zetas = {v: str(f.corrections[v].zeta) for v in f.outputs}
    xis = {v: str(f.corrections[v].xi) for v in f.outputs}
    assert zetas == {0: "1 ^ a ^ b ^ x2 ^ z1", 1: "1 ^ a ^ b ^ x1 ^ z2"}
    assert xis == {0: "x1", 1: "x2"}


def test_cz_off_disconnects_into_local_unitaries():
    f = cz_fragment(0)
    ens = enumerate_fragment(f, choi_input(2), spectators=2)
    probs = ens.probabilities
    for row in np.nonzero(probs > 0)[0]:
        M = ens.states[row].reshape(4, 4) * 2.0
        M = M / (np.linalg.norm(M) / 2.0)
        assert operator_schmidt_rank(M) == 1


def test_cz_conjugated_with_h_gives_cnot():
    h1, cz, h2 = e_fragment("H"), cz_fragment(1), e_fragment("H")
    step1 = compose(h1, cz, {h1.outputs[0]: cz.inputs[1]})
    step2 = compose(step1, h2, {step1.outputs[1]: h2.inputs[0]})
    ctrl_in, tgt_in = step2.inputs[1], step2.inputs[0]
    cnot = step2.with_io_order((ctrl_in, tgt_in), step2.outputs)
    rep = verify_fragment(cnot, "CNOT", keep_branches=False)
    assert rep.passed, rep.worst_infidelity


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_hierarchy_stage_budget(m):
    f = hierarchy_fragment(m)
    ens = enumerate_fragment(f, choi_input(1), spectators=1)
    correction_vertices = [
        v for v, meas in f.pattern.measurements.items() if meas.var.startswith("e")
    ]
    for tr in ens.traces(f):
        if tr.probability == 0.0:
            continue
        fired = sum(1 for v in correction_vertices if tr.bases[v] == "Z")
        assert fired <= m - 1


def test_hierarchy_structure():
    f = hierarchy_fragment(3)
    g = f.pattern.graph
    assert g.base_exponent == 3
    # carrier bundles are half-phase links; hairs halve in angle
    assert g.multiplicity(0, 1) == 4 and g.multiplicity(1, 2) == 4
    assert g.multiplicity(2, 3) == 1  # base hair: a single edge
    assert g.multiplicity(2, 4) == 2 and g.multiplicity(2, 5) == 4
    with pytest.raises(StructuralError):
        hierarchy_fragment(0)


def test_brick_flagship_settings():
    rep = verify_fragment(
        brick(BrickSettings("T", "HTH", 0)), "TxHTH", keep_branches=False
    )
    assert rep.passed, rep.worst_infidelity
    rep = verify_fragment(
        brick(BrickSettings("H", "H", 1)), "CZ*(HxH)", keep_branches=False
    )
    assert rep.passed, rep.worst_infidelity


def test_brick_rejects_unknown_settings():
    with pytest.raises(StructuralError):
        BrickSettings("T", "T", 0)  # the right lane has no end rotation site
    with pytest.raises(StructuralError):
        BrickSettings("HTH", "PAD", 0)
    with pytest.raises(StructuralError):
        BrickSettings("H", "H", 2)


def test_xhalf_forced_one_outcome_frame():
    f = xhalf_fragment()
    tr = run_fragment(f, zero_state(1), {0: (0, 0)}, OutcomeSource.fixed([1]))
    assert tr.frame[f.outputs[0]] == (1, 0)
