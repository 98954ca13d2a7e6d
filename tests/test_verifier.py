"""Certification engine: Choi checks, inference, classification, table."""

import math

import numpy as np
import pytest

from ppmbqc.boolfn import BoolFn
from ppmbqc.errors import DimensionError, InferenceError
from ppmbqc.fragments import BrickSettings, brick, cz_fragment, e_fragment, xhalf_fragment
from ppmbqc.pattern import Correction
from ppmbqc.compiler import load_brick_table
from ppmbqc.executor import OutcomeSource, measurement_order, run_fragment
from ppmbqc.verifier import (
    ADVERTISED_LANE_GATES,
    canonical_brick_settings,
    choi_input,
    classify_unitary,
    classify_up_to_frame,
    infer_corrections,
    operator_schmidt_rank,
    scan_brick_settings,
    standard_dictionary,
    verify_fragment,
    verify_fragment_product_inputs,
    with_corrections,
)

RNG = np.random.default_rng(0xD1CE)


def haar(dim):
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_xhalf_passes_and_crosschecks_with_product_inputs():
    f = xhalf_fragment()
    rep = verify_fragment(f, "X(pi/2)")
    assert rep.passed and rep.worst_infidelity < 1e-9
    sweep_worst = verify_fragment_product_inputs(f, "X(pi/2)")
    assert sweep_worst < 1e-9


def test_cz_on_passes():
    rep = verify_fragment(cz_fragment(1), "CZ", keep_branches=False)
    assert rep.passed


def test_wrong_target_fails_loudly():
    rep = verify_fragment(xhalf_fragment(), "T", keep_branches=False)
    assert not rep.passed
    assert rep.worst_infidelity > 0.1


def test_verify_rejects_bad_targets():
    f = xhalf_fragment()
    with pytest.raises(DimensionError):
        verify_fragment(f, np.eye(4))
    with pytest.raises(DimensionError):
        verify_fragment(f, np.array([[1, 1], [0, 1]], dtype=complex))


def test_report_shape_and_records():
    rep = verify_fragment(xhalf_fragment(), "X(pi/2)")
    assert rep.branch_count == 8  # 2 outcomes x 4 error pairs
    assert len(rep.records) == 8
    d = rep.to_dict()
    assert d["pass"] is True and len(d["branches"]) == 8
    assert all(abs(t - 1.0) < 1e-9 for t in rep.probability_totals)


@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_hierarchy_certificates_check_every_branch(k):
    # hier_m8 has branches of probability near 3e-13 whose every measurement
    # is possible; a certificate must compare them, not skip them.
    from ppmbqc.fragments import builtin_fragment

    f, label = builtin_fragment(f"hier_m{k}")
    rep = verify_fragment(f, label, keep_branches=False)
    assert rep.passed
    assert rep.impossible_count == 0
    assert rep.branch_count == 4 * 2**rep.measured_count


def test_sampled_mode_agrees():
    rep = verify_fragment(e_fragment("T"), "T", branches=("sample", 5), keep_branches=False)
    assert rep.passed
    assert rep.mode == "sample:5"


@pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, math.inf, math.nan])
def test_verify_rejects_tolerances_outside_the_open_unit_interval(tol):
    with pytest.raises(ValueError):
        verify_fragment(xhalf_fragment(), "T", tol=tol)


@pytest.mark.parametrize("branches", [("sample", 0), ("sample", -3), ("every", 2)])
def test_sampled_mode_rejects_counts_below_one(branches):
    with pytest.raises(ValueError):
        verify_fragment(xhalf_fragment(), "X(pi/2)", branches=branches)


def test_sampled_records_follow_the_measurement_order():
    f = e_fragment("T")
    rep = verify_fragment(f, "T", branches=("sample", 2))
    order = measurement_order(f)
    for record in rep.records[:2]:
        replay = run_fragment(
            f, choi_input(1), {}, OutcomeSource.fixed(record.outcomes), spectators=1
        )
        assert [replay.outcomes[f.pattern.measurements[v].var] for v in order] == list(
            record.outcomes
        )
        assert replay.probability == pytest.approx(record.probability, abs=1e-12)


def test_infer_recovers_e_t_reference_anf_exactly():
    f = e_fragment("T")
    stripped = with_corrections(
        f, {v: Correction(BoolFn.zero(), BoolFn.zero()) for v in f.outputs}
    )
    fitted = infer_corrections(stripped, "T")
    assert fitted == f.corrections
    corr = fitted[f.outputs[0]]
    assert str(corr.zeta) == "1 ^ a ^ b ^ e ^ x ^ z ^ b*c ^ b*d ^ b*x"
    assert str(corr.xi) == "1 ^ c ^ d ^ x"


def test_infer_derives_h_mode_from_scratch_and_is_idempotent():
    f = e_fragment("H")
    stripped = with_corrections(
        f, {v: Correction(BoolFn.zero(), BoolFn.zero()) for v in f.outputs}
    )
    fitted = infer_corrections(stripped, "H")
    rep = verify_fragment(with_corrections(f, fitted), "H", keep_branches=False)
    assert rep.passed
    again = infer_corrections(with_corrections(f, fitted), "H")
    assert again == fitted


@pytest.mark.parametrize(
    "name",
    ["xhalf", "e_t", "e_tdg", "e_h", "e_s", "e_t_nomiddle", "cz_on", "cz_off",
     "brick", "hier_m1", "hier_m2", "hier_m3", "hier_m4"],
)
def test_infer_recovers_every_builtin_correction(name):
    from ppmbqc.fragments import builtin_fragment

    f, label = builtin_fragment(name)
    stripped = with_corrections(
        f, {v: Correction(BoolFn.zero(), BoolFn.zero()) for v in f.outputs}
    )
    assert infer_corrections(stripped, label) == f.corrections


def test_brick_fails_without_its_second_wire_error_terms():
    # The brick's inputs are vertices 0 and 7: errors on the second wire
    # must reach vertex 7, so dropping the z2/x2 terms has to show.
    f = brick(BrickSettings("T", "HTH", 0))
    zero = {"z2": BoolFn.zero(), "x2": BoolFn.zero()}
    stripped = with_corrections(
        f,
        {
            o: Correction(c.zeta.substitute(zero), c.xi.substitute(zero))
            for o, c in f.corrections.items()
        },
    )
    assert verify_fragment(f, "TxHTH", keep_branches=False).passed
    rep = verify_fragment(stripped, "TxHTH", keep_branches=False)
    assert not rep.passed and rep.worst_infidelity > 0.5


def test_infer_fails_against_wrong_target():
    f = xhalf_fragment()
    with pytest.raises(InferenceError):
        infer_corrections(f, "T")


def test_classify_examples():
    d = standard_dictionary()
    assert classify_unitary(np.diag([1, 1j, 1j, 1]).astype(complex), d) == "(SxS)*CZ"
    assert classify_unitary(np.array([[1, 1], [1, -1]]) / math.sqrt(2), d) == "H"
    assert classify_unitary(haar(4), d) is None


def test_classification_is_phase_blind():
    d = standard_dictionary()
    theta = float(RNG.uniform(0, 2 * math.pi))
    U = np.exp(1j * theta) * d["HTH"]
    assert classify_unitary(U, d) == "HTH"


def test_classify_rejects_non_unitary():
    with pytest.raises(DimensionError):
        classify_unitary(np.array([[1, 0], [0, 0.5]], dtype=complex), standard_dictionary())


def test_classify_up_to_frame():
    d = standard_dictionary()
    dressed = np.kron(np.diag([1, -1]), np.eye(2)) @ d["CZ"]
    hit = classify_up_to_frame(dressed, d, wires=2)
    assert hit is not None and hit[0] == "CZ"


def test_operator_schmidt_rank_examples():
    assert operator_schmidt_rank(standard_dictionary()["CZ"]) == 2
    assert operator_schmidt_rank(np.kron(np.diag([1, 1j]), np.diag([1, 1j]))) == 1
    assert operator_schmidt_rank(standard_dictionary()["CNOT"]) == 2


def test_choi_input_is_bell_pairs():
    s = choi_input(1)
    assert np.allclose(s.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2))
    assert abs(np.linalg.norm(choi_input(2).amplitudes) - 1) < 1e-12


def test_shipped_brick_table_is_consistent():
    table = load_brick_table()
    assert table["schema_version"] == 1
    entries = table["entries"]
    covered = {(e["left"], e["cz"]) for e in entries} | {
        (e["right"], e["cz"]) for e in entries
    }
    for gate in ADVERTISED_LANE_GATES:
        for cz in (0, 1):
            assert (gate, cz) in covered
    for e in entries:
        assert e["worst_infidelity"] < 1e-9
        # bases recorded in the table reproduce the constructor's choices
        frag = brick(BrickSettings(e["left"], e["right"], e["cz"]))
        from ppmbqc.verifier import _basis_assignment

        assert _basis_assignment(frag) == e["bases"]
    assert len(entries) == len(canonical_brick_settings())


def test_one_shipped_entry_reverifies():
    table = load_brick_table()
    e = next(
        x for x in table["entries"] if (x["left"], x["right"], x["cz"]) == ("T", "PAD", 0)
    )
    rep = verify_fragment(
        brick(BrickSettings("T", "PAD", 0)), e["label"], keep_branches=False
    )
    assert rep.passed and rep.branch_count == e["branch_count"]


def test_settings_scan_matches_advertised_labels():
    scan = scan_brick_settings()
    for (l, r, cz), label in scan.items():
        assert label == BrickSettings(l, r, cz).label()


def test_end_hairs_cancel_against_each_other():
    # A settings pair differing only in the two end hairs realizes the
    # same gate: both hairs idle, or both inject and the half phases
    # cancel up to a Pauli across the lane.
    from ppmbqc.fragments import _Builder, _Lane, _finalize

    def pad_lane(end_hairs):
        b = _Builder()
        lane = _Lane(b, "z", "x")
        if end_hairs == "Z":
            lane.half_hair("s2")
        else:
            lane.cut_hair("s2", 2)
        lane.teleport("a")
        lane.cut_hair("b2", 1)
        lane.cut_hair("e2", 2)
        lane.teleport("c")
        if end_hairs == "Z":
            lane.half_hair("s3")
        else:
            lane.cut_hair("s3", 2)
        return _finalize(b, [lane], "I")

    for bases in ("X", "Z"):
        rep = verify_fragment(pad_lane(bases), "I", keep_branches=False)
        assert rep.passed, (bases, rep.worst_infidelity)


def test_pad_settings_classify_as_identity_lanes():
    scan = scan_brick_settings()
    assert scan[("PAD", "PAD", 0)] == "IxI"
    assert scan[("PAD", "PAD", 1)] == "CZ*(IxI)"


def test_cz_off_rows_have_no_entangling_power():
    from ppmbqc.executor import enumerate_fragment

    frag = brick(BrickSettings("S", "H", 0))
    ens = enumerate_fragment(frag, choi_input(2), spectators=2)
    probs = ens.probabilities
    rows = np.nonzero(probs > 0)[0]
    for row in rows[:: max(1, len(rows) // 64)]:
        M = ens.states[row].reshape(4, 4) * 2.0
        M = M / (np.linalg.norm(M) / 2.0)
        assert operator_schmidt_rank(M) == 1


@pytest.mark.parametrize(
    "name",
    ["xhalf", "e_t", "e_tdg", "e_h", "e_s", "e_t_nomiddle", "hier_m1",
     "hier_m2", "hier_m3", "cz_on", "cz_off"],
)
def test_product_input_sweep_agrees_with_choi(name):
    # Independent cross-check: direct simulation on a spanning set of
    # product inputs must agree with the entangled-input certification.
    from ppmbqc.fragments import builtin_fragment

    f, label = builtin_fragment(name)
    assert verify_fragment_product_inputs(f, label) < 1e-9


def test_product_input_sweep_covers_the_brick():
    # Clean inputs suffice here: the error sweep is certified on the
    # entangled path, this is the independent input-basis cross-check.
    frag = brick(BrickSettings("T", "HTH", 0))
    assert verify_fragment_product_inputs(frag, "TxHTH", with_errors=False) < 1e-9


def test_branch_operator_extracts_conditional_maps():
    from ppmbqc.executor import enumerate_fragment
    from ppmbqc.verifier import branch_operator, standard_dictionary

    frag = cz_fragment(1)
    ens = enumerate_fragment(frag, choi_input(2), spectators=2)
    probs = ens.probabilities
    row = int(np.nonzero(probs > 0)[0][0])
    M = branch_operator(ens.states, row, 2)
    hit = classify_up_to_frame(M, standard_dictionary(), wires=2)
    assert hit is not None and hit[0] == "CZ"
