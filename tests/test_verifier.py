"""Certification engine: Choi checks, inference, settings certificates, table."""

import json
import math
import re
from itertools import product

import numpy as np
import pytest

from ppmbqc.boolfn import BoolFn, mobius_anf
from ppmbqc.cli import main
from ppmbqc.errors import DimensionError, InferenceError, PpmError
from ppmbqc.fragments import (
    LEFT_LANE_GATES,
    RIGHT_LANE_GATES,
    BrickSettings,
    brick,
    cz_fragment,
    e_fragment,
    xhalf_fragment,
)
from ppmbqc.pattern import (
    Correction,
    Measurement,
    MeasurementPattern,
    PatternFragment,
    compose,
    fragment_from_dict,
)
from ppmbqc.compiler import load_brick_table
from ppmbqc.executor import (
    BranchEnsemble,
    OutcomeSource,
    enumerate_fragment,
    measurement_order,
    run_fragment,
)
from ppmbqc.unitaries import apply_frames, frame_bits, unitary_from_label
from ppmbqc.verifier import (
    ADVERTISED_LANE_GATES,
    FIT_TOL,
    MAX_RECORDS,
    _SHARE_TOL,
    _columns,
    _frame_table,
    _runs,
    _score,
    canonical_brick_settings,
    choi_input,
    infer_corrections,
    operator_schmidt_rank,
    verify_fragment,
    verify_fragment_product_inputs,
    with_corrections,
)


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
    assert d["amplitude_runs"] == rep.amplitude_runs == 1  # no choice reads an error
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
    assert rep.amplitude_runs == 4 * 5  # one seeded run per sample and combination


@pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, math.inf, math.nan])
def test_verify_rejects_tolerances_outside_the_open_unit_interval(tol):
    with pytest.raises(ValueError):
        verify_fragment(xhalf_fragment(), "T", tol=tol)


@pytest.mark.parametrize(
    "branches",
    [("sample", 0), ("sample", -3), ("every", 2), ("sample",), None, ("sample", 2.5),
     ("sample", "3"), ("sample", True), ("sample", 3, 1)],
)
def test_sampled_mode_rejects_counts_below_one(branches):
    # Only "all" or exactly ("sample", k) with an int k >= 1 is a mode.
    with pytest.raises(ValueError, match="branches must be 'all' or"):
        verify_fragment(xhalf_fragment(), "X(pi/2)", branches=branches)


@pytest.mark.parametrize("target", [0.5 * np.eye(2), np.eye(4)], ids=["scaled", "too-wide"])
@pytest.mark.parametrize(
    "check", [verify_fragment, verify_fragment_product_inputs, infer_corrections]
)
def test_every_certification_entry_point_checks_its_target(check, target, monkeypatch):
    def enumerate_fragment(*args, **kwargs):
        pytest.fail("enumerated branches before checking the target")

    monkeypatch.setattr("ppmbqc.verifier._execute", enumerate_fragment)
    with pytest.raises(DimensionError):
        check(xhalf_fragment(), target)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "1"])
@pytest.mark.parametrize("branches", ["all", ("sample", 2)])
def test_both_modes_refuse_a_seed_that_is_not_a_non_negative_integer(seed, branches):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_fragment(e_fragment("T"), "T", branches=branches, seed=seed)


def test_both_modes_keep_records_only_when_they_fit(monkeypatch):
    # xhalf has 4 error combinations and 1 measurement: k shots give 4k
    # records, enumeration gives 8; e_t's enumeration gives 4 * 2^5.
    monkeypatch.setattr("ppmbqc.verifier.MAX_RECORDS", 8)
    f = xhalf_fragment()
    for branches in ("all", ("sample", 2)):
        fits = verify_fragment(f, "X(pi/2)", branches=branches)
        assert len(fits.records) == 8 == len(fits.to_dict()["branches"])
    over = verify_fragment(f, "X(pi/2)", branches=("sample", 3))
    assert over.passed and over.records == [] and "branches" not in over.to_dict()
    kept = verify_fragment(f, "X(pi/2)", branches=("sample", 3), keep_branches=True)
    assert len(kept.records) == 12 == len(kept.to_dict()["branches"])
    enumerated = verify_fragment(e_fragment("T"), "T")
    assert enumerated.records == [] and "branches" not in enumerated.to_dict()


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


@pytest.mark.parametrize(
    "frag, label, classes",
    [(e_fragment("T"), "T", 2), (brick(BrickSettings("T", "HTH", 1)), "CZ*(TxHTH)", 4)],
)
def test_inference_runs_the_engine_once_per_choice_class(frag, label, classes, monkeypatch):
    from ppmbqc import executor, verifier
    from ppmbqc.executor import _plan

    # A class per value of the guarded input errors, which every choice reads.
    assert 1 << len(_plan(frag).guards) == classes
    calls = {"_execute": 0, "enumerate_fragment": 0}
    for module, name in ((verifier, "_execute"), (executor, "enumerate_fragment")):
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    stripped = with_corrections(
        frag, {v: Correction(BoolFn.zero(), BoolFn.zero()) for v in frag.outputs}
    )
    assert infer_corrections(stripped, label) == frag.corrections
    # One run per class for the fit, then one per class for its certificate.
    assert calls == {"_execute": 2 * classes, "enumerate_fragment": 0}


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
    with pytest.raises(InferenceError, match=r"branch 0 of error combo \(0, 0\) admits 0 Pauli"):
        infer_corrections(f, "T")
    # e_t's last choice also reads x, so it rotates the wrong way where x
    # is set: the first combination that fails is code 1, (z, x) = (0, 1).
    e = e_fragment("T")
    ((v, m),) = [(v, m) for v, m in e.pattern.measurements.items() if "x" in m.choice.variables]
    g = with_choice(e, v, m.choice ^ BoolFn.var("x"))
    with pytest.raises(InferenceError, match=r"error combo \(0, 1\) admits 0 Pauli solutions"):
        infer_corrections(g, "T")


def test_operator_schmidt_rank_examples():
    assert operator_schmidt_rank(unitary_from_label("CZ")) == 2
    assert operator_schmidt_rank(np.kron(np.diag([1, 1j]), np.diag([1, 1j]))) == 1
    assert operator_schmidt_rank(unitary_from_label("CNOT")) == 2


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
    # One sampled branch per error combination certifies each realizable
    # (left, right, cz) triple, PAD lanes included, against its own label.
    triples = list(product(LEFT_LANE_GATES, RIGHT_LANE_GATES, (0, 1)))
    assert len(triples) == 98
    for triple in triples:
        s = BrickSettings(*triple)
        rep = verify_fragment(brick(s), s.label(), branches=("sample", 1))
        assert rep.passed and rep.branch_count == 16, (s, rep.worst_infidelity)


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
    # PAD lanes realize the identity: with and without the CZ, the brick
    # certifies against the explicit identity-lane labels, not only
    # against whatever BrickSettings.label() names it.
    for cz, label in ((0, "IxI"), (1, "CZ*(IxI)")):
        s = BrickSettings("PAD", "PAD", cz)
        assert s.label() == label
        rep = verify_fragment(brick(s), label, branches=("sample", 1))
        assert rep.passed and rep.branch_count == 16, (cz, rep.worst_infidelity)
    wrong = verify_fragment(
        brick(BrickSettings("PAD", "PAD", 1)), "IxI", branches=("sample", 1)
    )
    assert not wrong.passed


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


@pytest.mark.parametrize("target", ["H", "CZ"])
def test_unequal_arity_raises_and_exits_two(target, tmp_path, capsys):
    # One input wire, two output wires: no gate certificate applies.
    zero = {"zeta": [], "xi": []}
    data = {
        "schema_version": 1,
        "vertices": 2,
        "base_exponent": 2,
        "edges": [{"u": 0, "v": 1, "mult": 2}],
        "inputs": [0],
        "outputs": [0, 1],
        "input_errors": {"0": ["z", "x"]},
        "corrections": {"0": zero, "1": zero},
    }
    message = "equal input/output arity required"
    with pytest.raises(DimensionError, match=re.escape(message)):
        verify_fragment(fragment_from_dict(data), target)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    assert main(["--json", "verify", str(path), "--target", target]) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]


# -- the per-combination oracle ----------------------------------------------


def error_combos(f):
    """Every input-error assignment with its bits, in frame-code order."""
    n = len(f.inputs)
    for bits in product((0, 1), repeat=2 * n):
        yield {v: bits[2 * w : 2 * w + 2] for w, v in enumerate(f.inputs)}, bits


def per_combination_report(f, label):
    """The exhaustive certificate from one enumeration per error combination.

    Every combination runs on its own Choi input and is scored against the
    target dressed with every frame; nothing is shared between combinations.
    """
    U, n = unitary_from_label(label), len(f.inputs)
    table = _frame_table(U / math.sqrt(1 << n), n)
    keep = (1 << len(f.pattern.measurements)) << (2 * n) <= MAX_RECORDS
    worst, totals, records, possible, impossible = 0.0, [], [], 0, 0
    for errs, bits in error_combos(f):
        ens = enumerate_fragment(f, choi_input(n), errs, n)
        ok = ens.possible
        overlaps = np.abs(np.einsum("ij,ij->i", ens.states, table[ens.frames])) ** 2
        fids = np.divide(overlaps, ens.weights, out=np.zeros(len(ok)), where=ok)
        worst = max(worst, float((1.0 - fids[ok]).max(initial=0.0)))
        totals.append(float(ens.probabilities.sum()))
        possible, impossible = possible + int(ok.sum()), impossible + int((~ok).sum())
        for r, frame in enumerate(frame_bits(ens.frames, n).tolist() if keep else ()):
            outcomes = tuple(int(b[r]) for b in ens.outcomes)
            infidelity = float(1.0 - fids[r]) if ok[r] else None
            prob = float(ens.probabilities[r]) if ok[r] else 0.0
            records.append((bits, outcomes, prob, tuple(map(tuple, frame)), infidelity))
    passed = worst < 1e-9 and all(abs(t - 1.0) < 1e-9 for t in totals)
    return passed, possible, impossible, totals, worst, records


def assert_matches_the_oracle(f, label):
    rep = verify_fragment(f, label)
    passed, possible, impossible, totals, worst, records = per_combination_report(f, label)
    assert (rep.passed, rep.branch_count, rep.impossible_count) == (passed, possible, impossible)
    assert rep.probability_totals == pytest.approx(totals, rel=0, abs=1e-12)
    assert rep.worst_infidelity == pytest.approx(worst, rel=0, abs=1e-9)
    assert len(rep.records) == len(records)
    for got, (bits, outcomes, prob, frame, infidelity) in zip(rep.records, records):
        assert (got.error_bits, got.outcomes, got.frame) == (bits, outcomes, frame)
        assert got.probability == pytest.approx(prob, rel=0, abs=1e-12)
        if infidelity is None:
            assert got.infidelity is None
        else:
            assert got.infidelity == pytest.approx(infidelity, rel=0, abs=1e-9)
    return rep


def synthetic_run(rng, rows, wires, spectators, members, phased=0):
    """Random unit-norm branch states with possible rows, frame codes and frame tables.

    Member 0 frames every row at random; member 1's frame differs from it
    by one code on every row; each later member differs by a code drawn
    per row. About a quarter of the rows are impossible, never the first.
    Then ``phased`` members follow whose frames differ from member 0's by
    one code δ on every row, with member 0's table moved by δ and times
    1, -1, i, -i in turn: each has member 0's targets up to a phase. The
    last of them has one entry moved 10 × ``_SHARE_TOL`` further.
    """
    dim = 1 << (wires + spectators)
    states = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    states *= np.sqrt(rng.uniform(0.1, 1.0, size=(rows, 1)))
    weights = np.einsum("ij,ij->i", states, states.conj()).real
    possible = (rng.random(rows) < 0.75) | (np.arange(rows) == 0)
    frames_count = 4**wires
    tables = rng.normal(size=(members, frames_count, dim)) + 0j
    tables += 1j * rng.normal(size=tables.shape)
    tables /= np.linalg.norm(tables, axis=2, keepdims=True)
    first = rng.integers(frames_count, size=rows)
    codes = [first, first ^ rng.integers(frames_count)]
    codes += [first ^ rng.integers(frames_count, size=rows) for _ in range(members - 2)]
    shifts = rng.integers(frames_count, size=phased)
    phases = np.resize([1, -1, 1j, -1j], phased)[:, None, None]
    moved = tables[0][np.arange(frames_count)[:, None] ^ shifts].transpose(1, 0, 2)
    tables = np.concatenate([tables, phases * moved])
    if phased:
        tables[-1, rng.integers(frames_count), rng.integers(dim)] += 10 * _SHARE_TOL
    frames = np.array(codes + [first ^ shift for shift in shifts])
    ens = BranchEnsemble([], [], states, weights, possible, [], {}, frames[0])
    return ens, frames, tables


@pytest.mark.parametrize("rows", [1, 200])
@pytest.mark.parametrize("spectators", [0, 2], ids=["product", "choi"])
@pytest.mark.parametrize("piece_rows", [None, 5], ids=["whole-groups", "pieces"])
def test_group_scoring_matches_the_per_row_formula(rows, spectators, piece_rows, monkeypatch):
    if piece_rows:
        monkeypatch.setattr("ppmbqc.verifier._PIECE_ROWS", piece_rows)
    rng = np.random.default_rng([rows, spectators])
    ens, frames, tables = synthetic_run(rng, rows, 2, spectators, members=4, phased=5)
    ok = ens.possible
    if rows > 1:
        assert len(np.unique(frames[2] ^ frames[0])) > 1
        assert not ok.all()
    # The four phased members read the lead's column; the perturbed one, past
    # the tolerance, and the random ones keep their own.
    order = np.argsort(frames[0][ok], kind="stable")
    start = _columns(frames, tables, ens.possible, order)[2].tolist()
    assert start[4:8] == [0] * 4
    assert 0 not in start[1:4] + start[8:]
    for keep in (True, False):
        worst, fids = _score(ens, frames, tables, keep)
        for m, member_frames in enumerate(frames):
            targets = tables[m][member_frames]
            want = np.abs(np.einsum("ij,ij->i", ens.states, targets)) ** 2 / ens.weights
            assert worst[m] == pytest.approx(
                (1.0 - want[ok]).max(initial=0.0), rel=0, abs=1e-12
            )
            if keep:
                assert fids[m][ok] == pytest.approx(want[ok], rel=0, abs=1e-12)
                assert (fids[m][~ok] == 0).all()
        assert (fids is None) == (not keep)


def test_group_scoring_of_a_run_without_possible_rows():
    ens, frames, tables = synthetic_run(np.random.default_rng(3), 16, 1, 1, members=3)
    ens.possible[:] = False
    worst, fids = _score(ens, frames, tables, True)
    assert (worst == 0).all() and (fids == 0).all()


def test_every_member_of_a_canonical_brick_run_shares_the_leads_column():
    # Each member's targets are the lead's up to a phase, so every run scores
    # one column: the product that keeps scoring on one BLAS thread.
    for settings in canonical_brick_settings():
        U = unitary_from_label(settings.label())
        for members, ens, frames, tables in _runs(brick(settings), U):
            order = np.argsort(frames[0][ens.possible], kind="stable")
            member, delta, start, pick = _columns(frames, tables, ens.possible, order)
            assert len(members) > 1 and ens.possible.any(), settings
            assert (member.tolist(), delta.tolist(), pick) == ([0], [0], {}), settings
            assert start.tolist() == [0] * len(members), settings


def with_choice(f, v, choice):
    meas = dict(f.pattern.measurements)
    meas[v] = Measurement(meas[v].var, choice)
    pattern = MeasurementPattern(f.pattern.graph, meas)
    return PatternFragment(pattern, f.inputs, f.outputs, f.input_errors, f.corrections, f.frames)


def mutants(f):
    """Single mutants of ``f``, each with the name of its kind.

    Flip a correction constant; make a correction read an input error; flip
    the first adaptive choice; and make the first constant choice read an
    input error that no choice reads yet, which splits the choice classes.
    """
    out, errs = f.outputs[0], f.error_variables()
    c, meas = f.corrections[out], f.pattern.measurements
    read = {v for m in meas.values() for v in m.choice.variables}
    unread = next(name for name in errs if name not in read)
    yield "correction-constant", with_corrections(
        f, {**f.corrections, out: Correction(c.zeta ^ BoolFn.one(), c.xi)}
    )
    yield "correction-error", with_corrections(
        f, {**f.corrections, out: Correction(c.zeta, c.xi ^ BoolFn.var(errs[-1]))}
    )
    adaptive = [v for v in sorted(meas) if not meas[v].choice.is_constant()]
    if adaptive:
        yield "choice-flip", with_choice(f, adaptive[0], meas[adaptive[0]].choice ^ BoolFn.one())
    constant = next(v for v in sorted(meas) if meas[v].choice.is_constant())
    yield "choice-error", with_choice(f, constant, meas[constant].choice ^ BoolFn.var(unread))


BUILTINS = ["xhalf", "e_t", "e_tdg", "e_h", "e_s", "e_t_nomiddle", "cz_on", "cz_off", "brick"]


@pytest.mark.parametrize("name", BUILTINS + [f"hier_m{k}" for k in range(1, 9)])
def test_shared_runs_match_one_enumeration_per_combination(name):
    from ppmbqc.fragments import builtin_fragment

    f, label = builtin_fragment(name)
    assert assert_matches_the_oracle(f, label).passed


@pytest.mark.parametrize(
    "frag, label, kinds",
    [(e_fragment("T"), "T", 4), (brick(BrickSettings("T", "HTH", 1)), "CZ*(TxHTH)", 4),
     (brick(BrickSettings("H", "S", 0)), "HxS", 3)],  # H x S has no adaptive choice
    ids=["e_t", "brick-T-HTH-1", "brick-H-S-0"],
)
def test_shared_runs_match_the_oracle_on_mutants(frag, label, kinds):
    runs = {}
    for kind, mutant in mutants(frag):
        rep = assert_matches_the_oracle(mutant, label)
        assert not rep.passed, kind
        runs[kind] = rep.amplitude_runs
    assert len(runs) == kinds
    assert runs["choice-error"] == 2 * runs["correction-error"]


def factoring_mutants(f):
    """Mutants whose corrections mix outcomes and input errors, each with its kind.

    A correction gains an outcome times an input error that no choice
    reads, on which the members of a shared run differ; a correction gains
    a product of two input errors; and a definition reads that outcome times
    error, and only a correction reads the definition.
    """
    out, errs = f.outputs[0], f.error_variables()
    c, meas = f.corrections[out], f.pattern.measurements
    read = {v for m in meas.values() for v in m.choice.variables}
    unread = next(name for name in errs if name not in read)
    mixed = BoolFn([[meas[measurement_order(f)[-1]].var, unread]])
    yield "outcome-times-error", with_corrections(
        f, {**f.corrections, out: Correction(c.zeta ^ mixed, c.xi)}
    )
    yield "error-product", with_corrections(
        f, {**f.corrections, out: Correction(c.zeta, c.xi ^ BoolFn([[errs[0], errs[-1]]]))}
    )
    yield "error-definition", PatternFragment(
        f.pattern, f.inputs, f.outputs, f.input_errors,
        {**f.corrections, out: Correction(c.zeta, c.xi ^ BoolFn.var("w"))}, {"w": mixed},
    )


@pytest.mark.parametrize(
    "frag, label, runs",
    [(e_fragment("T"), "T", 2), (brick(BrickSettings("T", "HTH", 1)), "CZ*(TxHTH)", 4)],
    ids=["e_t", "brick-T-HTH-1"],
)
def test_factored_corrections_match_the_oracle(frag, label, runs):
    from ppmbqc.pattern import flatten
    from ppmbqc.verifier import _runs

    combos = list(error_combos(frag))
    assert assert_matches_the_oracle(frag, label).amplitude_runs == runs
    for kind, mutant in factoring_mutants(frag):
        rep = assert_matches_the_oracle(mutant, label)
        # No choice reads the new terms, so no class splits: the definition
        # keeps its value at a run's first member and factors like the rest.
        assert rep.amplitude_runs == runs, kind
        # Every member's frames against its substituted corrections, evaluated
        # row by row on the run's outcomes and the member's own error bits.
        flat = flatten(mutant)
        for members, ens, frames, _ in _runs(mutant, unitary_from_label(label)):
            for c, got in zip(members, frames):
                env = dict(zip(ens.names, ens.outcomes))
                for name, b in zip(mutant.error_variables(), combos[c][1]):
                    env[name] = np.full(len(got), b, dtype=np.uint8)
                corrections = [flat.corrections[o] for o in mutant.outputs]
                want = [[k.zeta.evaluate_rows(env), k.xi.evaluate_rows(env)] for k in corrections]
                got = frame_bits(got, len(mutant.outputs))
                assert np.array_equal(got, np.moveaxis(want, -1, 0)), kind


def test_worst_only_and_recording_scores_agree():
    f = brick(BrickSettings("T", "HTH", 1))
    label = "CZ*(TxHTH)"
    mixed = dict(factoring_mutants(f))["outcome-times-error"]
    for frag in (f, mixed):
        bare = verify_fragment(frag, label, keep_branches=False)
        kept = verify_fragment(frag, label, keep_branches=True)
        assert bare.records == []
        assert len(kept.records) == kept.branch_count + kept.impossible_count
        assert kept.worst_infidelity == bare.worst_infidelity
        recorded = [r.infidelity for r in kept.records if r.infidelity is not None]
        assert max(recorded) == bare.worst_infidelity
        assert bare.passed == kept.passed == (frag is f)


def composed(a, b):
    return compose(a, b, {a.outputs[0]: b.inputs[0]})


@pytest.mark.parametrize(
    "frag, label, runs",
    [
        (composed(xhalf_fragment(), xhalf_fragment()), "X(pi/2)*X(pi/2)", 1),
        (composed(e_fragment("T"), e_fragment("T")), "T*T", 2),
        (composed(e_fragment("H"), e_fragment("T")), "T*H", 2),
    ],
    ids=["xhalf-xhalf", "e_t-e_t", "e_h-e_t"],
)
def test_composed_fragments_keep_their_shared_runs(frag, label, runs):
    # Composing binds the second piece's input errors to definitions of the
    # first's; only the errors that a choice reads through them split the
    # classes, as in the pieces: xhalf has no such choice, e_t reads x.
    assert frag.frames
    rep = assert_matches_the_oracle(frag, label)
    assert rep.passed and rep.amplitude_runs == runs
    assert len(infer_corrections(frag, label)) == len(frag.outputs)


def test_a_choice_reading_an_error_through_a_definition_splits_its_class():
    # e_t's last choice reads the input's x; here it reads x only through w.
    f = e_fragment("T")
    ((v, m),) = [(v, m) for v, m in f.pattern.measurements.items() if "x" in m.choice.variables]
    choice = m.choice ^ BoolFn.var("x") ^ BoolFn.var("w")
    meas = {**f.pattern.measurements, v: Measurement(m.var, choice)}
    g = PatternFragment(
        MeasurementPattern(f.pattern.graph, meas), f.inputs, f.outputs, f.input_errors,
        f.corrections, {"w": BoolFn.var("x")},
    )
    assert all("x" not in m.choice.variables for m in g.pattern.measurements.values())
    rep = assert_matches_the_oracle(g, "T")
    assert rep.passed and rep.amplitude_runs == 2  # x splits the class, z does not


def per_combination_fit(f, label):
    """Corrections fitted from one enumeration per error combination."""
    U, n = unitary_from_label(label), len(f.inputs)
    targets = _frame_table(U / math.sqrt(1 << n), n).T
    codes = []
    for errs, _ in error_combos(f):
        ens = enumerate_fragment(f, choi_input(n), errs, n)
        ok = ens.possible
        fids = np.abs(ens.states @ targets) ** 2 / np.where(ok, ens.weights, 1.0)[:, None]
        assert ((fids > 1.0 - FIT_TOL).sum(axis=1)[ok] == 1).all()
        codes.append(np.where(ok, fids.argmax(axis=1), 0))
    names = [*f.error_variables(), *(f.pattern.measurements[v].var for v in measurement_order(f))]
    table = frame_bits(np.concatenate(codes), n)
    return {
        o: Correction(mobius_anf(table[:, w, 0], names), mobius_anf(table[:, w, 1], names))
        for w, o in enumerate(f.outputs)
    }


@pytest.mark.parametrize(
    "name", ["e_t", "e_tdg", "e_h", "e_s", "e_t_nomiddle", "hier_m1", "hier_m2", "hier_m3"]
)
def test_inference_matches_one_fit_per_combination(name):
    from ppmbqc.fragments import builtin_fragment

    f, label = builtin_fragment(name)
    stripped = with_corrections(
        f, {v: Correction(BoolFn.zero(), BoolFn.zero()) for v in f.outputs}
    )
    assert infer_corrections(stripped, label) == per_combination_fit(stripped, label)


# -- what an exhaustive run builds -------------------------------------------


def _builtins_and_bricks():
    from ppmbqc.fragments import builtin_fragment, builtin_names

    names = [name for name in builtin_names() if "{" not in name] + ["hier_m2", "hier_m4"]
    cases = {f"builtin:{name}": builtin_fragment(name) for name in names}
    triples = list(product(LEFT_LANE_GATES, RIGHT_LANE_GATES, (0, 1)))
    for i in np.random.default_rng(26).choice(len(triples), size=10, replace=False):
        settings = BrickSettings(*triples[i])
        cases["brick:" + "-".join(map(str, triples[i]))] = (brick(settings), settings.label())
    return cases


_CASES = _builtins_and_bricks()


@pytest.mark.parametrize("case", list(_CASES))
def test_one_stacked_call_gives_every_shift_its_frame_table(case):
    f, label = _CASES[case]
    U, n = unitary_from_label(label), len(f.inputs)
    # The first run is framed by combination 0 and holds every shift of its class.
    members, _, _, tables = next(_runs(f, U))
    assert members[0] == 0
    bases = U @ apply_frames(members, np.eye(1 << n), n) / math.sqrt(1 << n)
    for c, base, table in zip(members, bases, tables):
        assert np.array_equal(table, _frame_table(base, n)), c


def test_a_certificate_that_keeps_no_records_builds_no_outcome_bits(monkeypatch):
    builds = []
    for name in ("outcomes", "choices"):
        build = BranchEnsemble.__dict__[name].func
        counted = property(lambda ens, build=build: builds.append(build) or build(ens))
        monkeypatch.setattr(BranchEnsemble, name, counted)
    for case in [case for case in _CASES if case.startswith("builtin:")]:
        assert verify_fragment(*_CASES[case], keep_branches=False).passed
    assert builds == []
    f, label = _CASES["builtin:e_t"]
    assert verify_fragment(f, label, keep_branches=True).records
    assert builds  # records read the outcomes


def test_a_target_wider_than_its_fragment_is_refused_before_any_kron(monkeypatch, capsys):
    def kron(*args):
        pytest.fail("built a product wider than the fragment")

    monkeypatch.setattr("ppmbqc.unitaries.kron", kron)
    label = "Tx" * 11 + "T"  # 12 qubits, within the label cap
    message = f"{label!r} names a 12-qubit product for arity 1"
    with pytest.raises(PpmError, match=re.escape(message)):
        verify_fragment(xhalf_fragment(), label)
    assert main(["--json", "verify", "builtin:xhalf", "--target", label]) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]
