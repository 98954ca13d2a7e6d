"""Brute-force certification of pattern fragments.

The primary check entangles every input wire with a reference qubit, runs
the fragment once per outcome branch and input-error combination, and
compares each branch against the advertised gate dressed with the declared
Pauli frame. One maximally entangled input certifies the whole channel, so
a passing report is a proof by exhaustion at machine precision.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .boolfn import mobius_anf
from .errors import DimensionError, InferenceError, TableDerivationError
from .executor import (
    BranchEnsemble,
    OutcomeSource,
    _execute,
    enumerate_fragment,
    measurement_order,
)
from .fragments import LEFT_LANE_GATES, RIGHT_LANE_GATES, BrickSettings, brick
from .pattern import BASIS_BY_CHOICE, Correction, PatternFragment
from .statevec import DEFAULT_QUBIT_CAP, IMPOSSIBLE_PROB, Statevector
from .unitaries import frame_bits, frame_codes, is_unitary, pauli_product, unitary_from_label

FIT_TOL = 1e-7
# Largest truth table, in outcome and error bits, that inference will fit.
MAX_TABLE_BITS = 20


@dataclass(frozen=True)
class BranchRecord:
    error_bits: tuple[int, ...]
    outcomes: tuple[int, ...]
    probability: float
    frame: tuple[tuple[int, int], ...]
    infidelity: float | None

    def to_dict(self) -> dict:
        return {
            "error_bits": list(self.error_bits),
            "outcomes": list(self.outcomes),
            "probability": self.probability,
            "frame": [list(zx) for zx in self.frame],
            "infidelity": self.infidelity,
        }


@dataclass
class VerificationReport:
    target_label: str
    tolerance: float
    mode: str
    measured_count: int
    branch_count: int
    impossible_count: int
    worst_infidelity: float
    probability_totals: list[float]
    passed: bool
    records: list[BranchRecord] = field(default_factory=list)

    def to_dict(self, include_branches: bool | None = None) -> dict:
        if include_branches is None:
            include_branches = len(self.records) <= 4096
        out = {
            "target": self.target_label,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "measured_count": self.measured_count,
            "branch_count": self.branch_count,
            "impossible_count": self.impossible_count,
            "worst_infidelity": self.worst_infidelity,
            "probability_totals": self.probability_totals,
            "pass": self.passed,
        }
        if include_branches:
            out["branches"] = [r.to_dict() for r in self.records]
        return out

    def to_json(self, include_branches: bool | None = None) -> str:
        return json.dumps(self.to_dict(include_branches), indent=2, sort_keys=True)


def _as_matrix(target: np.ndarray | str) -> tuple[np.ndarray, str]:
    if isinstance(target, str):
        return unitary_from_label(target), target
    return np.asarray(target, dtype=complex), "matrix"


def choi_input(wires: int) -> Statevector:
    """Bell pairs, wire block first then reference block."""
    dim = 1 << wires
    amps = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)
    return Statevector(2 * wires, amps)


def _error_combos(inputs: tuple[int, ...]):
    """All (z, x) bit pairs keyed by input vertex, in frame-code order."""
    for bits in frame_bits(np.arange(1 << (2 * len(inputs))), len(inputs)).tolist():
        yield dict(zip(inputs, map(tuple, bits))), tuple(b for zx in bits for b in zx)


def _row_frames(f: PatternFragment, ens: BranchEnsemble) -> np.ndarray:
    """Each row's declared output frame as ``(rows, wires, 2)`` bits."""
    env, rows = ens.full_env_rows(), ens.states.shape[0]
    fns = [fn for o in f.outputs for fn in (f.corrections[o].zeta, f.corrections[o].xi)]
    bits = np.array([np.broadcast_to(fn.evaluate_rows(env), rows) for fn in fns])
    return bits.T.reshape(rows, len(f.outputs), 2)


def _frame_targets(base: np.ndarray, wires: int):
    """Cached map from a frame code to ``base`` dressed with that frame, flattened."""

    @functools.cache
    def expected(code: int) -> np.ndarray:
        return (pauli_product(frame_bits(code, wires).tolist()) @ base).reshape(-1)

    return expected


def _branch_fidelities(ens: BranchEnsemble, frames: np.ndarray, expected_for):
    """Per-row fidelity against ``expected_for`` at the code of the row's frame.

    A row is possible when its weight (squared norm) reaches the impossible
    threshold; shots carry their branch probability in ``ens.scale``
    instead. Returns ``(probabilities, possible, fidelities)``; an
    impossible row's fidelity is left at 0.
    """
    weights = ens.weights()
    ok = weights >= IMPOSSIBLE_PROB
    codes = frame_codes(frames)
    # Impossible rows borrow a possible row's code, so only seen frames are built.
    seen, which = np.unique(np.where(ok, codes, codes[ok.argmax()]), return_inverse=True)
    targets = np.array([expected_for(int(c)) for c in seen]).conj()
    overlaps = np.abs(np.einsum("ij,ij->i", ens.states, targets[which])) ** 2
    fids = np.divide(overlaps, weights, out=np.zeros(len(weights)), where=ok)
    return ens.scale * weights, ok, fids


def verify_fragment(
    f: PatternFragment,
    target: np.ndarray | str,
    tol: float = 1e-9,
    branches: str | tuple[str, int] = "all",
    seed: int = 0xC0FFEE,
    keep_branches: bool | None = None,
) -> VerificationReport:
    """Certify that a fragment implements its advertised gate.

    Checks, for every outcome branch and every input Pauli-error
    combination, that the output equals the frame-dressed target on a
    maximally entangled input. ``branches`` is ``"all"`` for exhaustive
    enumeration or ``("sample", k)`` for k seeded runs per error combo;
    ``tol`` is the worst accepted infidelity, strictly between 0 and 1.
    """
    U, label = _as_matrix(target)
    n_in, n_out = len(f.inputs), len(f.outputs)
    if n_in != n_out:
        raise DimensionError("equal input/output arity required for this check")
    if U.shape != (1 << n_out, 1 << n_in):
        raise DimensionError(f"target shape {U.shape} does not match arity {n_in}")
    if not is_unitary(U):
        raise DimensionError("target is not unitary")
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")

    measured = len(f.pattern.measurements)
    exhaustive = branches == "all"
    sample_count = 0 if exhaustive else int(branches[1])
    if not exhaustive and (branches[0] != "sample" or sample_count < 1):
        raise ValueError(f"branches must be 'all' or ('sample', k >= 1): {branches!r}")
    records: list[BranchRecord] = []
    worst = 0.0
    totals: list[float] = []
    possible = impossible = 0

    expected_for = _frame_targets(U / math.sqrt(1 << n_in), n_out)  # Choi vectors
    keep = keep_branches
    if keep is None:
        keep = (1 << measured) * (1 << (2 * n_in)) <= 4096 or not exhaustive

    for combo, (errs, err_bits) in enumerate(_error_combos(f.inputs)):
        if exhaustive:
            runs = [enumerate_fragment(f, choi_input(n_in), errs, n_in)]
        else:
            base = seed * 0x9E3779B1 + combo * 1009
            runs = (
                _execute(
                    f, OutcomeSource.seeded((base + k) & 0x7FFFFFFF),
                    choi_input(n_in), errs, n_in, DEFAULT_QUBIT_CAP,
                )
                for k in range(sample_count)
            )
        total = 0.0
        for ens in runs:
            frames = _row_frames(f, ens)
            probs, ok, fids = _branch_fidelities(ens, frames, expected_for)
            total += float(probs.sum())
            possible += int(ok.sum())
            impossible += int((~ok).sum())
            if ok.any():
                worst = max(worst, float((1.0 - fids[ok]).max()))
            if not keep:
                continue
            outcomes = [ens.env[f.pattern.measurements[v].var] for v in ens.order]
            for r, frame in enumerate(frames.tolist()):
                records.append(
                    BranchRecord(
                        err_bits,
                        tuple(int(bits[r]) for bits in outcomes),
                        float(probs[r]) if ok[r] else 0.0,
                        tuple(map(tuple, frame)),
                        float(1.0 - fids[r]) if ok[r] else None,
                    )
                )
        totals.append(total)

    prob_ok = (
        all(abs(t - 1.0) < 1e-9 for t in totals) if exhaustive else True
    )
    passed = worst < tol and prob_ok
    return VerificationReport(
        target_label=label,
        tolerance=tol,
        mode="all" if exhaustive else f"sample:{sample_count}",
        measured_count=measured,
        branch_count=possible,
        impossible_count=impossible,
        worst_infidelity=worst,
        probability_totals=totals,
        passed=passed,
        records=records,
    )


PRODUCT_INPUT_STATES = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "i+": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "i-": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}


def verify_fragment_product_inputs(
    f: PatternFragment,
    target: np.ndarray | str,
    with_errors: bool = True,
) -> float:
    """Independent cross-check: sweep product inputs instead of Bell pairs.

    Returns the worst infidelity over all branches and product inputs from
    a spanning single-qubit set; ``with_errors`` additionally sweeps every
    input Pauli-error combination.
    """
    U, _ = _as_matrix(target)
    n_in = len(f.inputs)
    n_out = len(f.outputs)
    worst = 0.0
    combos = list(_error_combos(f.inputs)) if with_errors else [({}, ())]
    for labels in product(PRODUCT_INPUT_STATES, repeat=n_in):
        vec = np.array([1.0], dtype=complex)
        for name in labels:
            vec = np.kron(vec, PRODUCT_INPUT_STATES[name])
        state = Statevector(n_in, vec)
        expected_for = _frame_targets(U @ vec, n_out)
        for errs, _bits in combos:
            ens = enumerate_fragment(f, state, errs)
            _, ok, fids = _branch_fidelities(ens, _row_frames(f, ens), expected_for)
            if ok.any():
                worst = max(worst, float((1.0 - fids[ok]).max()))
    return worst


def infer_corrections(
    f: PatternFragment,
    target: np.ndarray | str,
    tol: float = 1e-9,
) -> dict[int, Correction]:
    """Fit exact ANF correction polynomials from branch-wise Pauli solves.

    Any corrections already on the fragment are ignored. For every branch
    and error combination the unique per-wire Pauli making the branch equal
    the target is found through the entangled-input overlap; the resulting
    truth tables are converted to polynomials with the exact GF(2) Moebius
    transform and certified before being returned.
    """
    U, label = _as_matrix(target)
    n_in, n_out = len(f.inputs), len(f.outputs)
    if U.shape != (1 << n_out, 1 << n_in):
        raise DimensionError("target shape mismatch")
    out_names = [f.pattern.measurements[v].var for v in measurement_order(f)]
    err_names = [name for v in f.inputs for name in f.input_errors[v]]
    names = err_names + out_names
    k = len(names)
    if k > MAX_TABLE_BITS:
        raise InferenceError(f"truth table over {k} bits exceeds the budget")

    expected_for = _frame_targets(U / math.sqrt(1 << n_in), n_out)
    targets = np.array([expected_for(c) for c in range(1 << (2 * n_out))]).conj().T
    codes = np.zeros((1 << (2 * n_in), 1 << len(out_names)), dtype=np.int64)
    for combo, (errs, err_bits) in enumerate(_error_combos(f.inputs)):
        ens = enumerate_fragment(f, choi_input(n_in), errs, spectators=n_in)
        weights = ens.weights()
        ok = weights >= IMPOSSIBLE_PROB
        fids = np.abs(ens.states @ targets) ** 2 / np.where(ok, weights, 1.0)[:, None]
        hits = fids > 1.0 - FIT_TOL
        n_hits = hits.sum(axis=1)
        bad = np.nonzero(ok & (n_hits != 1))[0]
        if len(bad):
            raise InferenceError(
                f"branch {int(bad[0])} of error combo {err_bits} admits "
                f"{int(n_hits[bad[0]])} Pauli solutions against {label}"
            )
        # Impossible branches are don't-cares and stay at 0.
        codes[combo] = np.where(ok, hits.argmax(axis=1), 0)

    # Combos count up in frame-code order and row r of an enumeration packs
    # the outcomes in order, first one most significant, so the flat codes
    # are the truth table over ``names``.
    table = frame_bits(codes.reshape(-1), n_out)
    fitted = {
        o: Correction(mobius_anf(table[:, w, 0], names), mobius_anf(table[:, w, 1], names))
        for w, o in enumerate(f.outputs)
    }
    candidate = with_corrections(f, fitted)
    report = verify_fragment(candidate, U, tol=tol, keep_branches=False)
    if not report.passed:
        raise InferenceError(
            f"fitted corrections fail certification (worst infidelity"
            f" {report.worst_infidelity:.3e})"
        )
    return fitted


def with_corrections(f: PatternFragment, corr: dict[int, Correction]) -> PatternFragment:
    return PatternFragment(f.pattern, f.inputs, f.outputs, f.input_errors, corr)


def classify_unitary(
    U: np.ndarray,
    dictionary: dict[str, np.ndarray],
    threshold: float = 1.0 - 1e-9,
) -> str | None:
    """Name a unitary by normalized trace overlap, or return None."""
    U = np.asarray(U, dtype=complex)
    if not is_unitary(U):
        raise DimensionError("input deviates from unitarity beyond 1e-9")
    dim = U.shape[0]
    best_label, best_score = None, 0.0
    for name, V in dictionary.items():
        if V.shape != U.shape:
            continue
        score = abs(np.trace(V.conj().T @ U)) / dim
        if score > best_score:
            best_label, best_score = name, score
    return best_label if best_score > threshold else None


def classify_up_to_frame(
    U: np.ndarray,
    dictionary: dict[str, np.ndarray],
    wires: int,
    threshold: float = 1.0 - 1e-9,
) -> tuple[str, tuple[tuple[int, int], ...]] | None:
    """Classify allowing an extra per-wire Pauli frame in front."""
    for bits in frame_bits(np.arange(1 << (2 * wires)), wires).tolist():
        P = pauli_product(bits)
        label = classify_unitary(P.conj().T @ U, dictionary, threshold)
        if label is not None:
            return label, tuple(map(tuple, bits))
    return None


def operator_schmidt_rank(U: np.ndarray, rel_tol: float = 1e-9) -> int:
    """Rank of a two-qubit operator across the wire bipartition."""
    M = np.asarray(U, dtype=complex).reshape(2, 2, 2, 2)
    M = M.transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(M, compute_uv=False)
    return int((s > rel_tol * s[0]).sum())


def branch_operator(states: np.ndarray, row: int, wires: int) -> np.ndarray:
    """Extract the conditional linear map of one branch from Choi output."""
    dim = 1 << wires
    M = states[row].reshape(dim, dim) * math.sqrt(dim)
    norm = np.linalg.norm(M) / math.sqrt(dim)
    if norm < 1e-9:
        raise InferenceError("branch has no support")
    return M / norm


# -- brick table -------------------------------------------------------


def standard_dictionary() -> dict[str, np.ndarray]:
    labels = [
        "I", "X", "Y", "Z", "H", "S", "Sdg", "T", "Tdg",
        "HSH", "HSHS", "HTH", "HTdgH", "X(pi/2)",
        "CZ", "CNOT", "(SxS)*CZ", "SxS",
    ]
    return {name: unitary_from_label(name) for name in labels}


def _lane_dictionary() -> dict[str, np.ndarray]:
    labels = (
        BrickSettings(l, r, cz).label()
        for l in LEFT_LANE_GATES
        for r in RIGHT_LANE_GATES
        for cz in (0, 1)
    )
    return {label: unitary_from_label(label) for label in labels}


def _basis_assignment(f: PatternFragment) -> dict[str, str]:
    out = {}
    for _, m in sorted(f.pattern.measurements.items()):
        c = m.choice
        out[m.var] = BASIS_BY_CHOICE[c.constant_value()] if c.is_constant() else "ADAPT"
    return out


@dataclass
class BrickTableEntry:
    left: str
    right: str
    cz: int
    label: str
    bases: dict[str, str]
    worst_infidelity: float
    branch_count: int

    def to_dict(self) -> dict:
        return {
            "left": self.left,
            "right": self.right,
            "cz": self.cz,
            "label": self.label,
            "bases": self.bases,
            "worst_infidelity": self.worst_infidelity,
            "branch_count": self.branch_count,
        }


ADVERTISED_LANE_GATES = ("H", "S", "HSH", "HSHS", "HTH", "T")


def canonical_brick_settings() -> list[BrickSettings]:
    """One witness per advertised gate and switch state, plus extras."""
    rows = []
    for cz in (0, 1):
        rows.append(BrickSettings("PAD", "PAD", cz))
        for gate in ADVERTISED_LANE_GATES + ("Tdg", "HTdgH"):
            if gate in LEFT_LANE_GATES:
                rows.append(BrickSettings(gate, "PAD", cz))
            else:
                rows.append(BrickSettings("PAD", gate, cz))
    return rows


def scan_brick_settings(seed: int = 0xC0FFEE) -> dict[tuple[str, str, int], str]:
    """Cheap classification sweep over every realizable settings triple.

    Runs a single sampled branch per triple and classifies the conditional
    map up to a Pauli frame. Full certification is reserved for the table.
    """
    dictionary = _lane_dictionary()
    out = {}
    for l in LEFT_LANE_GATES:
        for r in RIGHT_LANE_GATES:
            for cz in (0, 1):
                frag = brick(BrickSettings(l, r, cz))
                src = OutcomeSource.seeded(seed)
                ens = _execute(frag, src, choi_input(2), None, 2, DEFAULT_QUBIT_CAP)
                M = branch_operator(ens.states, 0, 2)
                hit = classify_up_to_frame(M, dictionary, wires=2, threshold=1 - 1e-7)
                if hit is None:
                    raise TableDerivationError(
                        f"settings ({l},{r},cz={cz}) classify as nothing"
                    )
                out[(l, r, cz)] = hit[0]
    return out


def derive_brick_table(tol: float = 1e-9) -> list[BrickTableEntry]:
    """Derive and certify the settings table for the 16-qubit brick.

    Every advertised lane gate together with both switch states receives a
    witness row; each emitted row is verified branch-exhaustively over all
    input-error combinations. A missing witness raises, signalling a
    topology transcription error.
    """
    entries = []
    covered: set[tuple[str, int]] = set()
    for settings in canonical_brick_settings():
        frag = brick(settings)
        report = verify_fragment(frag, settings.label(), tol=tol, keep_branches=False)
        if not report.passed:
            raise TableDerivationError(
                f"witness {settings} fails certification"
                f" (worst infidelity {report.worst_infidelity:.3e})"
            )
        entries.append(
            BrickTableEntry(
                settings.left,
                settings.right,
                settings.cz,
                settings.label(),
                _basis_assignment(frag),
                report.worst_infidelity,
                report.branch_count,
            )
        )
        for gate in (settings.left, settings.right):
            covered.add((gate, settings.cz))
    for gate in ADVERTISED_LANE_GATES:
        for cz in (0, 1):
            if (gate, cz) not in covered:
                raise TableDerivationError(f"no witness for {gate} with cz={cz}")
    return entries


def brick_table_to_json(entries: list[BrickTableEntry]) -> str:
    return json.dumps(
        {"schema_version": 1, "entries": [e.to_dict() for e in entries]},
        indent=2,
        sort_keys=True,
    )
