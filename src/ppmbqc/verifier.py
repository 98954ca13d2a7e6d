"""Brute-force certification of pattern fragments.

The primary check entangles every input wire with a reference qubit, runs
the fragment once per outcome branch and input-error combination, and
compares each branch against the advertised gate dressed with the declared
Pauli frame. One maximally entangled input certifies the whole channel, so
a passing report is a proof by exhaustion at machine precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
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
from .fragments import LEFT_LANE_GATES, BrickSettings, brick
from .pattern import BASIS_BY_CHOICE, Correction, PatternFragment
from .statevec import Statevector
from .unitaries import apply_frames, frame_bits, frame_codes, is_unitary, unitary_from_label

FIT_TOL = 1e-7
# Largest number of branch records a report keeps by default; its JSON lists what it kept.
MAX_RECORDS = 4096
# Largest truth table, in outcome and error bits, that inference will fit.
MAX_TABLE_BITS = 20


@dataclass(frozen=True)
class BranchRecord:
    error_bits: tuple[int, ...]
    outcomes: tuple[int, ...]
    probability: float
    frame: tuple[tuple[int, int], ...]
    infidelity: float | None


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

    def to_dict(self) -> dict:
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
        if self.records:
            out["branches"] = [asdict(r) for r in self.records]
        return out


def _checked_target(f: PatternFragment, target: np.ndarray | str) -> tuple[np.ndarray, str]:
    """The target as a matrix with its label, checked against the fragment."""
    named = isinstance(target, str)
    U = unitary_from_label(target) if named else np.asarray(target, dtype=complex)
    n = len(f.inputs)
    if len(f.outputs) != n:
        raise DimensionError("equal input/output arity required for this check")
    if U.shape != (1 << n, 1 << n):
        raise DimensionError(f"target shape {U.shape} does not match arity {n}")
    if not is_unitary(U):
        raise DimensionError("target is not unitary")
    return U, target if named else "matrix"


def _sample_count(branches: str | tuple[str, int]) -> int:
    """Seeded runs per error combination; 0 means exhaustive enumeration."""
    if branches == "all":
        return 0
    kind, k = branches if isinstance(branches, tuple) and len(branches) == 2 else ("", 0)
    if kind == "sample" and type(k) is int and k >= 1:  # bool is not a count
        return k
    raise ValueError(f"branches must be 'all' or ('sample', k >= 1): {branches!r}")


def choi_input(wires: int) -> Statevector:
    """Bell pairs, wire block first then reference block."""
    dim = 1 << wires
    amps = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)
    return Statevector(2 * wires, amps)


def _error_combos(inputs: tuple[int, ...]):
    """All (z, x) bit pairs keyed by input vertex, in frame-code order."""
    for bits in frame_bits(np.arange(1 << (2 * len(inputs))), len(inputs)).tolist():
        yield dict(zip(inputs, map(tuple, bits))), tuple(b for zx in bits for b in zx)


def _frame_table(base: np.ndarray, wires: int) -> np.ndarray:
    """``base`` dressed with every frame, flattened and conjugated; row c is code c.

    ``base`` has one row per basis state of the ``wires`` output wires.
    """
    frames = 1 << (2 * wires)
    return apply_frames(np.arange(frames), base, wires).reshape(frames, -1).conj()


def _branch_fidelities(ens: BranchEnsemble, table: np.ndarray) -> np.ndarray:
    """Per-row fidelity against the ``_frame_table`` row of the row's frame.

    Rows the engine marked impossible keep fidelity 0.
    """
    targets = table[frame_codes(ens.frames)]
    overlaps = np.abs(np.einsum("ij,ij->i", ens.states, targets)) ** 2
    return np.divide(overlaps, ens.weights, out=np.zeros(len(overlaps)), where=ens.possible)


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
    U, label = _checked_target(f, target)
    n = len(f.inputs)
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")

    measured = len(f.pattern.measurements)
    sample_count = _sample_count(branches)
    exhaustive = sample_count == 0
    records: list[BranchRecord] = []
    worst = 0.0
    totals: list[float] = []
    possible = impossible = 0

    table = _frame_table(U / math.sqrt(1 << n), n)
    # Both modes know their record count up front: the rows of one error
    # combination times the 4^n combinations.
    rows = (1 << measured) if exhaustive else sample_count
    keep = rows << (2 * n) <= MAX_RECORDS if keep_branches is None else keep_branches

    for combo, (errs, err_bits) in enumerate(_error_combos(f.inputs)):
        if exhaustive:
            runs = [enumerate_fragment(f, choi_input(n), errs, n)]
        else:
            base = seed * 0x9E3779B1 + combo * 1009
            seeds = ((base + k) & 0x7FFFFFFF for k in range(sample_count))
            runs = (
                _execute(f, OutcomeSource.seeded(s), choi_input(n), errs, n) for s in seeds
            )
        total = 0.0
        for ens in runs:
            fids = _branch_fidelities(ens, table)
            probs, ok = ens.probabilities, ens.possible
            total += float(probs.sum())
            possible += int(ok.sum())
            impossible += int((~ok).sum())
            if ok.any():
                worst = max(worst, float((1.0 - fids[ok]).max()))
            if not keep:
                continue
            for r, frame in enumerate(ens.frames.tolist()):
                records.append(
                    BranchRecord(
                        err_bits,
                        tuple(int(bits[r]) for bits in ens.outcomes),
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
    U, _ = _checked_target(f, target)
    n = len(f.inputs)
    worst = 0.0
    combos = list(_error_combos(f.inputs)) if with_errors else [({}, ())]
    for labels in product(PRODUCT_INPUT_STATES, repeat=n):
        vec = np.array([1.0], dtype=complex)
        for name in labels:
            vec = np.kron(vec, PRODUCT_INPUT_STATES[name])
        state = Statevector(n, vec)
        table = _frame_table(U @ vec, n)
        for errs, _bits in combos:
            ens = enumerate_fragment(f, state, errs)
            fids = _branch_fidelities(ens, table)
            if ens.possible.any():
                worst = max(worst, float((1.0 - fids[ens.possible]).max()))
    return worst


def infer_corrections(
    f: PatternFragment,
    target: np.ndarray | str,
) -> dict[int, Correction]:
    """Fit exact ANF correction polynomials from branch-wise Pauli solves.

    Any corrections already on the fragment are ignored. For every branch
    and error combination the unique per-wire Pauli making the branch equal
    the target is found through the entangled-input overlap; the resulting
    truth tables are converted to polynomials with the exact GF(2) Moebius
    transform and certified before being returned.
    """
    U, label = _checked_target(f, target)
    n = len(f.inputs)
    out_names = [f.pattern.measurements[v].var for v in measurement_order(f)]
    err_names = [name for v in f.inputs for name in f.input_errors[v]]
    names = err_names + out_names
    k = len(names)
    if k > MAX_TABLE_BITS:
        raise InferenceError(f"truth table over {k} bits exceeds the budget")

    targets = _frame_table(U / math.sqrt(1 << n), n).T
    codes = np.zeros((1 << (2 * n), 1 << len(out_names)), dtype=np.int64)
    for combo, (errs, err_bits) in enumerate(_error_combos(f.inputs)):
        ens = enumerate_fragment(f, choi_input(n), errs, spectators=n)
        ok = ens.possible
        fids = np.abs(ens.states @ targets) ** 2 / np.where(ok, ens.weights, 1.0)[:, None]
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
    table = frame_bits(codes.reshape(-1), n)
    fitted = {
        o: Correction(mobius_anf(table[:, w, 0], names), mobius_anf(table[:, w, 1], names))
        for w, o in enumerate(f.outputs)
    }
    candidate = with_corrections(f, fitted)
    report = verify_fragment(candidate, U, keep_branches=False)
    if not report.passed:
        raise InferenceError(
            f"fitted corrections fail certification (worst infidelity"
            f" {report.worst_infidelity:.3e})"
        )
    return fitted


def with_corrections(f: PatternFragment, corr: dict[int, Correction]) -> PatternFragment:
    return PatternFragment(f.pattern, f.inputs, f.outputs, f.input_errors, corr, f.frames)


def operator_schmidt_rank(U: np.ndarray) -> int:
    """Rank of a two-qubit operator across the wire bipartition."""
    M = np.asarray(U, dtype=complex).reshape(2, 2, 2, 2)
    M = M.transpose(0, 2, 1, 3).reshape(4, 4)
    s = np.linalg.svd(M, compute_uv=False)
    return int((s > 1e-9 * s[0]).sum())


# -- brick table -------------------------------------------------------


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


def derive_brick_table(tol: float = 1e-9) -> list[BrickTableEntry]:
    """Derive and certify the settings table for the 16-qubit brick.

    Every advertised lane gate together with both switch states receives a
    witness row; each emitted row is verified branch-exhaustively over all
    input-error combinations.
    """
    entries = []
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
    return entries


def brick_table_to_json(entries: list[BrickTableEntry]) -> str:
    return json.dumps(
        {"schema_version": 1, "entries": [asdict(e) for e in entries]},
        indent=2,
        sort_keys=True,
    )
