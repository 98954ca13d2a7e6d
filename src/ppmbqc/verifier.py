"""Brute-force certification of pattern fragments.

The primary check entangles every input wire with a reference qubit and
compares every outcome branch under every input-error combination against
the advertised gate dressed with the declared Pauli frame. One maximally
entangled input certifies the whole channel, so a passing report is a proof
by exhaustion at machine precision.

On that input an input error is a Pauli on the reference side,
``(P ⊗ I)|Φ⟩ = (I ⊗ Pᵀ)|Φ⟩``, and the engine never touches the reference
qubits. So combinations that agree on every input error a choice reads,
directly or through definitions (a choice class), share one outcome tree,
its weights and its branch words, and their states differ by a reference
Pauli. The exhaustive mode runs one enumeration per class, framed by its
first combination ``r``, and scores combination ``c`` against the target
``U P_c† P_r``. The engine gives each combination the corrections of ``r``
plus row parts where their other input errors differ, and refuses a shared
run whose combinations a choice could tell apart.
Sampled runs stay one seeded run per combination and sample. Verification
and inference both draw their runs, with each member's frame table, from
the one generator :func:`_runs`. Combinations and the engine's output
frames are frame codes throughout, unpacked only for records and fits.

Scoring takes one real product per frame group (see :func:`_score`), its
rows sorted by the first member's frame code, and one column per distinct
target: a member whose targets are the lead's up to a phase reads the lead's.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .boolfn import mobius_anf
from .errors import DimensionError, InferenceError, TableDerivationError
from .executor import BranchEnsemble, OutcomeSource, _execute, _plan
from .fragments import LEFT_LANE_GATES, BrickSettings, brick
from .pattern import BASIS_BY_CHOICE, Correction, PatternFragment
from .statevec import Statevector
from .unitaries import apply_frames, frame_bits, is_unitary, unitary_from_label

FIT_TOL = 1e-7
# Largest number of branch records a report keeps by default; its JSON lists what it kept.
MAX_RECORDS = 4096
# Largest truth table, in outcome and error bits, that inference will fit.
MAX_TABLE_BITS = 20
# Most branch rows that one scoring product takes: it bounds the product's
# temporaries, and with them the heap that scoring leaves behind.
_PIECE_ROWS = 1024
_SHARE_TOL = 4 * np.finfo(float).eps  # four ulps of 1; see _columns


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
    amplitude_runs: int
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
            "amplitude_runs": self.amplitude_runs,
        }
        if self.records:
            out["branches"] = [asdict(r) for r in self.records]
        return out


def _checked_target(f: PatternFragment, target: np.ndarray | str) -> tuple[np.ndarray, str]:
    """The target as a matrix with its label, checked against the fragment."""
    n = len(f.inputs)
    if len(f.outputs) != n:
        raise DimensionError("equal input/output arity required for this check")
    named = isinstance(target, str)  # a label wider than n wires is refused unbuilt
    U = unitary_from_label(target, n) if named else np.asarray(target, dtype=complex)
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


def _frame_table(base: np.ndarray, wires: int) -> np.ndarray:
    """``base`` dressed with every frame, flattened and conjugated; row c is code c.

    ``base`` has one row per basis state of the ``wires`` output wires.
    """
    frames = 1 << (2 * wires)
    return apply_frames(np.arange(frames), base, wires).reshape(frames, -1).conj()


def _columns(frames: np.ndarray, tables: np.ndarray, possible: np.ndarray, order: np.ndarray):
    """The columns :func:`_score` takes for one run, as ``(member, delta, start, pick)``.

    In the group of lead code ``g``, column j is row ``g ^ delta[j]`` of
    ``tables[member[j]]``. Member m reads column ``start[m]``, or, if its
    ``δ`` varies over the ``possible`` rows, ``pick[m][i]`` on the i-th of
    them in ``order``. A member with one ``δ``, whose table row ``c ^ δ`` is the
    lead's row ``c`` times ±1 or ±i, each entry within ``_SHARE_TOL``, reads column 0:
    a fidelity then moves by at most ``2ε + ε²``, ``ε = _SHARE_TOL·√D`` for ``D`` entries.
    """
    if len(frames) == 1:  # a run of one member, as every sampled run is
        return np.zeros(1, np.intp), np.zeros(1, np.int64), np.zeros(1, np.intp), {}
    d = frames ^ frames[0]
    first = d[:, possible.argmax()]  # on a possible row, if there is one
    constant = ((d == first[:, None]) | ~possible).all(axis=1)
    shifted = tables[np.arange(len(d))[:, None], np.arange(len(tables[0])) ^ first[:, None]]
    matched = sum((np.abs(shifted - p * tables[0]) <= _SHARE_TOL).all(2) for p in (1, -1, 1j, -1j))
    member, delta, start, pick = [0], [0], np.zeros(len(d), dtype=np.intp), {}
    for m in np.flatnonzero(~(constant & matched.all(axis=1))):  # the lead shares its own
        start[m], values = len(member), first[m : m + 1]
        if not constant[m]:
            values, inverse = np.unique(d[m][possible], return_inverse=True)
            pick[m] = len(member) + inverse[order]
        member += [m] * len(values)
        delta += values.tolist()
    return np.array(member, dtype=np.intp), np.array(delta, dtype=np.int64), start, pick


def _score(
    ens: BranchEnsemble, frames: np.ndarray, tables: np.ndarray, keep: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Score every member of one run, one real matrix product per frame group.

    ``frames`` holds each member's output frame codes, ``(members, rows)``,
    as :func:`_execute` returns them, and ``tables[m]`` member m's
    ``_frame_table``. The possible rows are grouped by the first member's
    code ``g``. In that group member m's frame is ``g ^ δ`` with
    ``δ = frames[m] ^ frames[0]``, so its target is row ``g ^ δ`` of its
    table, one column per distinct target (:func:`_columns`). A group's real
    product, ``(rows, 2·d) @ (2·d, 2·columns)``, stays on one thread at one column.
    A group larger than ``_PIECE_ROWS`` rows takes one product per piece.
    Returns each member's worst infidelity over the possible rows, at
    least 0, and with ``keep`` every member's fidelity per row, 0 on the
    rows the engine marked impossible.
    """
    members, frame_count = len(frames), len(tables[0])
    fids = np.zeros((members, len(ens.possible))) if keep else None
    lowest = np.ones(members)
    ok = np.flatnonzero(ens.possible)
    lead = frames[0][ok]
    # A stable sort, on the engine's narrow codes; codes count up, so a
    # group's rows lie between the bounds of its code and the next.
    order = np.argsort(lead, kind="stable")
    rows, first = ok[order], lead[order]
    bounds = np.searchsorted(first, np.arange(frame_count + 1)).tolist()
    member, delta, start, pick = _columns(frames, tables, ens.possible, order)
    # Per group, entry k of each target over i times it: as floats, the overlap's two parts.
    targets = tables[member, np.arange(frame_count)[:, None] ^ delta]
    real = np.stack([targets, 1j * targets], axis=1).transpose(0, 3, 1, 2)
    real = np.ascontiguousarray(real).reshape(frame_count, -1, len(member)).view(float)
    inv_weights = 1.0 / ens.weights[rows, None]
    pieces = (
        (g, lo, min(lo + _PIECE_ROWS, end))
        for g, (begin, end) in enumerate(zip(bounds, bounds[1:]))
        for lo in range(begin, end, _PIECE_ROWS)
    )
    for g, lo, hi in pieces:
        # The piece's states, gathered by np.take, which outpaces fancy indexing.
        parts = np.square(np.take(ens.states, rows[lo:hi], axis=0).view(float) @ real[g])
        fid = (parts[:, 0::2] + parts[:, 1::2]) * inv_weights[lo:hi]
        # Rows by members; with neither records nor picks, each column's minimum.
        scored = fid[:, start] if keep or pick else fid.min(axis=0, keepdims=True)[:, start]
        for m, p in pick.items():
            scored[:, m] = fid[np.arange(hi - lo), p[lo:hi]]
        np.minimum(lowest, scored.min(axis=0), out=lowest)
        if keep:
            fids[:, rows[lo:hi]] = scored.T
    return 1.0 - lowest, fids


def _runs(f: PatternFragment, U: np.ndarray, sample_count: int = 0, seed: int = 0):
    """Every engine run of a Choi-input certificate, as ``(members, ens, frames, tables)``.

    ``members`` are error combinations by frame code; the run is framed by
    the first, ``r``, and ``ens`` and ``frames`` are :func:`_execute`'s.
    Exhaustive runs (``sample_count`` 0) take one per choice class, the
    combinations that agree on the plan's guard bits; sampled ones take
    ``sample_count`` seeded one-row runs per combination, each its own
    class. Where the choices of ``c`` and ``r`` agree, ``c``'s branch
    state, as an (outputs, references) matrix, is the run's ``S`` times
    ``P_r† P_c`` on the right (an input error is a reference Pauli), so its
    overlap with a target ``T`` is the run's overlap with ``T P_c† P_r``,
    which is ``T P_(c^r)`` up to a sign that no fidelity sees. So
    ``tables[m]`` is the :func:`_frame_table` of ``U P_(c^r) / √d`` for
    member ``c``; every shift ``c ^ r`` lies in the class of combination 0.
    """
    n = len(f.inputs)
    mask = 4**n - 1 if sample_count else sum(bit for bit, _ in _plan(f).guards)  # distinct bits
    classes = {}
    for c in range(4**n):
        classes.setdefault(c & mask, []).append(c)
    classes = list(classes.values())
    bases = U @ apply_frames(classes[0], np.eye(1 << n), n) / math.sqrt(1 << n)
    # One call dresses every shift's base, side by side as (outputs, shifts, references).
    stacked = _frame_table(bases.transpose(1, 0, 2), n).reshape(4**n, 1 << n, len(bases), -1)
    shifted = dict(zip(classes[0], stacked.transpose(2, 0, 1, 3).reshape(len(bases), 4**n, -1)))
    for members in classes:
        tables = np.stack([shifted[c ^ members[0]] for c in members])
        base = seed * 0x9E3779B1 + members[0] * 1009
        seeds = ((base + k) & 0x7FFFFFFF for k in range(sample_count))
        for src in map(OutcomeSource.seeded, seeds) if sample_count else [None]:
            yield (members, *_execute(f, src, choi_input(n), members, n), tables)


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
    enumeration, one run per choice class (see :func:`_runs`), or
    ``("sample", k)`` for k seeded runs per error combo; ``tol`` is the
    worst accepted infidelity, strictly between 0 and 1. ``seed`` must be
    a non-negative integer in either mode, as an :class:`OutcomeSource`'s.
    """
    U, label = _checked_target(f, target)
    n = len(f.inputs)
    if not 0 < tol < 1:
        raise ValueError(f"tol must lie strictly between 0 and 1, got {tol!r}")
    OutcomeSource.seeded(seed)  # refuses any other seed, with its message

    measured = len(f.pattern.measurements)
    sample_count = _sample_count(branches)
    exhaustive = sample_count == 0
    # Per combination: the probability total, the worst infidelity, the
    # possible and impossible rows, and the records kept.
    totals, worsts = np.zeros(4**n), np.zeros(4**n)
    counts = np.zeros((4**n, 2), dtype=np.int64)
    kept: list[list[BranchRecord]] = [[] for _ in range(4**n)]

    # Both modes know their record count up front: the rows of one error
    # combination times the 4^n combinations.
    rows = (1 << measured) if exhaustive else sample_count
    keep = rows << (2 * n) <= MAX_RECORDS if keep_branches is None else keep_branches

    def score(members, ens, frames, tables):
        """Score one run for each of ``members``, whose first framed its input."""
        probs, ok = ens.probabilities, ens.possible
        total, count = float(probs.sum()), int(ok.sum())
        worst, fids = _score(ens, frames, tables, keep)
        totals[members] += total
        counts[members] += count, len(ok) - count
        worsts[members] = np.maximum(worsts[members], worst)
        if not keep:
            return
        # Rows share their outcomes and probability between members; the
        # bits of a combination and of a frame, both on n wires, follow from
        # their codes.
        per_row = list(zip(map(tuple, ens.outcomes.T.tolist()), probs.tolist(), ok.tolist()))
        codes, infidelities = frames.tolist(), (1.0 - fids).tolist()
        for c, member_codes, member_infidelities in zip(members, codes, infidelities):
            error_bits = tuple(b for zx in frame_tuples[c] for b in zx)
            kept[c].extend(
                BranchRecord(
                    error_bits,
                    outcomes,
                    prob if possible else 0.0,
                    frame_tuples[code],
                    infidelity if possible else None,
                )
                for (outcomes, prob, possible), code, infidelity in zip(
                    per_row, member_codes, member_infidelities
                )
            )

    frame_tuples = [tuple(map(tuple, b)) for b in frame_bits(np.arange(4**n), n).tolist()]
    amplitude_runs = 0
    for run in _runs(f, U, sample_count, seed):
        score(*run)
        amplitude_runs += 1
        del run  # dropped before the next run starts, so one run's rows are live

    prob_ok = (
        all(abs(t - 1.0) < 1e-9 for t in totals) if exhaustive else True
    )
    worst = float(worsts.max())
    passed = worst < tol and prob_ok
    return VerificationReport(
        target_label=label,
        tolerance=tol,
        mode="all" if exhaustive else f"sample:{sample_count}",
        measured_count=measured,
        branch_count=int(counts[:, 0].sum()),
        impossible_count=int(counts[:, 1].sum()),
        worst_infidelity=worst,
        probability_totals=totals.tolist(),
        passed=passed,
        amplitude_runs=amplitude_runs,
        records=[record for records in kept for record in records],
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
    for labels in product(PRODUCT_INPUT_STATES, repeat=n):
        vec = np.array([1.0], dtype=complex)
        for name in labels:
            vec = np.kron(vec, PRODUCT_INPUT_STATES[name])
        state = Statevector(n, vec)
        table = _frame_table(U @ vec, n)
        for code in range(4**n if with_errors else 1):
            ens = _execute(f, None, state, [code], 0)[0]
            worst = max(worst, float(_score(ens, ens.frames[None], table[None], False)[0][0]))
    return worst


def infer_corrections(
    f: PatternFragment,
    target: np.ndarray | str,
) -> dict[int, Correction]:
    """Fit exact ANF correction polynomials from branch-wise Pauli solves.

    Any corrections already on the fragment are ignored. For every branch
    and error combination the unique per-wire Pauli making the branch equal
    the target is found through the entangled-input overlap, on one
    enumeration per choice class from :func:`_runs`, as in verification; the
    resulting truth tables are converted to polynomials with the exact GF(2)
    Moebius transform and certified before being returned.
    """
    U, label = _checked_target(f, target)
    n = len(f.inputs)
    out_names = _plan(f).names  # the rows of a run pack the outcomes in this order
    names = [*f.error_variables(), *out_names]  # the order of the plan's error bits
    k = len(names)
    if k > MAX_TABLE_BITS:
        raise InferenceError(f"truth table over {k} bits exceeds the budget")

    codes = np.zeros((4**n, 1 << len(out_names)), dtype=np.int64)
    for members, ens, _, tables in _runs(f, U):
        ok = ens.possible
        for combo, table in zip(members, tables):
            fids = np.abs(ens.states @ table.T) ** 2 / np.where(ok, ens.weights, 1.0)[:, None]
            hits = fids > 1.0 - FIT_TOL
            n_hits = hits.sum(axis=1)
            bad = np.nonzero(ok & (n_hits != 1))[0]
            if len(bad):
                raise InferenceError(
                    f"branch {int(bad[0])} of error combo"
                    f" {tuple(frame_bits(combo, n).reshape(-1).tolist())} admits "
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
