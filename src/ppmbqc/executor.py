"""Adaptive execution of patterns and fragments.

One engine runs every outcome source. Once per fragment it builds a plan
in the standard form of the measurement calculus (Danos, Kashefi and
Panangaden, arXiv:0704.1263) and keeps it on the fragment: the
measurement order (lowest ready vertex first); before each measurement, the
qubits it prepares and the edges whose first-measured endpoint it is, with
their parity-phase tables; edges joining two unmeasured vertices come last;
and every choice and output correction compiled to row-history columns.
Every call walks the plan over a ``(rows, 2**live)`` amplitude array. A
qubit is allocated in |+> when its first edge or measurement needs it and
dropped once measured; spectator qubits ride along as ordinary register
axes.

Only the choice of surviving outcome rows depends on the source: exhaustive
enumeration splits every row into both outcomes (row r into rows 2r and
2r+1, so the first measurement is the most significant bit of the branch
index), a seeded shot draws one outcome from the branch distribution, and a
tape forces it. A run with a source keeps one row, so it evaluates choices
on plain Python bits and splits the measured axis without row masks.

Only the engine decides which branches are possible, by the rule shots use:
every measurement on the branch had conditional probability at least
``IMPOSSIBLE_PROB``. Traces and the verifier read its ``possible`` mask.

Choice semantics everywhere: choice value 0 measures X, value 1 measures Z.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    ImpossibleBranchError,
    PpmError,
    StateSizeError,
)
from .pattern import BASIS_BY_CHOICE, PatternFragment, _ready_order, dependency_schedule
from .statevec import (
    DEFAULT_QUBIT_CAP,
    IMPOSSIBLE_PROB,
    Statevector,
    _children,
    _halves,
    _phase,
    phase_table,
    plus_state,
)
from .unitaries import apply_frames, frame_codes


@dataclass(frozen=True)
class OutcomeSource:
    """Where measurement outcomes come from.

    ``seeded`` draws outcomes from the true branch distribution with a
    reproducible generator; ``tape`` forces a fixed outcome list of 0s and
    1s (consumed in execution order). :func:`enumerate_fragment` takes no
    source: it keeps every outcome.
    """

    mode: str = "seeded"
    seed: int = 0xC0FFEE
    tape: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("seeded", "tape"):
            raise ValueError(f"unknown outcome mode {self.mode!r}")
        if any(b not in (0, 1) for b in self.tape):
            raise ValueError(f"tape entries must be 0 or 1, got {list(self.tape)}")
        object.__setattr__(self, "tape", tuple(int(b) for b in self.tape))

    @staticmethod
    def seeded(seed: int = 0xC0FFEE) -> OutcomeSource:
        return OutcomeSource("seeded", seed=seed)

    @staticmethod
    def fixed(tape: tuple[int, ...] | list[int]) -> OutcomeSource:
        return OutcomeSource("tape", tape=tuple(tape))


@dataclass(frozen=True)
class ExecutionTrace:
    """Record of one adaptive run."""

    outcomes: dict[str, int]
    bases: dict[int, str]
    probability: float
    state: Statevector | None
    frame: dict[int, tuple[int, int]]
    error_bits: dict[str, int] = field(default_factory=dict)

    def to_dict(self, include_amplitudes: bool = False) -> dict:
        out = {
            "outcomes": dict(sorted(self.outcomes.items())),
            "bases": {str(v): b for v, b in sorted(self.bases.items())},
            "probability": self.probability,
            "frame": {str(v): list(zx) for v, zx in sorted(self.frame.items())},
            "error_bits": dict(sorted(self.error_bits.items())),
        }
        if include_amplitudes and self.state is not None:
            out["amplitudes"] = self.state.to_amplitude_pairs()
        return out

    def to_json(self, include_amplitudes: bool = False) -> str:
        return json.dumps(self.to_dict(include_amplitudes), indent=2, sort_keys=True)


def measurement_order(f: PatternFragment) -> list[int]:
    """Deterministic execution order: lowest ready vertex first.

    A vertex is ready once every outcome its choice function reads has been
    produced. A cyclic dependency raises :class:`WellFoundednessError`
    carrying the cycle.
    """
    return _ready_order(f)[0]


def feed_forward_depth(f: PatternFragment) -> int:
    """Number of sequential measurement rounds."""
    return len(dependency_schedule(f))


@dataclass
class BranchEnsemble:
    """Outcome branches of one fragment execution, one row per branch.

    ``states`` holds unnormalized leaf vectors and ``weights`` their squared
    norms; a weight times ``scale`` is the branch probability. Exhaustive
    runs keep ``scale`` at 1; single-row runs renormalize after each
    measurement and carry the product of the measurement probabilities in
    it. ``possible`` is the engine's verdict on each row: every measurement
    on it had conditional probability at least ``IMPOSSIBLE_PROB``. Branch
    index bits follow ``order`` with the first measurement as the most
    significant bit.
    """

    order: list[int]
    names: list[str]  # outcome variable of each step
    states: np.ndarray  # (rows, 2**(outputs+spectators))
    weights: np.ndarray  # (rows,)
    possible: np.ndarray  # (rows,) bool
    outcomes: np.ndarray  # (steps, rows)
    choices: np.ndarray  # (steps, rows)
    error_bits: dict[str, int]
    frames: np.ndarray  # (rows, outputs, 2): each output's (zeta, xi)
    scale: float = 1.0

    @property
    def probabilities(self) -> np.ndarray:
        return self.scale * self.weights

    def full_env_rows(self) -> dict[str, np.ndarray]:
        """Each variable's bit in every row: the outcomes, then the input errors."""
        rows = self.states.shape[0]
        full = dict(zip(self.names, self.outcomes))
        for k, b in self.error_bits.items():
            full[k] = np.full(rows, b, dtype=np.uint8)
        return full

    def traces(self, f: PatternFragment) -> list[ExecutionTrace]:
        qubits = self.states.shape[1].bit_length() - 1
        var_order = [m.var for m in f.pattern.measurements.values()]
        outcomes, choices = self.outcomes.T.tolist(), self.choices.T.tolist()
        out = []
        per_row = zip(self.weights.tolist(), self.possible.tolist(), self.frames.tolist())
        for r, (w, ok, frame) in enumerate(per_row):
            got = dict(zip(self.names, outcomes[r]))
            out.append(
                ExecutionTrace(
                    {var: got[var] for var in var_order},
                    {v: BASIS_BY_CHOICE[c] for v, c in zip(self.order, choices[r])},
                    self.scale * w if ok else 0.0,
                    Statevector(qubits, self.states[r] / math.sqrt(w)) if ok else None,
                    dict(zip(f.outputs, map(tuple, frame))),
                    dict(self.error_bits),
                )
            )
        return out


# -- the engine -------------------------------------------------------------

# An ANF compiled against a fragment's row history: one tuple of history
# columns per monomial.
CompiledAnf = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class _Plan:
    """A fragment's standard form, compiled once.

    Row history columns: the outcome of step j is column j, its choice
    column k + j, then the input-error bits in ``error_variables`` order.
    Before step j the vertices ``fresh[j]`` are prepared in |+> and the
    edges ``edges[j]`` applied, each with its parity-phase table; the extra
    last entries prepare the unmeasured vertices and join them.
    ``corrections`` lists each output's zeta then xi.
    """

    order: tuple[int, ...]
    names: tuple[str, ...]
    fresh: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, int, np.ndarray], ...], ...]
    choices: tuple[CompiledAnf, ...]
    corrections: tuple[CompiledAnf, ...]


def _compile_plan(f: PatternFragment) -> _Plan:
    order = measurement_order(f)
    k = len(order)
    names = [f.pattern.measurements[v].var for v in order]
    column = {name: j for j, name in enumerate(names)}
    column.update((name, 2 * k + i) for i, name in enumerate(f.error_variables()))

    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per distinct monomial

    def compiled(fn) -> CompiledAnf:
        monos = (tuple(column[name] for name in mono) for mono in fn.monomials)
        return tuple(shared.setdefault(m, m) for m in monos)

    graph = f.pattern.graph
    tables = {m: phase_table(graph.angle(m)) for m in {mult for *_, mult in graph.edges}}
    rank = {v: step for step, v in enumerate(order)}
    edges: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in range(k + 1)]
    for u, w, mult in graph.edges:
        edges[min(rank.get(u, k), rank.get(w, k))].append((u, w, tables[mult]))
    prepared, fresh = set(f.inputs), []
    for step, now in enumerate([*([v] for v in order), list(f.outputs)]):
        touched = [*now, *(w for e in edges[step] for w in e[:2])]
        fresh.append(tuple(w for w in dict.fromkeys(touched) if w not in prepared))
        prepared.update(touched)
    corrections = [f.corrections[o] for o in f.outputs]
    return _Plan(
        tuple(order),
        tuple(names),
        tuple(fresh),
        tuple(map(tuple, edges)),
        tuple(compiled(f.pattern.measurements[v].choice) for v in order),
        tuple(compiled(fn) for c in corrections for fn in (c.zeta, c.xi)),
    )


def _plan(f: PatternFragment) -> _Plan:
    """The fragment's compiled plan, built on first use and kept on ``f``.

    Living on the fragment, the plan is freed with it; fragments are
    immutable, so it never goes stale.
    """
    plan = vars(f).get("_plan")
    if plan is None:
        plan = _compile_plan(f)
        object.__setattr__(f, "_plan", plan)
    return plan


def _evaluate(anf: CompiledAnf, hist: list[int] | np.ndarray):
    """XOR of the monomials of ``anf`` over the row history ``hist``.

    ``hist`` is a list of bits for a one-row run, giving an int, or a
    ``(columns, rows)`` bit array, giving a row of bits.
    """
    acc = np.zeros(hist.shape[1], dtype=np.uint8) if isinstance(hist, np.ndarray) else 0
    for mono in anf:
        term = 1
        for c in mono:
            term = term & hist[c]
        acc ^= term
    return acc


def _drawer(src: OutcomeSource):
    """The outcome of a one-row measurement as ``(bit, probability)``.

    Seeded sources draw from the branch distribution, one draw per step;
    tapes force the bit.
    """
    rng = np.random.default_rng(src.seed) if src.mode == "seeded" else None

    def draw(step, v, halves):
        p0, p1 = [float(np.vdot(h, h).real) for h in halves]
        if rng is None:
            b = src.tape[step]
            if (p0, p1)[b] < IMPOSSIBLE_PROB:
                raise ImpossibleBranchError(
                    f"tape forces outcome {b} on vertex {v} (p={(p0, p1)[b]:.3e})"
                )
        else:
            u = rng.random()
            b = 0 if (u < p0 and p0 >= IMPOSSIBLE_PROB) or p1 < IMPOSSIBLE_PROB else 1
        return b, (p0, p1)[b]

    return draw


def _possible(weights: np.ndarray) -> np.ndarray:
    """Rows on which every measurement had conditional probability >= IMPOSSIBLE_PROB.

    Row r splits into rows 2r and 2r + 1, so summing sibling weights level
    by level gives the branch weight of every earlier step. A one-row run is
    the root alone: its drawer already refused any less likely outcome.
    """
    levels = [weights]
    while len(levels[-1]) > 1:
        levels.append(levels[-1].reshape(-1, 2).sum(axis=1))
    ok = np.ones(1, dtype=bool)
    for child, parent in zip(levels[-2::-1], levels[:0:-1]):
        ok = np.repeat(ok, 2) & (child >= IMPOSSIBLE_PROB * np.repeat(parent, 2))
    return ok


def _execute(
    f: PatternFragment,
    src: OutcomeSource | None,
    input_state: Statevector | None,
    input_errors: dict[int, tuple[int, int]] | None,
    spectators: int,
) -> BranchEnsemble:
    """Run the fragment's plan with outcomes from ``src``, or all of them if None.

    A run with a source keeps one row; without one, every row splits into
    both outcomes at every measurement. ``DEFAULT_QUBIT_CAP`` bounds log2(rows)
    plus the live qubits after every allocation, the input register included.
    """
    n, n_in = f.pattern.graph.vertex_count, len(f.inputs)
    if input_state is None:
        input_state = plus_state(0)
    if input_state.qubit_count != n_in + spectators:
        raise DimensionError(
            f"input state must have {n_in + spectators} qubits, got"
            f" {input_state.qubit_count}"
        )
    plan = _plan(f)
    k = len(plan.order)
    if src is not None and src.mode == "tape" and len(src.tape) < k:
        raise PpmError(f"tape of {len(src.tape)} bits is shorter than {k} measurements")
    draw = None if src is None else _drawer(src)

    errs = input_errors or {}
    stray = set(errs) - set(f.inputs)
    if stray:
        raise DimensionError(f"input errors name non-input vertices {sorted(stray)}")
    error_bits: dict[str, int] = {}
    for v in f.inputs:
        zvar, xvar = f.input_errors[v]
        error_bits[zvar], error_bits[xvar] = (b & 1 for b in errs.get(v, (0, 0)))
    frame = list(error_bits.values())  # (z, x) per input wire; the names are distinct

    # Register axis i holds vertex axes[i]; spectator j is the key n + j.
    axes = [*f.inputs, *range(n, n + spectators)]
    # A new array, so the in-place kernels below never touch the caller's state.
    amps = apply_frames(
        frame_codes(np.reshape(frame, (n_in, 2))),
        input_state.amplitudes.reshape(1 << n_in, -1),
        n_in,
    ).reshape(1, -1)
    if len(axes) > DEFAULT_QUBIT_CAP:
        raise StateSizeError(f"{len(axes)} qubits exceed cap {DEFAULT_QUBIT_CAP}")
    hist = [0] * (2 * k) + frame  # columns as in _Plan
    if draw is None:
        hist = np.array(hist, dtype=np.uint8).reshape(-1, 1)

    def entangle(step):
        """Prepare the step's fresh vertices, then apply its edges."""
        nonlocal amps
        fresh = plan.fresh[step]
        if fresh:
            qubits = amps.shape[0].bit_length() - 1 + len(axes) + len(fresh)
            if qubits > DEFAULT_QUBIT_CAP:
                raise StateSizeError(f"{qubits} qubits would exceed cap {DEFAULT_QUBIT_CAP}")
            amps = np.repeat(amps, 1 << len(fresh), axis=1) * 2.0 ** (-len(fresh) / 2)
            axes.extend(fresh)
        for u, w, table in plan.edges[step]:
            amps = _phase(amps, axes.index(u), axes.index(w), len(axes), table)

    scale = 1.0
    for step, v in enumerate(plan.order):
        entangle(step)
        pos = axes.index(v)
        axes.remove(v)
        if draw is None:  # row r splits into rows 2r (outcome 0) and 2r + 1
            rows = amps.shape[0]
            choices = _evaluate(plan.choices[step], hist)
            amps = _children(amps, pos, choices).reshape(2 * rows, -1)
            hist = np.repeat(hist, 2, axis=1)
            hist[step, 1::2] = 1
            hist[k + step] = np.repeat(choices, 2)
        else:
            choice = _evaluate(plan.choices[step], hist)
            halves = _halves(amps, pos, choice)
            b, p = draw(step, v, halves)
            amps = (halves[b] / math.sqrt(p)).reshape(1, -1)
            scale *= p
            hist[step], hist[k + step] = b, choice

    entangle(k)
    rows, live = amps.shape[0], len(axes)
    want = [axes.index(w) for w in (*f.outputs, *range(n, n + spectators))]
    amps = amps.reshape((rows,) + (2,) * live).transpose([0, *(1 + a for a in want)])
    amps = amps.reshape(rows, -1)
    re, im = amps.real, amps.imag
    weights = np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im)
    frames = [_evaluate(c, hist) for c in plan.corrections]
    hist = np.asarray(hist, dtype=np.uint8).reshape(len(hist), rows)
    return BranchEnsemble(
        list(plan.order),
        list(plan.names),
        amps,
        weights,
        _possible(weights),
        hist[:k],
        hist[k : 2 * k],
        error_bits,
        np.array(frames, dtype=np.uint8).reshape(len(f.outputs), 2, rows).transpose(2, 0, 1),
        scale,
    )


def run_fragment(
    f: PatternFragment,
    input_state: Statevector,
    input_errors: dict[int, tuple[int, int]] | None = None,
    src: OutcomeSource = OutcomeSource(),
    spectators: int = 0,
) -> ExecutionTrace:
    """Execute a fragment on an input state with declared Pauli errors.

    The last ``spectators`` qubits of ``input_state`` are reference qubits
    that ride along untouched and follow the outputs in the result.
    """
    return _execute(f, src, input_state, input_errors, spectators).traces(f)[0]


def enumerate_fragment(
    f: PatternFragment,
    input_state: Statevector | None = None,
    input_errors: dict[int, tuple[int, int]] | None = None,
    spectators: int = 0,
) -> BranchEnsemble:
    """Enumerate every outcome branch with shared-prefix vectorization."""
    return _execute(f, None, input_state, input_errors, spectators)
