"""Adaptive execution of patterns and fragments.

One engine runs every outcome source. Once per fragment it builds a plan
in the standard form of the measurement calculus (Danos, Kashefi and
Panangaden, arXiv:0704.1263) and keeps it on the fragment. The plan
measures the lowest ready vertex first, and puts each edge at its
first-measured endpoint, so every edge applied at step j touches the vertex
v measured there. Fix v's value b, and that star of parity phases is a
diagonal on the other live qubits. So each step compiles to one kernel:
where v sits in the register (or that it is fresh), and two diagonals, one
per outcome, that also carry the |+> normalization of the qubits the step
prepares. Edges joining two unmeasured vertices, and the outputs not yet
prepared, make one closing diagonal. Choices, output corrections and
definitions compile to bit masks over branch words: the outcomes so far,
above the input-error bits, above one bit per definition. A definition is
evaluated once, at the level of its first reader, and sets its bit in the
words of every later level.

Every call walks the plan over a ``(2**spectators, 2**live, rows)``
amplitude array. Spectators are a leading batch axis that the engine never
touches; the register sits in the middle; branch rows are the innermost
axis, so each kernel's inner loop runs over the rows. A qubit joins the
register in |+> when its first edge or measurement needs it and leaves it
once measured.

Only the choice of surviving outcome rows depends on the source: exhaustive
enumeration splits every row into both outcomes (row r into rows 2r and
2r+1, written as a trailing outcome axis, so the first measurement is the
most significant bit of the branch index), a seeded shot draws one outcome
from the branch distribution, and a tape forces it. A run with a source
keeps one row, so it evaluates choices on one Python int; an exhaustive run
keeps a definition's bits per row of its level L, and row r of a later
level j reads row ``r >> (j - L)`` of it.

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
    SQRT2_INV,
    Statevector,
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

# An ANF compiled against the branch words of the level where it is read:
# one bit mask per monomial.
CompiledAnf = tuple[int, ...]


@dataclass(frozen=True)
class _Step:
    """One measurement of the plan: a diagonal per outcome, then a split.

    ``split`` groups the live register as ``(A, s, B)`` around the measured
    vertex's axis: ``s`` is 2, or 1 when the vertex is fresh, and then
    ``(A, B) = (2**live, 1)``. ``diag[..., b]``, of shape ``(A, B, F, 1)``,
    is the product of the step's edge phases with the vertex reading ``b``
    over the other live qubits and the ``F`` other fresh ones, times
    ``2**(-f/2)`` for the ``f`` fresh |+> qubits. When ``scaled``, the
    choice is the constant X and ``diag`` also carries its ``1/sqrt(2)``.
    ``diag`` has one entry per basis state of the register after allocation.
    """

    split: tuple[int, int, int]
    diag: np.ndarray
    scaled: bool


@dataclass(frozen=True)
class _Plan:
    """A fragment's standard form, compiled once.

    ``steps[j]`` measures ``order[j]``, whose choice ``choices[j]`` reads
    level-j branch words: the j outcomes so far, the first most
    significant, above the input-error bits in ``error_variables`` order,
    above one bit per definition in ``frames`` order. Then the diagonal
    ``close``, of shape ``(L, F, 1)``, prepares the ``F`` outputs not yet
    live and joins the unmeasured vertices. ``perm`` moves the rows first,
    then the outputs in fragment order, then the spectators.
    ``corrections`` lists each output's zeta then xi, read at level k.
    ``frames`` maps a level to the ``(bit, anf)`` of each definition first
    read there, in definition order: the definition is evaluated on the
    words of that level and sets ``bit`` from then on.
    """

    order: tuple[int, ...]
    names: tuple[str, ...]
    steps: tuple[_Step, ...]
    choices: tuple[CompiledAnf, ...]
    close: np.ndarray
    perm: tuple[int, ...]
    corrections: tuple[CompiledAnf, ...]
    frames: dict[int, tuple[tuple[int, CompiledAnf], ...]] = field(default_factory=dict)


def _diagonal(register: list[int], edges, scale: float) -> np.ndarray:
    """The ``edges``' parity phases over ``register``, times ``scale``: shape ``(2,)*qubits``.

    A step wider than the cap can never run, so its diagonal is never built.
    """
    if len(register) > DEFAULT_QUBIT_CAP:
        raise StateSizeError(f"{len(register)} qubits would exceed cap {DEFAULT_QUBIT_CAP}")
    d = np.full((2,) * len(register), scale, dtype=complex)
    for u, w, table in edges:
        shape = [1] * len(register)
        shape[register.index(u)] = shape[register.index(w)] = 2
        d *= table.reshape(shape)  # a parity table is symmetric in its two qubits
    return d


def _compile_plan(f: PatternFragment) -> _Plan:
    order = measurement_order(f)
    k = len(order)
    names = [f.pattern.measurements[v].var for v in order]
    column = {name: j for j, name in enumerate(names)}
    low = (*f.error_variables(), *f.frames)  # the bits below the outcomes
    fixed = {name: 1 << (len(low) - 1 - i) for i, name in enumerate(low)}

    def compiled(fn, level: int) -> CompiledAnf:
        def bit(name):
            if name in column:
                return 1 << (len(low) + level - 1 - column[name])
            return fixed[name]

        return tuple(sum(map(bit, mono)) for mono in fn.monomials)

    graph = f.pattern.graph
    tables = {m: phase_table(graph.angle(m)) for m in {mult for *_, mult in graph.edges}}
    rank = {v: step for step, v in enumerate(order)}
    edges: list[list[tuple[int, int, np.ndarray]]] = [[] for _ in range(k + 1)]
    for u, w, mult in graph.edges:
        edges[min(rank.get(u, k), rank.get(w, k))].append((u, w, tables[mult]))

    live, steps = list(f.inputs), []
    prepared = set(live)
    for j, v in enumerate(order):
        touched = [v, *(w for edge in edges[j] for w in edge[:2])]
        fresh = [w for w in dict.fromkeys(touched) if w not in prepared]
        prepared.update(fresh)
        register = live + fresh
        scaled = not f.pattern.measurements[v].choice.monomials  # the constant X
        d = _diagonal(register, edges[j], 2.0 ** (-len(fresh) / 2) * (SQRT2_INV if scaled else 1))
        pos = register.index(v)
        if v in live:
            split = (1 << pos, 2, 1 << (len(live) - 1 - pos))
        else:
            split = (1 << len(live), 1, 1)
        diag = np.moveaxis(d, pos, -1).reshape(split[0], split[2], -1, 1, 2)
        steps.append(_Step(split, diag, scaled))
        live = [w for w in register if w != v]

    fresh = [w for w in f.outputs if w not in prepared]
    register = live + fresh
    close = _diagonal(register, edges[k], 2.0 ** (-len(fresh) / 2))
    corrections = [f.corrections[o] for o in f.outputs]
    # A definition is evaluated at the least level of its readers. Its
    # readers follow it, so one backward pass over the definitions settles it.
    first: dict[str, int] = {}

    def read(fn, level: int) -> None:
        for name in fn.variables:
            if name in f.frames and level < first.get(name, k + 1):
                first[name] = level

    for j, v in enumerate(order):
        read(f.pattern.measurements[v].choice, j)
    for c in corrections:
        read(c.zeta, k)
        read(c.xi, k)
    for name, fn in reversed(f.frames.items()):
        if name in first:
            read(fn, first[name])
    frames: dict[int, list[tuple[int, CompiledAnf]]] = {}
    for name, fn in f.frames.items():
        if name in first:
            level = first[name]
            frames.setdefault(level, []).append((fixed[name], compiled(fn, level)))
    return _Plan(
        tuple(order),
        tuple(names),
        tuple(steps),
        tuple(compiled(f.pattern.measurements[v].choice, j) for j, v in enumerate(order)),
        close.reshape(1 << len(live), -1, 1),
        (len(register) + 1, *(1 + register.index(o) for o in f.outputs), 0),
        tuple(compiled(fn, k) for c in corrections for fn in (c.zeta, c.xi)),
        {level: tuple(group) for level, group in frames.items()},
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


def _evaluate(anf: CompiledAnf, words):
    """XOR of the monomials of ``anf`` over branch words.

    A level-L branch word holds the first L outcomes, the first one most
    significant, above the input-error bits. ``words`` is one Python int for
    a one-row run, giving an int, or an array of them, giving one value per
    row.
    """
    acc = words & 0  # 0, or a zero per row
    for mask in anf:
        acc = acc ^ ((words & mask) == mask)
    return acc


def _split(amps: np.ndarray, step: _Step, x) -> np.ndarray:
    """Measure one vertex on every row: row r of ``amps`` becomes rows 2r and 2r + 1.

    ``amps`` has shape ``(spectators, live, rows)``. Outcome b's half times
    ``diag[..., b]`` is written straight into the children, and the X
    rotation then runs in place on the rows where ``x`` holds: ``x`` is
    True, False or a bool per row.
    """
    S, _, rows = amps.shape
    A, s, B = step.split
    t = amps.reshape(S, A, s, B, 1, rows)
    kids = np.empty((S, A, B, step.diag.shape[2], rows, 2), dtype=complex)
    if rows == 1:  # one call, with the outcome as the inner axis of both operands
        np.multiply(t.transpose(0, 1, 3, 4, 5, 2), step.diag, out=kids)
    else:  # one call per outcome, so the inner loop runs over the rows
        for b in (0, 1):
            np.multiply(t[:, :, b * (s - 1)], step.diag[..., b], out=kids[..., b])
    if not isinstance(x, bool):
        x = True if x.all() else x if x.any() else False
    if x is False:
        return kids.reshape(S, -1, 2 * rows)
    if x is True:
        pairs, two, norm = kids.reshape(-1, 2), 2.0, SQRT2_INV
    else:  # masked ufuncs are slow, so only the subtractions take the mask
        pairs, two = kids.reshape(-1, rows, 2), np.where(x, 2.0, 1.0)
        norm = np.where(x, SQRT2_INV, 1.0)[:, None]
    a0, a1 = pairs[..., 0], pairs[..., 1]
    np.subtract(a0, a1, out=a1, where=x)  # a1 <- a0 - a1
    np.multiply(a0, two, out=a0)
    np.subtract(a0, a1, out=a0, where=x)  # a0 <- a0 + a1
    if not step.scaled:
        np.multiply(pairs, norm, out=pairs)
    return kids.reshape(S, -1, 2 * rows)


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


def _check_cap(size: int, spectators: int) -> None:
    """Raise unless log2(size) + spectators qubits fit under the cap."""
    qubits = size.bit_length() - 1 + spectators
    if qubits > DEFAULT_QUBIT_CAP:
        raise StateSizeError(f"{qubits} qubits would exceed cap {DEFAULT_QUBIT_CAP}")


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
    plus the live qubits after every allocation, spectators included.
    """
    n_in = len(f.inputs)
    if input_state is None:
        input_state = plus_state(0)
    if input_state.qubit_count != n_in + spectators:
        raise DimensionError(
            f"input state must have {n_in + spectators} qubits, got"
            f" {input_state.qubit_count}"
        )
    if n_in + spectators > DEFAULT_QUBIT_CAP:
        raise StateSizeError(f"{n_in + spectators} qubits exceed cap {DEFAULT_QUBIT_CAP}")
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
    e = len(frame)
    error_word = sum(b << (e - 1 - i) for i, b in enumerate(frame))
    low = e + len(f.frames)  # the error and definition bits below the outcomes
    below, at = error_word << len(f.frames), 0  # an int, or one per row of level `at`
    dtype = np.int64 if low + k < 63 else object  # exhaustive words, int64 while they fit

    def words(j: int, index):
        """Level-j branch words of ``index``, setting the definitions first read there."""
        nonlocal below, at
        w = (index << low) | (below if isinstance(below, int) else below.repeat(1 << (j - at)))
        if j in plan.frames:
            for bit, anf in plan.frames[j]:
                w = w | _evaluate(anf, w) * bit
            below, at = w & ((1 << low) - 1), j
        return w

    # Axes (spectators, inputs, rows): a new array, so the in-place kernels
    # below never touch the caller's state.
    S = 1 << spectators
    framed = apply_frames(
        frame_codes(np.reshape(frame, (n_in, 2))),
        input_state.amplitudes.reshape(1 << n_in, S),
        n_in,
    )
    amps = np.ascontiguousarray(framed.T).reshape(S, -1, 1)

    scale, outcome, chosen = 1.0, 0, []  # one-row runs: outcomes so far, choices
    for j, step in enumerate(plan.steps):
        rows = amps.shape[-1]
        _check_cap(rows * step.diag.size, spectators)
        if draw is None:  # row r splits into rows 2r (outcome 0) and 2r + 1
            choices = _evaluate(plan.choices[j], words(j, np.arange(rows, dtype=dtype)))
            chosen.append(choices)
            amps = _split(amps, step, choices == 0)
        else:
            choice = _evaluate(plan.choices[j], words(j, outcome))
            kids = _split(amps, step, choice == 0).reshape(-1, 2)
            b, p = draw(j, plan.order[j], (kids[:, 0], kids[:, 1]))
            amps = (kids[:, b] * (1.0 / math.sqrt(p))).reshape(S, -1, 1)
            scale *= p
            outcome = outcome << 1 | b
            chosen.append(choice)

    rows = amps.shape[-1]
    _check_cap(rows * plan.close.size, spectators)
    L, F = plan.close.shape[:2]
    t = amps.reshape(S, L, 1, rows)
    amps = t if F == 1 else np.empty((S, L, F, rows), dtype=complex)
    np.multiply(t, plan.close, out=amps)
    re, im = amps.real.reshape(-1, rows), amps.imag.reshape(-1, rows)
    weights = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
    amps = amps.reshape((S,) + (2,) * (len(plan.perm) - 2) + (rows,)).transpose(plan.perm)

    # Outcome j of row r is bit k-1-j of r; a step's choices, kept at their
    # own level, cover 2**(k-j) rows each.
    index = np.arange(rows, dtype=dtype) if draw is None else outcome
    outcomes = [(index >> (k - 1 - j)) & 1 for j in range(k)]
    if draw is None:
        chosen = [c.repeat(1 << (k - j)) for j, c in enumerate(chosen)]
    bits = np.array(outcomes + chosen, dtype=np.uint8).reshape(2 * k, rows)
    final = words(k, index)
    frames = np.empty((len(plan.corrections), rows), dtype=np.uint8)
    for i, c in enumerate(plan.corrections):
        frames[i] = _evaluate(c, final)
    return BranchEnsemble(
        list(plan.order),
        list(plan.names),
        amps.reshape(rows, -1),
        weights,
        _possible(weights),
        bits[:k],
        bits[k:],
        error_bits,
        frames.reshape(len(f.outputs), 2, rows).transpose(2, 0, 1),
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
