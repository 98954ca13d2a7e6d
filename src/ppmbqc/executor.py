"""Adaptive execution of patterns and fragments.

One engine runs every outcome source. Per call it builds a plan in the
standard form of the measurement calculus (Danos, Kashefi and Panangaden,
arXiv:0704.1263): the measurement order (lowest
ready vertex first) and, before each measurement, the edges whose
first-measured endpoint it is; edges joining two unmeasured vertices come
last. It walks the plan over a ``(rows, 2**live)`` amplitude array. A qubit
is allocated in |+> when its first edge or measurement needs it and dropped
once measured; spectator qubits ride along as ordinary register axes.

Only the choice of surviving outcome rows depends on the source: exhaustive
enumeration splits every row into both outcomes (row r into rows 2r and
2r+1, so the first measurement is the most significant bit of the branch
index), a seeded shot draws one outcome from the branch distribution, and a
tape forces it.

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
from .pattern import (
    BASIS_BY_CHOICE,
    MeasurementPattern,
    PatternFragment,
    _bare_fragment,
    _ready_order,
    dependency_schedule,
)
from .statevec import (
    DEFAULT_QUBIT_CAP,
    IMPOSSIBLE_PROB,
    Statevector,
    X,
    Z,
    _children,
    _phase,
    apply_matrix,
    plus_state,
)


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
    return _ready_order(f.pattern, set(f.error_variables()))[0]


def feed_forward_depth(p: MeasurementPattern | PatternFragment) -> int:
    """Number of sequential measurement rounds."""
    if isinstance(p, PatternFragment):
        return len(p.schedule())
    return len(dependency_schedule(p))


@dataclass
class BranchEnsemble:
    """Outcome branches of one fragment execution, one row per branch.

    ``states`` holds unnormalized leaf vectors; the squared row norm times
    ``scale`` is the branch probability. Exhaustive runs keep ``scale`` at 1;
    single-row runs renormalize after each measurement and carry the
    product of the measurement probabilities in it. Branch index bits follow
    ``order`` with the first measurement as the most significant bit.
    """

    order: list[int]
    states: np.ndarray  # (rows, 2**(outputs+spectators))
    env: dict[str, np.ndarray]
    choice_bits: dict[int, np.ndarray]
    error_bits: dict[str, int]
    scale: float = 1.0

    def weights(self) -> np.ndarray:
        """Squared row norms; times ``scale`` they are the branch probabilities."""
        re, im = self.states.real, self.states.imag
        return np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im)

    @property
    def probabilities(self) -> np.ndarray:
        return self.scale * self.weights()

    def full_env_rows(self) -> dict[str, np.ndarray]:
        rows = self.states.shape[0]
        full = {k: np.asarray(v, dtype=np.uint8) for k, v in self.env.items()}
        for k, b in self.error_bits.items():
            full[k] = np.full(rows, b, dtype=np.uint8)
        return full

    def traces(self, f: PatternFragment) -> list[ExecutionTrace]:
        qubits = self.states.shape[1].bit_length() - 1
        corrections = [(o, f.corrections[o]) for o in f.outputs]
        out = []
        for r, w in enumerate(self.weights()):
            env = {k: int(bits[r]) for k, bits in self.env.items()} | self.error_bits
            ok = w >= IMPOSSIBLE_PROB
            out.append(
                ExecutionTrace(
                    {m.var: env[m.var] for m in f.pattern.measurements.values()},
                    {v: BASIS_BY_CHOICE[int(self.choice_bits[v][r])] for v in self.order},
                    self.scale * float(w) if ok else 0.0,
                    Statevector(qubits, self.states[r] / math.sqrt(w)) if ok else None,
                    {o: (c.zeta.evaluate(env), c.xi.evaluate(env)) for o, c in corrections},
                    dict(self.error_bits),
                )
            )
        return out


# -- the engine -------------------------------------------------------------


def _plan(f: PatternFragment) -> tuple[list[int], list[list[tuple[int, int, int]]]]:
    """Measurement order plus the edges to apply before each measurement.

    An edge goes just before its first-measured endpoint; the extra last
    entry holds the edges between unmeasured vertices.
    """
    order = measurement_order(f)
    rank = {v: step for step, v in enumerate(order)}
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(len(order) + 1)]
    for e in f.pattern.graph.edges:
        edges[min(rank.get(e[0], len(order)), rank.get(e[1], len(order)))].append(e)
    return order, edges


def _picker(src: OutcomeSource | None):
    """Which children of a measurement survive, as ``(amps, parents, bits, p)``.

    ``parents[i]`` is the row that surviving row ``i`` came from, ``bits[i]``
    its outcome and ``p`` the probability divided out of the amplitudes.
    Without a source every child survives.
    """
    if src is None:

        def pick(step, v, kids):
            rows = kids.shape[0]
            bits = np.tile(np.array([0, 1], dtype=np.uint8), rows)
            return kids.reshape(2 * rows, -1), np.repeat(np.arange(rows), 2), bits, 1.0

        return pick
    rng = np.random.default_rng(src.seed) if src.mode == "seeded" else None

    def pick(step, v, kids):
        p0, p1 = (float(np.vdot(k, k).real) for k in kids[0])
        if rng is None:
            b = src.tape[step]
            if (p0, p1)[b] < IMPOSSIBLE_PROB:
                raise ImpossibleBranchError(
                    f"tape forces outcome {b} on vertex {v} (p={(p0, p1)[b]:.3e})"
                )
        else:
            draw = rng.random()
            b = 0 if (draw < p0 and p0 >= IMPOSSIBLE_PROB) or p1 < IMPOSSIBLE_PROB else 1
        p = (p0, p1)[b]
        return kids[:, b] / math.sqrt(p), np.zeros(1, dtype=np.intp), np.uint8([b]), p

    return pick


def _execute(
    f: PatternFragment,
    src: OutcomeSource | None,
    input_state: Statevector | None,
    input_errors: dict[int, tuple[int, int]] | None,
    spectators: int,
    cap: int,
) -> BranchEnsemble:
    """Run the fragment's plan with outcomes from ``src``, or all of them if None.

    ``cap`` bounds log2(rows) plus the live qubits after every allocation,
    the input register included.
    """
    graph = f.pattern.graph
    n, n_in = graph.vertex_count, len(f.inputs)
    if input_state is None:
        input_state = plus_state(0)
    if input_state.qubit_count != n_in + spectators:
        raise DimensionError(
            f"input state must have {n_in + spectators} qubits, got"
            f" {input_state.qubit_count}"
        )
    order, edges = _plan(f)
    k = len(order)
    if src is not None and src.mode == "tape" and len(src.tape) < k:
        raise PpmError(f"tape of {len(src.tape)} bits is shorter than {k} measurements")
    pick = _picker(src)

    errs = input_errors or {}
    stray = set(errs) - set(f.inputs)
    if stray:
        raise DimensionError(f"input errors name non-input vertices {sorted(stray)}")
    error_bits: dict[str, int] = {}
    for pos, v in enumerate(f.inputs):  # X^x Z^z on each input wire, Z first
        zb, xb = (b & 1 for b in errs.get(v, (0, 0)))
        zvar, xvar = f.input_errors[v]
        error_bits[zvar], error_bits[xvar] = zb, xb
        if zb:
            input_state = apply_matrix(input_state, pos, Z)
        if xb:
            input_state = apply_matrix(input_state, pos, X)

    # Register axis i holds vertex axes[i]; spectator j is the key n + j.
    axes = [*f.inputs, *range(n, n + spectators)]
    amps = np.array(input_state.amplitudes).reshape(1, -1)
    if len(axes) > cap:
        raise StateSizeError(f"{len(axes)} qubits exceed cap {cap}")
    # Row history: outcome of step j in row j, its choice in row k + j, then
    # the input-error bits.
    hist = np.zeros((2 * k + len(error_bits), 1), dtype=np.uint8)
    hist[2 * k :, 0] = list(error_bits.values())
    names = [f.pattern.measurements[v].var for v in order]
    column = dict(zip(names + list(error_bits), [*range(k), *range(2 * k, len(hist))]))

    def entangle(vertices, step_edges):
        """Allocate what ``vertices`` and ``step_edges`` touch, then apply the edges."""
        nonlocal amps
        touched = [*vertices, *(w for e in step_edges for w in e[:2])]
        fresh = [w for w in dict.fromkeys(touched) if w not in axes]
        if fresh:
            qubits = amps.shape[0].bit_length() - 1 + len(axes) + len(fresh)
            if qubits > cap:
                raise StateSizeError(f"{qubits} qubits would exceed cap {cap}")
            amps = np.repeat(amps, 1 << len(fresh), axis=1) * 2.0 ** (-len(fresh) / 2)
            axes.extend(fresh)
        for u, w, mult in step_edges:
            alpha = mult * graph.edge_angle
            amps = _phase(amps, axes.index(u), axes.index(w), len(axes), alpha)

    scale = 1.0
    for step, v in enumerate(order):
        entangle([v], edges[step])
        choice = f.pattern.measurements[v].choice
        env = {name: hist[column[name]] for name in choice.variables}
        choices = np.broadcast_to(choice.evaluate_rows(env), amps.shape[:1])
        kids = _children(amps, axes.index(v), choices)
        axes.remove(v)
        amps, parents, bits, p = pick(step, v, kids)
        scale *= p
        hist = hist[:, parents]
        hist[step], hist[k + step] = bits, choices[parents]

    entangle(list(f.outputs), edges[k])
    rows, live = amps.shape[0], len(axes)
    want = [axes.index(w) for w in (*f.outputs, *range(n, n + spectators))]
    amps = amps.reshape((rows,) + (2,) * live).transpose([0, *(1 + a for a in want)])
    return BranchEnsemble(
        order,
        amps.reshape(rows, -1),
        dict(zip(names, hist)),
        dict(zip(order, hist[k:])),
        error_bits,
        scale,
    )


def run_fragment(
    f: PatternFragment,
    input_state: Statevector,
    input_errors: dict[int, tuple[int, int]] | None = None,
    src: OutcomeSource = OutcomeSource(),
    spectators: int = 0,
    cap: int = DEFAULT_QUBIT_CAP,
) -> ExecutionTrace:
    """Execute a fragment on an input state with declared Pauli errors.

    The last ``spectators`` qubits of ``input_state`` are reference qubits
    that ride along untouched and follow the outputs in the result.
    """
    return _execute(f, src, input_state, input_errors, spectators, cap).traces(f)[0]


def run_pattern(p: MeasurementPattern, src: OutcomeSource) -> ExecutionTrace:
    """Execute a pattern: resource prepared, vertices measured adaptively."""
    return run_fragment(_bare_fragment(p), plus_state(0), src=src)


def enumerate_fragment(
    f: PatternFragment,
    input_state: Statevector | None = None,
    input_errors: dict[int, tuple[int, int]] | None = None,
    spectators: int = 0,
    cap: int = DEFAULT_QUBIT_CAP,
) -> BranchEnsemble:
    """Enumerate every outcome branch with shared-prefix vectorization."""
    return _execute(f, None, input_state, input_errors, spectators, cap)


def enumerate_pattern(p: MeasurementPattern) -> BranchEnsemble:
    return enumerate_fragment(_bare_fragment(p))
