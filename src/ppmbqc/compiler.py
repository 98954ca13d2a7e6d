"""Compile Clifford+T circuits to brickwork measurement patterns.

Circuit text is line oriented: a ``qubits N`` header, then one gate per
line (``H 0``, ``CZ 0 1``, ...), with ``#`` comments. Compilation is
greedy, one gate per brick: each gate is rewritten into the lane gate set
the brick table certifies, the idle lane receives PAD (identity up to the
Pauli frame), and bricks are chained by wiring lane outputs to lane
inputs. Entangling gates are only available between adjacent lanes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import CircuitParseError, StructuralError
from .fragments import (
    BRICK_INPUTS,
    BRICK_OUTPUTS,
    LEFT_LANE_GATES,
    RIGHT_LANE_GATES,
    BrickSettings,
    brick,
)
from .pattern import (
    BASIS_BY_CHOICE,
    MeasurementPattern,
    PatternFragment,
    _attach,
    fragment_to_json,
)
from .pgraph import PGraph
from .unitaries import FIXED, unitary_from_label

GATES_1Q = ("H", "S", "Sdg", "T", "Tdg")
GATES_2Q = ("CZ", "CNOT")


def _gate_problem(label: str, args: tuple[int, ...], qubits: int) -> str | None:
    """What is wrong with one gate on ``qubits`` qubits, or None."""
    if label not in GATES_1Q + GATES_2Q:
        return f"unknown gate {label!r}"
    want = 1 if label in GATES_1Q else 2
    if len(args) != want:
        return f"{label} takes {want} operand(s)"
    for q in args:
        if not 0 <= q < qubits:
            return f"operand {q} out of range"
    if want == 2 and args[0] == args[1]:
        return f"{label} operands must differ"
    return None


@dataclass(frozen=True)
class Circuit:
    qubit_count: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.qubit_count < 1:
            raise StructuralError("circuit needs at least one qubit")
        for label, args in self.gates:
            problem = _gate_problem(label, args, self.qubit_count)
            if problem:
                raise StructuralError(problem)

    def t_count(self) -> int:
        return sum(1 for label, _ in self.gates if label in ("T", "Tdg"))


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format."""
    qubits: int | None = None
    gates: list[tuple[str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "qubits":
            if qubits is not None:
                raise CircuitParseError("duplicate qubits header", lineno)
            if len(parts) != 2 or not parts[1].isdecimal():
                raise CircuitParseError("usage: qubits N", lineno)
            qubits = int(parts[1])
            continue
        if qubits is None:
            raise CircuitParseError("missing 'qubits N' header", lineno)
        try:
            args = tuple(int(p) for p in parts[1:])
        except ValueError:
            raise CircuitParseError("operands must be integers", lineno) from None
        problem = _gate_problem(parts[0], args, qubits)
        if problem:
            raise CircuitParseError(problem, lineno)
        gates.append((parts[0], args))
    if qubits is None:
        raise CircuitParseError("missing 'qubits N' header", 1)
    return Circuit(qubits, tuple(gates))


def _on_lanes(block: np.ndarray, first: int, lanes: int) -> np.ndarray:
    """``block`` on lanes ``first, first + 1, ...`` of ``lanes``, identity elsewhere."""
    rest = lanes - first - (block.shape[0].bit_length() - 1)
    return np.kron(np.kron(np.eye(1 << first), block), np.eye(1 << rest))


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Matrix oracle for the circuit, qubit 0 as the most significant bit."""
    n = c.qubit_count
    dim = 1 << n
    U = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    for label, args in c.gates:
        if label in GATES_1Q:
            U = _on_lanes(FIXED[label], args[0], n) @ U
        elif label == "CZ":
            b1 = (idx >> (n - 1 - args[0])) & 1
            b2 = (idx >> (n - 1 - args[1])) & 1
            U = np.diag(np.where(b1 & b2, -1.0, 1.0).astype(complex)) @ U
        else:  # CNOT
            ctrl, tgt = args
            bc = (idx >> (n - 1 - ctrl)) & 1
            flipped = idx ^ (bc << (n - 1 - tgt))
            P = np.zeros((dim, dim), dtype=complex)
            P[flipped, idx] = 1.0
            U = P @ U
    return U


@dataclass(frozen=True)
class BrickLayer:
    """One brick: the pair of lanes (pair, pair+1) and its settings."""

    pair: int
    settings: BrickSettings


_RIGHT_T_REWRITE = {"T": ("H", "HTH", "H"), "Tdg": ("H", "HTdgH", "H")}


def _lane_layers(label: str, side: int, pair: int) -> list[BrickLayer]:
    """Rewrite one single-qubit gate into bricks on its lane."""
    lane_set = LEFT_LANE_GATES if side == 0 else RIGHT_LANE_GATES
    if label == "Sdg":
        one = _lane_layers("S", side, pair)
        return one * 3
    if label in lane_set:
        chain = (label,)
    elif label in _RIGHT_T_REWRITE and side == 1:
        chain = _RIGHT_T_REWRITE[label]
    else:
        raise StructuralError(f"no rewrite for {label} on side {side}")
    out = []
    for gate in chain:
        left, right = (gate, "PAD") if side == 0 else ("PAD", gate)
        out.append(BrickLayer(pair, BrickSettings(left, right, 0)))
    return out


def _pair(q: int, qubits: int) -> int:
    """The lane pair a single-qubit gate on ``q`` uses; the last lane pairs down."""
    return q - 1 if (q == qubits - 1 and q > 0) else q


def compile_to_bricks(c: Circuit) -> list[BrickLayer]:
    """Greedy one-gate-per-brick compilation onto lane pairs.

    Single-qubit gates land on the operand's lane with PAD opposite;
    entangling gates require adjacent lanes and use the brick's switch.
    Every lane that no gate touches first gets a PAD brick, so the pattern
    has one wire per circuit qubit; a one-qubit circuit borrows a lane.
    """
    layers: list[BrickLayer] = []
    for label, args in c.gates:
        if label in GATES_1Q:
            (q,) = args
            pair = _pair(q, c.qubit_count)
            layers.extend(_lane_layers(label, q - pair, pair))
            continue
        q1, q2 = args
        if abs(q1 - q2) != 1:
            raise StructuralError(
                f"{label} on non-adjacent lanes {q1},{q2} is not supported"
            )
        pair = min(q1, q2)
        if label == "CZ":
            layers.append(BrickLayer(pair, BrickSettings("PAD", "PAD", 1)))
        else:  # CNOT: conjugate the target side with H around a CZ
            tgt_side = args[1] - pair
            layers.extend(_lane_layers("H", tgt_side, pair))
            layers.append(BrickLayer(pair, BrickSettings("PAD", "PAD", 1)))
            layers.extend(_lane_layers("H", tgt_side, pair))
    covered = {w for layer in layers for w in (layer.pair, layer.pair + 1)}
    pads = []
    for q in range(c.qubit_count):
        if q not in covered:
            pair = _pair(q, c.qubit_count)
            pads.append(BrickLayer(pair, BrickSettings("PAD", "PAD", 0)))
            covered |= {pair, pair + 1}
    return pads + layers


def layers_unitary(layers: list[BrickLayer], lanes: int) -> np.ndarray:
    """Matrix product of the layers' certified labels (table oracle)."""
    U = np.eye(1 << lanes, dtype=complex)
    for layer in layers:
        U = _on_lanes(unitary_from_label(layer.settings.label()), layer.pair, lanes) @ U
    return U


def layout_brickwork(layers: list[BrickLayer]) -> PatternFragment:
    """Chain bricks by wiring lane outputs to lane inputs, in one pass.

    Each distinct setting is built once, as a template, and wired on as
    :func:`compose` would, its variables prefixed ``g{d+1}.`` from depth
    ``d`` = 1 on; the fragment is validated once at the end. Wire order of
    the result follows lane index.
    """
    if not layers:
        raise StructuralError("cannot lay out an empty layer list")
    edges, measurements, corrections, input_errors, frames = [], {}, {}, {}, {}
    templates: dict[BrickSettings, PatternFragment] = {}
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    n = 0
    for depth, layer in enumerate(layers):
        if layer.settings not in templates:
            templates[layer.settings] = brick(layer.settings)
        piece = templates[layer.settings]
        lanes = (layer.pair, layer.pair + 1)
        wiring = {ends[w]: i for w, i in zip(lanes, BRICK_INPUTS) if w in ends}
        prefix = f"g{depth + 1}." if depth else ""
        relabel, n = _attach(
            piece, wiring, prefix, n, edges, measurements, corrections, input_errors, frames
        )
        for w, i, o in zip(lanes, BRICK_INPUTS, BRICK_OUTPUTS):
            starts.setdefault(w, relabel[i])
            ends[w] = relabel[o]
    graph = PGraph(n, piece.pattern.graph.base_exponent, tuple(edges))
    return PatternFragment(
        MeasurementPattern(graph, measurements),
        tuple(starts[w] for w in sorted(starts)),
        tuple(ends[w] for w in sorted(ends)),
        input_errors,
        corrections,
        frames,
    )


def compile_circuit(c: Circuit) -> PatternFragment:
    return layout_brickwork(compile_to_bricks(c))


# -- export -------------------------------------------------------------


def export(p: PatternFragment, format: str) -> bytes:
    """Serialize a fragment: ``json`` round-trips, ``dot`` is for eyes."""
    if format == "json":
        return (fragment_to_json(p) + "\n").encode()
    if format == "dot":
        return _to_dot(p).encode()
    raise StructuralError(f"unknown export format {format!r}")


def _to_dot(p: PatternFragment) -> str:
    lines = ["graph pattern {", "  node [shape=circle];"]
    ins, outs = set(p.inputs), set(p.outputs)
    for v in range(p.pattern.graph.vertex_count):
        attrs = []
        label = str(v)
        if v in p.pattern.measurements:
            m = p.pattern.measurements[v]
            basis = "?"
            if m.choice.is_constant():
                basis = BASIS_BY_CHOICE[m.choice.constant_value()]
            label = f"{v}:{m.var}={basis}"
        if v in ins and v in outs:
            attrs.append("shape=doublecircle")
            label += " io"
        elif v in ins:
            attrs.append("shape=square")
            label += " in"
        elif v in outs:
            attrs.append("shape=doublecircle")
            label += " out"
        attrs.insert(0, f'label="{label}"')
        lines.append(f"  v{v} [{', '.join(attrs)}];")
    for u, v, k in p.pattern.graph.edges:
        lines.append(f'  v{u} -- v{v} [label="x{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_brick_table() -> dict:
    """The shipped certified settings table."""
    text = resources.files("ppmbqc.data").joinpath("brick_table.json").read_text()
    return json.loads(text)
