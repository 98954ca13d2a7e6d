"""The three benchmark workloads and the output checks of their ops.

Every workload draws its inputs from the benchmark seed alone; the library
only sees the generated inputs. One op is the user-level operation named
by the workload, split into three steps:

* ``prepare(i)`` builds the inputs of op ``i`` (not timed);
* ``run(inputs)`` is the timed region and calls the library;
* ``check(inputs, out)`` returns a list of problems (not timed, not traced).

Each workload class also fixes how a run uses it: ``traced_ops`` ops in a
traced run, timed runs ending on a multiple of ``cycle`` ops, and the
latency percentile ``tail_pct`` reported as ``op_tail_ms``.

Library calls go through module attributes (``compiler.parse_circuit``,
not a name imported once) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from ppmbqc import compiler, executor, fragments, verifier
from ppmbqc.executor import OutcomeSource
from ppmbqc.statevec import Statevector
from ppmbqc.unitaries import pauli_product

FIDELITY_TOL = 1e-9
ONE_Q = ("H", "S")
T_GATES = ("T", "Tdg")
TWO_Q = ("CZ 0 1", "CNOT 0 1", "CNOT 1 0")


def op_rng(seed: int, tag: int, i: int) -> np.random.Generator:
    """Generator for op ``i`` of a workload; independent of run length."""
    return np.random.default_rng([seed, tag, i])


def random_state(rng: np.random.Generator, qubits: int) -> Statevector:
    amps = rng.normal(size=1 << qubits) + 1j * rng.normal(size=1 << qubits)
    return Statevector(qubits, amps / np.linalg.norm(amps))


def random_errors(rng: np.random.Generator, inputs) -> dict[int, tuple[int, int]]:
    return {v: (int(rng.integers(2)), int(rng.integers(2))) for v in inputs}


def circuit_text(rng: np.random.Generator, gates: int, t_count: int) -> str:
    """Seeded order of a fixed two-qubit Clifford+T gate multiset.

    ``t_count`` of the gates are T or Tdg; of the others 30 % entangle (CZ
    and CNOT in turn) and the rest are H or S. Lanes alternate, so the
    multiset, and with it the brick count, depends on ``(gates, t_count)``
    alone: the seed picks the order, T or Tdg, H or S and CNOT direction.
    Drawing whole gates at random instead makes op cost swing with the
    seed far more than with the program.
    """
    rest = gates - t_count
    entanglers = round(0.3 * rest)
    lines = [f"{T_GATES[int(rng.integers(2))]} {k % 2}" for k in range(t_count)]
    lines += [
        "CZ 0 1" if k % 2 == 0 else TWO_Q[1 + int(rng.integers(2))]
        for k in range(entanglers)
    ]
    lines += [f"{ONE_Q[int(rng.integers(2))]} {k % 2}" for k in range(rest - entanglers)]
    order = rng.permutation(len(lines))
    return "qubits 2\n" + "\n".join(lines[k] for k in order) + "\n"


def frame_infidelity(trace, U: np.ndarray, psi: Statevector, outputs) -> float:
    """``1 - |<X^xi Z^zeta U psi | out>|^2`` for one executed trace."""
    frame = [trace.frame[o] for o in outputs]
    want = pauli_product(frame) @ U @ psi.amplitudes
    return 1.0 - float(abs(np.vdot(want, trace.state.amplitudes)) ** 2)


class CertifyBrick:
    """Exhaustive certification of one brick setting per op.

    Settings are a seeded permutation of all realizable (left, right, cz)
    triples, so no two ops of a run share a fragment; a run ends when the
    permutation is used up.
    """

    name = "certify-brick"
    tag = 1
    work_name, work_unit = "branches_per_s", "branch rows/s"
    traced_ops = 6
    cycle = 1
    tail_pct = 50

    def __init__(self, seed: int) -> None:
        triples = list(
            itertools.product(fragments.LEFT_LANE_GATES, fragments.RIGHT_LANE_GATES, (0, 1))
        )
        order = np.random.default_rng([seed, self.tag]).permutation(len(triples))
        self.settings = [fragments.BrickSettings(*triples[k]) for k in order]
        self.max_ops = len(self.settings)

    def warm_up(self) -> None:
        verifier.verify_fragment(fragments.cz_fragment(1), "CZ")

    def prepare(self, i: int):
        return self.settings[i]

    def run(self, settings):
        frag = fragments.brick(settings)
        return frag, verifier.verify_fragment(frag, settings.label())

    def work(self, out) -> int:
        return out[1].branch_count

    def check(self, settings, out) -> list[str]:
        frag, rep = out
        problems = []
        if not rep.passed:
            problems.append(f"{settings.label()} failed, worst {rep.worst_infidelity:.3e}")
        combos = 4 ** len(frag.inputs)
        if len(rep.probability_totals) != combos or any(
            abs(t - 1.0) > 1e-9 for t in rep.probability_totals
        ):
            problems.append(f"{settings.label()} probability totals off")
        measured = len(frag.pattern.measurements)
        if rep.measured_count != measured or (
            rep.branch_count + rep.impossible_count != combos << measured
        ):
            problems.append(
                f"{settings.label()} checked {rep.branch_count}+{rep.impossible_count}"
                f" branches, want {combos << measured}"
            )
        return problems


class CompileMixed:
    """``ppmbqc compile`` without file I/O on seeded 2-qubit circuits.

    Ops cycle through SHAPES, a fixed grid of (gate count, T count); the
    seed draws the gates of each circuit. Runs stop on whole cycles, so
    every run holds the same mix of T-free (layout cost) and T-rich (ANF
    growth) circuits, and only the circuit contents vary with the seed.
    """

    name = "compile-mixed"
    tag = 2
    work_name, work_unit = "bricks_per_s", "bricks/s"
    SHAPES = tuple(
        (g, round(f * g)) for f in (0.0, 0.12, 0.24, 0.35) for g in (6, 12, 18, 24)
    )
    cycle = len(SHAPES)
    traced_ops = 2 * cycle
    tail_pct = 90

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.max_ops = None

    def warm_up(self) -> None:
        rng = np.random.default_rng([self.seed, self.tag])
        inputs = (circuit_text(rng, 6, 2), rng)
        self.check(inputs, self.run(inputs))

    def prepare(self, i: int):
        rng = op_rng(self.seed, self.tag, i)
        gates, t_count = self.SHAPES[i % len(self.SHAPES)]
        return circuit_text(rng, gates, t_count), rng

    def run(self, inputs):
        text, _ = inputs
        circuit = compiler.parse_circuit(text)
        layers = compiler.compile_to_bricks(circuit)
        frag = compiler.layout_brickwork(layers)
        return circuit, layers, frag, compiler.export(frag, "json")

    def work(self, out) -> int:
        return len(out[1])

    def check(self, inputs, out) -> list[str]:
        _, rng = inputs
        circuit, layers, frag, blob = out
        problems = []
        depth = executor.feed_forward_depth(frag)
        if depth > 1 + circuit.t_count():
            problems.append(f"feed-forward depth {depth} > 1 + {circuit.t_count()}")
        vertices = frag.pattern.graph.vertex_count
        if vertices != 14 * len(layers) + 2:
            problems.append(f"{vertices} vertices for {len(layers)} bricks")
        if json.loads(blob)["vertices"] != vertices:
            problems.append("exported vertex count differs")
        U = compiler.circuit_unitary(circuit)
        overlap = abs(np.trace(compiler.layers_unitary(layers, 2).conj().T @ U)) / 4
        if overlap <= 1 - 1e-12:
            problems.append(f"layer unitary overlap {overlap!r}")
        psi = random_state(rng, 2)
        trace = executor.run_fragment(
            frag,
            psi,
            random_errors(rng, frag.inputs),
            OutcomeSource.seeded(int(rng.integers(2**31))),
        )
        infid = frame_infidelity(trace, U, psi, frag.outputs)
        if infid > FIDELITY_TOL:
            problems.append(f"seeded run infidelity {infid:.3e}")
        return problems


class ShotsDeep:
    """Shot-by-shot execution of one compiled ~900-vertex pattern.

    Set-up compiles one circuit of 44 gates, 10 of them T or Tdg, into 64
    bricks (898 vertices) at the seed compiler. The circuit comes from the
    fixed CIRCUIT_SEED, not the benchmark seed: between circuits of this
    shape the compiled ANF size, and with it the cost of every shot in the
    run, swings threefold. The benchmark seed draws what varies per shot.
    Even ops are seeded shots on a seeded
    input with seeded input Pauli errors; each odd op replays the outcome
    tape of the seeded shot before it on the same input and errors.
    """

    name = "shots-deep"
    tag = 3
    work_name, work_unit = "shots_per_s", "shots/s"
    traced_ops = 40
    cycle = 2
    tail_pct = 90
    CIRCUIT_SEED = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.max_ops = None
        text = circuit_text(np.random.default_rng([self.CIRCUIT_SEED, self.tag]), 44, 10)
        self.circuit = compiler.parse_circuit(text)
        self.frag = compiler.compile_circuit(self.circuit)
        self.U = compiler.circuit_unitary(self.circuit)
        self.var_of = {v: m.var for v, m in self.frag.pattern.measurements.items()}
        self.last = None

    def warm_up(self) -> None:
        for i in (0, 1):
            inputs = self.prepare(i)
            self.check(inputs, self.run(inputs))
        self.last = None

    def prepare(self, i: int):
        rng = op_rng(self.seed, self.tag, i - i % 2)
        psi = random_state(rng, 2)
        errors = random_errors(rng, self.frag.inputs)
        if i % 2 == 0:
            self.last = None
            return psi, errors, OutcomeSource.seeded(int(rng.integers(2**31))), None
        if self.last is None:
            raise RuntimeError("tape op without a completed seeded op before it")
        tape = [self.last.outcomes[self.var_of[v]] for v in self.last.bases]
        return psi, errors, OutcomeSource.fixed(tape), self.last

    def run(self, inputs):
        psi, errors, src, _ = inputs
        return executor.run_fragment(self.frag, psi, errors, src)

    def work(self, out) -> int:
        return 1

    def check(self, inputs, trace) -> list[str]:
        psi, _, src, replayed = inputs
        problems = []
        infid = frame_infidelity(trace, self.U, psi, self.frag.outputs)
        if infid > FIDELITY_TOL:
            problems.append(f"{src.mode} shot infidelity {infid:.3e}")
        if replayed is None:
            self.last = trace
        else:
            self.last = None
            same_state = np.allclose(
                trace.state.amplitudes, replayed.state.amplitudes, rtol=0, atol=1e-12
            )
            if not same_state or not math.isclose(
                trace.probability, replayed.probability, rel_tol=1e-9
            ):
                problems.append("tape replay differs from its seeded shot")
        return problems


WORKLOADS = {w.name: w for w in (CertifyBrick, CompileMixed, ShotsDeep)}
