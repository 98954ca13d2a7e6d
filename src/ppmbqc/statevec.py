"""Dense statevector simulator.

Basis convention: qubit 0 is the most significant bit of the basis index,
so ``|q0 q1 ... q_{n-1}>`` has index ``q0*2**(n-1) + ... + q_{n-1}``.

Gate conventions: ``Z(a) = diag(1, e^{ia})`` and ``X(a) = H Z(a) H``; the
Pauli gates are ``Z(pi)`` and ``X(pi)``. The two-qubit parity-phase
interaction multiplies even-parity components by ``e^{-ia/2}`` and
odd-parity components by ``e^{+ia/2}``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionError, StateSizeError
from .pgraph import PGraph

IMPOSSIBLE_PROB = 1e-12
DEFAULT_QUBIT_CAP = 24

SQRT2_INV = 1.0 / math.sqrt(2.0)

# Fixed 2x2 matrices.
I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG = S.conj()
T = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
TDG = T.conj()


def zrot(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def xrot(theta: float) -> np.ndarray:
    return H @ zrot(theta) @ H


@dataclass(frozen=True)
class Statevector:
    """Normalized amplitudes over ``2**n`` computational basis states."""

    qubit_count: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (1 << self.qubit_count,):
            raise DimensionError(
                f"expected {1 << self.qubit_count} amplitudes, got {amps.shape}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_amplitude_pairs(self) -> list[list[float]]:
        """Debug dump as [re, im] pairs."""
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


def zero_state(n: int) -> Statevector:
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return Statevector(n, amps)


def plus_state(n: int) -> Statevector:
    if n == 0:
        return Statevector(0, np.ones(1, dtype=complex))
    return Statevector(n, np.full(1 << n, 2.0 ** (-n / 2), dtype=complex))


def from_amplitudes(amps: Iterable[complex]) -> Statevector:
    arr = np.asarray(list(amps), dtype=complex)
    n = arr.size.bit_length() - 1
    if n < 0 or 1 << n != arr.size:
        raise DimensionError(f"amplitude count {arr.size} is not a power of two")
    norm = np.linalg.norm(arr)
    if not 0 < norm < math.inf:  # also refuses nan
        raise DimensionError(f"amplitudes must be finite with a nonzero norm, got norm {norm}")
    return Statevector(n, arr / norm)


def phase_table(alpha: float) -> np.ndarray:
    """Factors of the parity phase of angle ``alpha``, shape ``(2, 1, 2, 1)``.

    Entry ``[a, 0, b, 0]`` multiplies the components whose two qubits read
    ``a`` and ``b``: ``e^{-ia/2}`` on even parity, ``e^{+ia/2}`` on odd. The
    singleton axes broadcast it over a register grouped around the two
    qubits. Reshaped, it sits on any two axes of a longer diagonal, or
    flattens to the gate's own.
    """
    even, odd = np.exp(-0.5j * alpha), np.exp(0.5j * alpha)
    return np.array([[even, odd], [odd, even]]).reshape(2, 1, 2, 1)


def apply_matrix(s: Statevector, q: int, mat: np.ndarray) -> Statevector:
    """Apply a 2x2 matrix on qubit ``q``."""
    n = s.qubit_count
    if not 0 <= q < n:
        raise DimensionError(f"qubit {q} out of range [0, {n})")
    tensor = s.amplitudes.reshape((2,) * n)
    moved = np.moveaxis(tensor, q, 0).reshape(2, -1)
    out = mat @ moved
    out = np.moveaxis(out.reshape((2,) + (2,) * (n - 1)), 0, q)
    return Statevector(n, out.reshape(-1))


def apply_parity_phase(s: Statevector, q1: int, q2: int, alpha: float) -> Statevector:
    """Two-qubit diagonal phase keyed on the parity of ``q1 q2``."""
    if q1 == q2:
        raise DimensionError("parity-phase needs two distinct qubits")
    n = s.qubit_count
    for q in (q1, q2):
        if not 0 <= q < n:
            raise DimensionError(f"qubit {q} out of range [0, {n})")
    p, q = min(q1, q2), max(q1, q2)
    t = s.amplitudes.reshape(1 << p, 2, 1 << (q - p - 1), 2, 1 << (n - q - 1)).copy()
    t *= phase_table(alpha)
    return Statevector(n, t.reshape(-1))


def measure(
    s: Statevector, q: int, basis: str, outcome: int
) -> tuple[float, Statevector | None]:
    """Project qubit ``q`` onto a Pauli eigenstate and drop it from the register.

    ``basis`` is ``"Z"`` (eigenstates |0>, |1>) or ``"X"`` (|+>, |->);
    ``outcome`` 0 selects the first eigenstate. Returns the branch
    probability and the renormalized post-state, or ``None`` when the
    probability is below 1e-12 (impossible branch; caller decides).

    Index mapping of the shrunk register: positions below ``q`` keep their
    index, and positions above ``q`` move down by one (old index r maps to
    r-1 for r > q).
    """
    n = s.qubit_count
    if not 0 <= q < n:
        raise DimensionError(f"qubit {q} out of range [0, {n})")
    if basis not in ("X", "Z"):
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")
    t = s.amplitudes.reshape(1 << q, 2, -1)
    a0, a1 = t[:, 0], t[:, 1]
    if basis == "X":
        a0, a1 = (a0 + a1) * SQRT2_INV, (a0 - a1) * SQRT2_INV
    branch = (a0, a1)[outcome & 1].reshape(-1)
    prob = float(np.real(np.vdot(branch, branch)))
    if prob < IMPOSSIBLE_PROB:
        return prob, None
    return prob, Statevector(n - 1, branch / math.sqrt(prob))


def permute(s: Statevector, new_order: list[int]) -> Statevector:
    """Reorder qubits so that position ``i`` holds old qubit ``new_order[i]``."""
    n = s.qubit_count
    if sorted(new_order) != list(range(n)):
        raise DimensionError(f"new_order must be a permutation of range({n})")
    tensor = s.amplitudes.reshape((2,) * n)
    return Statevector(n, np.transpose(tensor, new_order).reshape(-1))


def tensor(a: Statevector, b: Statevector) -> Statevector:
    return Statevector(a.qubit_count + b.qubit_count, np.kron(a.amplitudes, b.amplitudes))


def embed_state(sub: Statevector, total: int, targets: list[int]) -> Statevector:
    """Place ``sub`` on qubits ``targets`` of a register padded with |+>.

    Qubit ``i`` of ``sub`` lands on register position ``targets[i]``; every
    other position starts in |+>.
    """
    if total > DEFAULT_QUBIT_CAP:
        raise StateSizeError(f"{total} qubits exceed cap {DEFAULT_QUBIT_CAP}")
    if len(targets) != sub.qubit_count:
        raise DimensionError("targets must match sub-state qubit count")
    if len(set(targets)) != len(targets) or any(not 0 <= t < total for t in targets):
        raise DimensionError("targets must be distinct positions in range")
    full = tensor(sub, plus_state(total - sub.qubit_count))
    fillers = [p for p in range(total) if p not in set(targets)]
    # full currently holds sub qubits first, fillers after; build new_order so
    # position t takes the right source axis.
    source = list(targets) + fillers
    new_order = [0] * total
    for axis, pos in enumerate(source):
        new_order[pos] = axis
    return permute(full, new_order)


def prepare_resource(g: PGraph) -> Statevector:
    """All-|+> register entangled by every edge of the graph."""
    if g.vertex_count > DEFAULT_QUBIT_CAP:
        raise StateSizeError(f"{g.vertex_count} qubits exceed cap {DEFAULT_QUBIT_CAP}")
    return apply_edges(plus_state(g.vertex_count), g)


def apply_edges(s: Statevector, g: PGraph) -> Statevector:
    """Apply every edge of ``g``; vertex v acts on qubit v."""
    for u, v, k in g.edges:
        s = apply_parity_phase(s, u, v, g.angle(k))
    return s


def fidelity_up_to_phase(s1: Statevector, s2: Statevector) -> float:
    """``|<s1|s2>|^2``; insensitive to global phase by construction."""
    if s1.qubit_count != s2.qubit_count:
        raise DimensionError("qubit counts differ")
    return float(abs(np.vdot(s1.amplitudes, s2.amplitudes)) ** 2)
