"""Named unitaries and a small label grammar.

Labels name targets for certification, e.g. ``"T"``, ``"X(pi/2)"``,
``"TxHTH"`` (tensor product) or ``"CZ*(HxH)"`` (matrix product, leftmost
factor applied last). ``PAD`` is an alias for the single-qubit identity.
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import statevec as sv

Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

FIXED: dict[str, np.ndarray] = {
    "I": sv.I2,
    "PAD": sv.I2,
    "X": sv.X,
    "Y": Y,
    "Z": sv.Z,
    "H": sv.H,
    "S": sv.S,
    "Sdg": sv.SDG,
    "T": sv.T,
    "Tdg": sv.TDG,
    "HSH": sv.H @ sv.S @ sv.H,
    "HSHS": sv.H @ sv.S @ sv.H @ sv.S,
    "HTH": sv.H @ sv.T @ sv.H,
    "HTdgH": sv.H @ sv.TDG @ sv.H,
    "CZ": CZ,
    "CNOT": CNOT,
}

ROTATIONS = {"Z": sv.zrot, "X": sv.xrot}


def parity_phase_matrix(alpha: float) -> np.ndarray:
    """4x4 matrix of the two-qubit parity-phase interaction."""
    return np.diag(sv.phase_table(alpha).reshape(-1))


class LabelError(ValueError):
    pass


def parse_angle(text: str) -> float:
    """Angle in radians from ``[+-][num[*]]pi[/den]`` or a plain number.

    Any other text, a zero denominator or a non-finite value raises
    :class:`LabelError`.
    """
    s = text.replace(" ", "")
    sign = 1.0
    if s.startswith("-"):
        sign, s = -1.0, s[1:]
    elif s.startswith("+"):
        s = s[1:]
    m = re.fullmatch(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?", s)
    try:
        if m:
            num = float(m.group(1)) if m.group(1) else 1.0
            den = float(m.group(2)) if m.group(2) else 1.0
            angle = sign * num * math.pi / den
        else:
            angle = sign * float(s)
    except (ValueError, ZeroDivisionError):
        raise LabelError(f"malformed angle {text!r}") from None
    if not math.isfinite(angle):
        raise LabelError(f"angle {text!r} is not finite")
    return angle


# Bare gate names start uppercase and avoid 'x', which is the tensor
# operator; parametrized names carry their argument in parentheses.
_TOKEN = re.compile(
    r"\s*([A-Z][A-Za-z]*\([^()]*\)|[A-Z][a-wyzA-WYZ]*|\(|\)|\*|x|⊗|·)"
)


def _tokenize(text: str) -> list[str]:
    out, i = [], 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            raise LabelError(f"cannot tokenize {text[i:]!r}")
        out.append(m.group(1))
        i = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LabelError("unexpected end of label")
        self.i += 1
        return tok

    def expr(self) -> np.ndarray:
        acc = self.term()
        while self.peek() in ("*", "·"):
            self.take()
            acc = acc @ self.term()
        return acc

    def term(self) -> np.ndarray:
        acc = self.atom()
        while self.peek() in ("x", "⊗"):
            self.take()
            acc = np.kron(acc, self.atom())
        return acc

    def atom(self) -> np.ndarray:
        tok = self.take()
        if tok == "(":
            inner = self.expr()
            if self.take() != ")":
                raise LabelError("unbalanced parenthesis")
            return inner
        m = re.fullmatch(r"([A-Za-z]+)\(([^()]*)\)", tok)
        if m:
            name, arg = m.group(1), m.group(2)
            if name in ROTATIONS:
                return ROTATIONS[name](parse_angle(arg))
            if name == "P":
                return parity_phase_matrix(parse_angle(arg))
            raise LabelError(f"unknown parametrized gate {name!r}")
        if tok in FIXED:
            return FIXED[tok]
        raise LabelError(f"unknown gate {tok!r}")


def unitary_from_label(label: str) -> np.ndarray:
    """Build the matrix a target label names."""
    parser = _Parser(_tokenize(label))
    mat = parser.expr()
    if parser.peek() is not None:
        raise LabelError(f"trailing tokens in {label!r}")
    return mat


def is_unitary(mat: np.ndarray) -> bool:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    return bool(np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0]))) <= 1e-9)


def _frame_shifts(wires: int) -> np.ndarray:
    return np.arange(2 * wires - 1, -1, -1).reshape(wires, 2)


def frame_bits(codes, wires: int) -> np.ndarray:
    """Unpack Pauli-frame codes into ``(..., wires, 2)`` bits ``(z, x)``.

    The one frame convention: z before x on each wire, wire 0 most
    significant, so codes count up in nested ``product`` order.
    """
    codes = np.asarray(codes, dtype=np.int64)[..., None, None]
    return ((codes >> _frame_shifts(wires)) & 1).astype(np.uint8)


def frame_codes(bits) -> np.ndarray:
    """Pack ``(..., wires, 2)`` frame bits into codes; inverse of :func:`frame_bits`."""
    bits = np.asarray(bits, dtype=np.int64)
    return (bits << _frame_shifts(bits.shape[-2])).sum(axis=(-2, -1))


def apply_frames(codes, mat: np.ndarray, wires: int) -> np.ndarray:
    """``X^x Z^z mat`` for each frame code, acting on the first axis of ``mat``.

    ``mat`` (a matrix or a vector) has ``2**wires`` rows; the result has
    the shape of ``codes`` followed by that of ``mat``. A Pauli acts on basis
    indices as a bit flip plus a sign: row ``j`` of the result is row
    ``j ^ x`` of ``mat`` times ``(-1)**popcount(z & (j ^ x))``. The result
    is always a new array, never a view of ``mat``.
    """
    masks = (1 << np.arange(wires - 1, -1, -1)) @ frame_bits(codes, wires)  # (..., [z, x])
    rows = np.arange(1 << wires)
    src = rows ^ masks[..., 1:]
    odd = ((rows[:, None] >> np.arange(wires)) & 1).sum(axis=1) & 1
    sign = 1 - 2 * odd[masks[..., :1] & src]
    mat = np.asarray(mat)
    return mat[src] * sign.reshape(sign.shape + (1,) * (mat.ndim - 1))


def pauli_product(bits: list[tuple[int, int]]) -> np.ndarray:
    """Tensor product of per-wire X^x Z^z factors (wire 0 leftmost)."""
    acc = np.eye(1, dtype=complex)
    for zbit, xbit in bits:
        p = np.eye(2, dtype=complex)
        if zbit:
            p = sv.Z @ p
        if xbit:
            p = sv.X @ p
        acc = np.kron(acc, p)
    return acc


def phase_matched(a: np.ndarray, b: np.ndarray):
    """True where ``a`` equals ``b`` up to a global phase; ``b`` may be a stack."""
    dim = a.shape[0]
    return abs(np.einsum("...ij,ij->...", b.conj(), a)) / dim > 1.0 - 1e-9
