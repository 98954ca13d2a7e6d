"""Constructors for the gadget library.

Every gadget is assembled from computation lanes: a carrier wire advancing
through X-measured vertices, decorated with degree-one hairs. Z-measuring a
hair injects a phase rotation on its attachment vertex (sign set by the
outcome); X-measuring it cuts it off, leaving at most a Pauli Z. The
builder tracks the pending Pauli frame symbolically as ANF polynomials, so
every adaptive rule and output correction is derived, not transcribed, and
a construction-time check matches the assembled linear map against the
advertised gate up to a Pauli frame. A wrong topology therefore fails to
construct instead of shipping.

Library: the half X-rotation gadget, the six-vertex single-qubit gadget in
T / Tdg / H / S modes (plus a five-vertex variant without the middle
hair), the switchable two-lane CZ gadget, the 16-qubit two-lane brick, and
the rotation cascade implementing Z(pi/2^m) with Pauli-only residue.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product

import numpy as np

from .boolfn import BoolFn
from .errors import StructuralError
from .pattern import Correction, Measurement, MeasurementPattern, PatternFragment
from .pgraph import PGraph
from .statevec import xrot, zrot
from .unitaries import CZ, apply_frames, frame_bits, phase_matched, unitary_from_label

E_MODES = ("T", "Tdg", "H", "S")
MAX_HIERARCHY_EXPONENT = 8

# Lane gates realizable per brick side; PAD is identity up to Pauli frame.
LEFT_LANE_GATES = ("PAD", "T", "Tdg", "S", "H", "HSH", "HSHS")
RIGHT_LANE_GATES = ("PAD", "H", "S", "HSH", "HSHS", "HTH", "HTdgH")


@dataclass(frozen=True)
class BrickSettings:
    """Per-lane gate labels plus the entangling switch."""

    left: str
    right: str
    cz: int

    def __post_init__(self):
        if self.left not in LEFT_LANE_GATES:
            raise StructuralError(f"left lane cannot realize {self.left!r}")
        if self.right not in RIGHT_LANE_GATES:
            raise StructuralError(f"right lane cannot realize {self.right!r}")
        if self.cz not in (0, 1):
            raise StructuralError("cz must be 0 or 1")

    def label(self) -> str:
        lanes = f"{self.left}x{self.right}".replace("PAD", "I")
        return f"CZ*({lanes})" if self.cz else lanes


# -- builder ----------------------------------------------------------


@dataclass
class _Cluster:
    base_var: str
    base_vertex: int
    correctors: list[tuple[str, int]]
    exp: int
    xi_snapshot: BoolFn
    placeholder: str


class _Builder:
    def __init__(self, base_exponent: int = 2):
        self.m = base_exponent
        self.count = 0
        self.edges: list[tuple[int, int, int]] = []
        self.measurements: dict[int, Measurement] = {}
        self.inputs: list[int] = []
        self.input_errors: dict[int, tuple[str, str]] = {}
        self.clusters: list[_Cluster] = []
        self._ph = 0

    def new_vertex(self) -> int:
        self.count += 1
        return self.count - 1

    def edge(self, u: int, v: int, mult: int) -> None:
        self.edges.append((u, v, mult))

    def measure(self, v: int, var: str, choice: BoolFn) -> None:
        self.measurements[v] = Measurement(var, choice)

    def placeholder(self) -> str:
        self._ph += 1
        return f"~r{self._ph}"

    def half_mult(self) -> int:
        return 1 << (self.m - 1)


class _Lane:
    """A carrier wire with a symbolically tracked Pauli frame.

    ``slots`` collects the 2x2 factors the lane composes (first applied
    first); clusters contribute a sign chosen during finalization.
    """

    def __init__(self, b: _Builder, zvar: str, xvar: str):
        self.b = b
        self.carrier = b.new_vertex()
        b.inputs.append(self.carrier)
        b.input_errors[self.carrier] = (zvar, xvar)
        self.zeta = BoolFn.var(zvar)
        self.xi = BoolFn.var(xvar)
        self.slots: list[object] = []  # np.ndarray or _Cluster

    def teleport(self, var: str) -> None:
        nxt = self.b.new_vertex()
        self.b.edge(self.carrier, nxt, self.b.half_mult())
        self.b.measure(self.carrier, var, BoolFn.zero())  # X basis
        t = BoolFn.var(var)
        zeta = self.zeta ^ t
        self.xi = zeta ^ self.xi ^ BoolFn.one()
        self.zeta = zeta
        self.carrier = nxt
        self.slots.append(xrot(math.pi / 2))

    def cut_hair(self, var: str, mult: int) -> None:
        h = self.b.new_vertex()
        self.b.edge(self.carrier, h, mult)
        self.b.measure(h, var, BoolFn.zero())  # X basis detaches it
        self.zeta = self.zeta ^ BoolFn.var(var)

    def half_hair(self, var: str) -> None:
        """Z-measured hair injecting a phase of pi/2 up to a Pauli Z."""
        h = self.b.new_vertex()
        self.b.edge(self.carrier, h, self.b.half_mult())
        self.b.measure(h, var, BoolFn.one())  # Z basis
        self.zeta = self.zeta ^ self.xi ^ BoolFn.var(var)
        self.slots.append(zrot(math.pi / 2))

    def rotation_cluster(self, base_var: str, corrector_vars: list[str], exp: int) -> None:
        """Adaptive rotation by pi/2^exp with a correction cascade.

        The base hair always fires; each corrector hair is Z-measured only
        while the accumulated rotation still misses the target, halving the
        deficit until only a Pauli Z can remain. Rules and corrections are
        filled in during finalization once the slot sign is known.
        """
        if exp < 1 or exp > self.b.m:
            raise StructuralError(f"cluster exponent {exp} out of range")
        if len(corrector_vars) != exp - 1:
            raise StructuralError("cascade needs exactly exp-1 corrector hairs")
        base = self.b.new_vertex()
        self.b.edge(self.carrier, base, 1 << (self.b.m - exp))
        correctors = []
        for j, var in enumerate(corrector_vars, start=1):
            h = self.b.new_vertex()
            self.b.edge(self.carrier, h, 1 << (self.b.m - (exp - j)))
            correctors.append((var, h))
        ph = self.b.placeholder()
        cluster = _Cluster(base_var, base, correctors, exp, self.xi, ph)
        self.b.clusters.append(cluster)
        self.zeta = self.zeta ^ BoolFn.var(ph)
        self.slots.append(cluster)

    def matrix(self, signs: dict[int, int]) -> np.ndarray:
        acc = np.eye(2, dtype=complex)
        for slot in self.slots:
            if isinstance(slot, _Cluster):
                sgn = -1.0 if signs[id(slot)] else 1.0
                acc = zrot(sgn * math.pi / (1 << slot.exp)) @ acc
            else:
                acc = slot @ acc
        return acc


def _resolve_clusters(b: _Builder, signs: dict[int, int]) -> dict[str, BoolFn]:
    """Emit cascade rules and return placeholder substitutions."""
    subst: dict[str, BoolFn] = {}
    for c in b.clusters:
        sign = signs[id(c)]
        n0 = c.xi_snapshot.substitute(subst) ^ BoolFn.const(sign)
        fire = BoolFn.var(c.base_var) ^ n0
        b.measure(c.base_vertex, c.base_var, BoolFn.one())  # Z basis always
        contribution = BoolFn.zero()
        for var, vertex in c.correctors:
            b.measure(vertex, var, fire)
            hv = BoolFn.var(var)
            contribution = contribution ^ hv ^ (hv & fire)  # cut when idle
            fire = fire & (hv ^ n0)
        contribution = contribution ^ fire  # residue after the last stage
        subst[c.placeholder] = contribution
    return subst


def _finalize(
    b: _Builder,
    lanes: list[_Lane],
    label: str,
    entangler: np.ndarray | None = None,
) -> PatternFragment:
    """Pick cluster signs, match the assembled map to the label, build."""
    target = unitary_from_label(label)
    dim = 1 << len(lanes)
    if target.shape != (dim, dim):
        raise StructuralError(f"label {label!r} has wrong arity for {len(lanes)} lanes")

    cluster_ids = [id(c) for c in b.clusters]
    dressed = apply_frames(np.arange(dim * dim), target, len(lanes))
    for bits in product((0, 1), repeat=len(cluster_ids)):
        signs = dict(zip(cluster_ids, bits))
        built = lanes[0].matrix(signs)
        for lane in lanes[1:]:
            built = np.kron(built, lane.matrix(signs))
        if entangler is not None:
            built = entangler @ built
        hits = np.flatnonzero(phase_matched(built, dressed))
        if len(hits):
            frame = frame_bits(hits[0], len(lanes)).tolist()
            break
    else:
        raise StructuralError(
            f"assembled map does not realize {label!r} up to a Pauli frame"
        )
    subst = _resolve_clusters(b, signs)

    measurements = {
        v: Measurement(m.var, m.choice.substitute(subst))
        for v, m in b.measurements.items()
    }
    corrections: dict[int, Correction] = {}
    outputs = []
    for lane, (zbit, xbit) in zip(lanes, frame):
        zeta = lane.zeta.substitute(subst) ^ BoolFn.const(zbit)
        xi = lane.xi.substitute(subst) ^ BoolFn.const(xbit)
        for fn in (zeta, xi):
            if any(name.startswith("~") for name in fn.variables):
                raise StructuralError("unresolved cascade placeholder")
        corrections[lane.carrier] = Correction(zeta, xi)
        outputs.append(lane.carrier)

    graph = PGraph(b.count, b.m, tuple(b.edges))
    return PatternFragment(
        MeasurementPattern(graph, measurements),
        tuple(b.inputs),
        tuple(outputs),
        dict(b.input_errors),
        corrections,
    )


def _cz_hook(
    b: _Builder,
    lane1: _Lane,
    lane2: _Lane,
    on: int,
    mid_var: str = "b",
    hair_var: str = "a",
) -> np.ndarray | None:
    """Attach the switchable entangler to the current lane carriers.

    On: the middle qubit is X-measured and its hair Z-measured, coupling
    the lanes by a CZ with a branch-dependent Z residue on each lane. Off:
    the middle qubit is Z-measured, detaching the lanes and leaving only a
    half phase injection on each, which the lane frames absorb.
    """
    mid = b.new_vertex()
    hair = b.new_vertex()
    b.edge(lane1.carrier, mid, b.half_mult())
    b.edge(lane2.carrier, mid, b.half_mult())
    b.edge(mid, hair, b.half_mult())
    a = BoolFn.var(hair_var)
    mb = BoolFn.var(mid_var)
    if on:
        b.measure(mid, mid_var, BoolFn.zero())
        b.measure(hair, hair_var, BoolFn.one())
        residue = a ^ mb ^ BoolFn.one()
        z1 = lane2.xi ^ residue
        z2 = lane1.xi ^ residue
        lane1.zeta = lane1.zeta ^ z1
        lane2.zeta = lane2.zeta ^ z2
        return CZ
    b.measure(mid, mid_var, BoolFn.one())
    b.measure(hair, hair_var, BoolFn.zero())
    for lane in (lane1, lane2):
        lane.zeta = lane.zeta ^ lane.xi ^ mb
        lane.slots.append(zrot(math.pi / 2))
    return None


# -- library ----------------------------------------------------------


def xhalf_fragment() -> PatternFragment:
    """Two vertices, one double edge: the half X-rotation teleport."""
    b = _Builder()
    lane = _Lane(b, "z", "x")
    lane.teleport("a")
    return _finalize(b, [lane], "X(pi/2)")


def _e_plan(b: _Builder, mode: str, with_middle_hair: bool) -> _Lane:
    if mode not in E_MODES:
        raise StructuralError(f"unknown mode {mode!r}")
    lane = _Lane(b, "z", "x")
    lane.teleport("a")
    if with_middle_hair:
        if mode == "H":
            lane.half_hair("d")
        else:
            lane.cut_hair("d", b.half_mult())
    lane.teleport("c")
    if mode in ("T", "Tdg"):
        lane.rotation_cluster("b", ["e"], exp=2)
    elif mode == "S":
        lane.cut_hair("b", 1)
        lane.half_hair("e")
    else:  # H
        lane.cut_hair("b", 1)
        lane.cut_hair("e", b.half_mult())
    return lane


def e_fragment(mode: str) -> PatternFragment:
    """Six-vertex gadget: carrier spine plus hairs b, d, e.

    The same multigraph realizes T, Tdg, H and S depending on the hair
    bases; only the T and Tdg modes are adaptive.
    """
    b = _Builder()
    lane = _e_plan(b, mode, with_middle_hair=True)
    return _finalize(b, [lane], mode)


def e_fragment_nomiddle(mode: str = "T") -> PatternFragment:
    """The adaptive rotation gadget without the middle hair."""
    if mode not in ("T", "Tdg"):
        raise StructuralError("the trimmed gadget only has T and Tdg modes")
    b = _Builder()
    lane = _e_plan(b, mode, with_middle_hair=False)
    return _finalize(b, [lane], mode)


def cz_fragment(on: int) -> PatternFragment:
    """Two unmeasured lanes coupled through a middle qubit and its hair.

    ``on=1`` certifies CZ; ``on=0`` detaches the lanes, leaving a half
    phase rotation on each (a product of local unitaries).
    """
    b = _Builder()
    lane1 = _Lane(b, "z1", "x1")
    lane2 = _Lane(b, "z2", "x2")
    entangler = _cz_hook(b, lane1, lane2, int(on))
    label = "CZ" if on else "SxS"
    return _finalize(b, [lane1, lane2], label, entangler)


def hierarchy_fragment(m: int) -> PatternFragment:
    """Deterministic Z(pi/2^m) via the correction cascade.

    Base exponent m: a single edge carries a phase of pi/2^m, so the
    carrier spine uses bundles of 2^(m-1) parallel edges (a half-phase
    link). The base hair always injects; each corrector hair is consulted
    only while the rotation still misses, and after at most m-1 firings
    only a Pauli Z can remain, which the frame absorbs.
    """
    if m < 1:
        raise StructuralError("exponent must be >= 1")
    if m > MAX_HIERARCHY_EXPONENT:
        raise StructuralError(f"exponent {m} exceeds cap {MAX_HIERARCHY_EXPONENT}")
    b = _Builder(base_exponent=m)
    lane = _Lane(b, "z", "x")
    lane.teleport("a")
    lane.teleport("c")
    lane.rotation_cluster("b", [f"e{j}" for j in range(1, m)], exp=m)
    return _finalize(b, [lane], f"Z(pi/{1 << m})")


# -- the brick ---------------------------------------------------------

# theta plans per lane label: (cluster kind at the rotation site,
# middle-hair kind, extra half phase wanted at top). Kinds: "cluster",
# "half", "cut".
_LEFT_PLAN = {
    "PAD": ("cut", "cut", 0),
    "T": ("cluster", "cut", 0),
    "Tdg": ("cluster", "cut", 0),
    "S": ("half", "cut", 0),
    "H": ("cut", "half", 0),
    "HSH": ("half", "half", 1),
    "HSHS": ("cut", "half", 1),
}
_RIGHT_PLAN = {
    "PAD": (0, "cut", 0),
    "H": (0, "half", 0),
    "S": (0, "cut", 1),
    "HSH": (1, "half", 1),
    "HSHS": (0, "half", 1),
    "HTH": (1, "cluster", 1),
    "HTdgH": (1, "cluster", 1),
}


def _quarter_group(lane: _Lane, kind: str, base_var: str, half_var: str) -> None:
    if kind == "cluster":
        lane.rotation_cluster(base_var, [half_var], exp=2)
    elif kind == "half":
        lane.cut_hair(base_var, 1)
        lane.half_hair(half_var)
    else:
        lane.cut_hair(base_var, 1)
        lane.cut_hair(half_var, lane.b.half_mult())


def _top_hair(lane: _Lane, var: str, want_half: int, cz: int) -> None:
    # With the entangler off, the detached middle qubit injects a half
    # phase on this vertex, so the hair's role flips.
    if bool(want_half) != bool(cz == 0):
        lane.half_hair(var)
    else:
        lane.cut_hair(var, lane.b.half_mult())


def brick(settings: BrickSettings) -> PatternFragment:
    """The 16-qubit two-lane tile.

    Left lane: rotation site at the input vertex, middle hair, top hair.
    Right lane: bottom hair, rotation site at the middle vertex, top hair
    (the rotation blocks of the two lanes are offset by one vertex, which
    is what makes the right lane realize conjugated gates like HTH). A
    middle qubit with its own hair couples the lane ends; switched off it
    leaves half phases that the top hairs absorb.
    """
    lk, lmid, ltop = _LEFT_PLAN[settings.left]
    rbot, rk, rtop = _RIGHT_PLAN[settings.right]

    b = _Builder()
    left = _Lane(b, "z1", "x1")
    _quarter_group(left, lk, "b1", "e1")
    left.teleport("a1")
    if lmid == "half":
        left.half_hair("d1")
    else:
        left.cut_hair("d1", b.half_mult())
    left.teleport("c1")
    _top_hair(left, "s1", ltop, settings.cz)

    right = _Lane(b, "z2", "x2")
    if rbot:
        right.half_hair("s2")
    else:
        right.cut_hair("s2", b.half_mult())
    right.teleport("a2")
    _quarter_group(right, rk, "b2", "e2")
    right.teleport("c2")
    _top_hair(right, "s3", rtop, settings.cz)

    entangler = _cz_hook(b, left, right, settings.cz, mid_var="mb", hair_var="ma")
    return _finalize(b, [left, right], settings.label(), entangler)


BRICK_INPUTS = (0, 7)
BRICK_OUTPUTS = (5, 12)


# -- builtin registry --------------------------------------------------

_BUILTINS = {
    "xhalf": (xhalf_fragment, "X(pi/2)"),
    "e_t": (lambda: e_fragment("T"), "T"),
    "e_tdg": (lambda: e_fragment("Tdg"), "Tdg"),
    "e_h": (lambda: e_fragment("H"), "H"),
    "e_s": (lambda: e_fragment("S"), "S"),
    "e_t_nomiddle": (lambda: e_fragment_nomiddle("T"), "T"),
    "cz_on": (lambda: cz_fragment(1), "CZ"),
    "cz_off": (lambda: cz_fragment(0), "SxS"),
    "brick": (lambda: brick(BrickSettings("T", "HTH", 0)), "TxHTH"),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS) + ["hier_m{K}"]


def builtin_fragment(name: str) -> tuple[PatternFragment, str]:
    """Resolve a builtin name to (fragment, advertised target label)."""
    if name in _BUILTINS:
        factory, label = _BUILTINS[name]
        return factory(), label
    m = re.fullmatch(r"hier_m(\d+)", name)
    if m:
        k = int(m.group(1))
        return hierarchy_fragment(k), f"Z(pi/{1 << k})"
    raise StructuralError(f"unknown builtin fragment {name!r}")
