"""Undirected multigraphs whose edges carry parity-phase multiplicities.

A graph with base exponent ``m`` interprets an edge of multiplicity ``k``
as ``k`` applications of the two-qubit phase interaction with angle
``pi / 2**m``. Multiplicities live modulo ``2**(m+1)`` because the full-turn
interaction is a global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import StructuralError

Edge = tuple[int, int, int]  # (u, v, multiplicity) with u < v

# Past this exponent pi / 2**m is no longer a normal float.
MAX_BASE_EXPONENT = 1023


def _norm_pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class PGraph:
    """Immutable multigraph; operations return new graphs."""

    vertex_count: int
    base_exponent: int = 2
    edges: tuple[Edge, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.vertex_count < 0:
            raise StructuralError("vertex_count must be non-negative")
        if not 1 <= self.base_exponent <= MAX_BASE_EXPONENT:
            raise StructuralError(f"base_exponent must lie in [1, {MAX_BASE_EXPONENT}]")
        modulus = self.multiplicity_modulus
        n = self.vertex_count
        seen: dict[tuple[int, int], int] = {}
        for u, v, k in self.edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                self._check_pair(u, v)
            pair = (u, v) if u < v else (v, u)
            seen[pair] = (seen.get(pair, 0) + k) % modulus
        clean = tuple(sorted((u, v, k) for (u, v), k in seen.items() if k))
        object.__setattr__(self, "edges", clean)

    def _check_pair(self, u: int, v: int) -> None:
        if u == v:
            raise StructuralError(f"self-loop on vertex {u}")
        for w in (u, v):
            if not 0 <= w < self.vertex_count:
                raise StructuralError(f"vertex {w} out of range [0, {self.vertex_count})")

    @property
    def multiplicity_modulus(self) -> int:
        return 1 << (self.base_exponent + 1)

    @property
    def edge_angle(self) -> float:
        """Rotation angle contributed by a single edge."""
        return self.angle(1)

    def angle(self, mult: int) -> float:
        """Rotation angle of ``mult`` parallel edges, ``mult * pi / 2**m``.

        The quotient ``mult / 2**m`` is formed first, so a multiplicity past
        the float range (the modulus is ``2**(m+1)``) never converts on its own.
        """
        return math.pi * (mult / (1 << self.base_exponent))

    def multiplicity(self, u: int, v: int) -> int:
        self._check_pair(u, v)
        pair = _norm_pair(u, v)
        for a, b, k in self.edges:
            if (a, b) == pair:
                return k
        return 0

    def add_edges(self, u: int, v: int, k: int) -> PGraph:
        """Return a graph with ``k`` more parallel edges between ``u`` and ``v``."""
        self._check_pair(u, v)
        return PGraph(self.vertex_count, self.base_exponent, self.edges + ((*_norm_pair(u, v), k),))

    def relabel(self, mapping: dict[int, int], vertex_count: int) -> PGraph:
        """Map vertex ids; merged vertices accumulate multiplicities."""
        edges = tuple((mapping[u], mapping[v], k) for u, v, k in self.edges)
        return PGraph(vertex_count, self.base_exponent, edges)
