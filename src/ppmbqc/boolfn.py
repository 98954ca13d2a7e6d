"""Boolean functions over GF(2) in algebraic normal form.

A function is stored as a set of monomials, each monomial a set of variable
names combined by AND; monomials are combined by XOR. The empty monomial is
the constant 1, the empty monomial set is the constant 0. The representation
is canonical: duplicate monomials cancel in pairs, so two equal functions
have equal monomial sets.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import reduce
from itertools import product

import numpy as np

from .errors import EvaluationError

Monomial = frozenset[str]


def _canonical(monomials: Iterable[Iterable[str]]) -> frozenset[Monomial]:
    acc: set[Monomial] = set()
    for mono in monomials:
        m = frozenset(mono)
        if m in acc:
            acc.discard(m)  # x ^ x = 0
        else:
            acc.add(m)
    return frozenset(acc)


@dataclass(frozen=True)
class BoolFn:
    """An ANF polynomial: XOR over monomials of AND over variables.

    Construction canonicalises ``monomials``, any iterable of name
    iterables: ``BoolFn([["a"], ["b", "z"], []])`` is ``a ^ b*z ^ 1``.
    """

    monomials: frozenset[Monomial] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "monomials", _canonical(self.monomials))

    @classmethod
    def _of(cls, monomials: frozenset[Monomial]) -> BoolFn:
        """A function on a set that is canonical as it stands: no check, no copy."""
        fn = object.__new__(cls)
        object.__setattr__(fn, "monomials", monomials)
        return fn

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> BoolFn:
        return BoolFn._of(frozenset())

    @staticmethod
    def one() -> BoolFn:
        return BoolFn._of(frozenset({frozenset()}))

    @staticmethod
    def var(name: str) -> BoolFn:
        return BoolFn._of(frozenset({frozenset({name})}))

    @staticmethod
    def const(bit: int) -> BoolFn:
        return BoolFn.one() if bit & 1 else BoolFn.zero()

    @staticmethod
    def xor_of(*fns: BoolFn | str) -> BoolFn:
        """XOR of functions; bare strings are taken as variables."""
        parts = [BoolFn.var(f) if isinstance(f, str) else f for f in fns]
        return reduce(lambda a, b: a ^ b, parts, BoolFn.zero())

    # -- algebra ------------------------------------------------------

    def __xor__(self, other: BoolFn) -> BoolFn:
        return BoolFn._of(self.monomials ^ other.monomials)

    def __and__(self, other: BoolFn) -> BoolFn:
        # Distribute; x AND x = x inside a monomial via set union.
        return BoolFn(a | b for a in self.monomials for b in other.monomials)

    @property
    def variables(self) -> tuple[str, ...]:
        """Sorted names referenced by at least one monomial."""
        return tuple(sorted(frozenset().union(*self.monomials)))

    def is_constant(self) -> bool:
        return not any(self.monomials)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise EvaluationError(f"{self} is not constant")
        return 1 if frozenset() in self.monomials else 0

    # -- evaluation ---------------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a variable assignment; unbound variables raise."""
        acc = 0
        for mono in self.monomials:
            term = 1
            for name in mono:
                try:
                    term &= env[name] & 1
                except KeyError:
                    raise EvaluationError(f"unbound variable {name!r}") from None
                if not term:
                    break
            acc ^= term
        return acc

    def evaluate_rows(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized evaluation over parallel rows of uint8 bits."""
        rows = len(next(iter(env.values()))) if env else 1
        acc = np.zeros(rows, dtype=np.uint8)
        for mono in self.monomials:
            term = np.ones(rows, dtype=np.uint8)
            for name in mono:
                if name not in env:
                    raise EvaluationError(f"unbound variable {name!r}")
                term &= env[name]
            acc ^= term
        return acc

    # -- substitution -------------------------------------------------

    def substitute(self, bindings: Mapping[str, BoolFn]) -> BoolFn:
        """Replace bound variables by ANF polynomials, canonicalising once."""
        terms = []
        for mono in self.monomials:
            bound = [name for name in mono if name in bindings]
            if not bound:
                terms.append(mono)
                continue
            factors = product(*(bindings[name].monomials for name in bound))
            terms.extend(mono.difference(bound).union(*picks) for picks in factors)
        return BoolFn(terms)

    def rename(self, mapping: Mapping[str, str]) -> BoolFn:
        """Rename variables; monomials a non-injective map makes equal cancel."""
        return BoolFn(frozenset(mapping.get(n, n) for n in m) for m in self.monomials)

    def prefixed(self, names: Mapping[str, str]) -> BoolFn:
        """:meth:`rename` by ``names``, which puts one prefix on every variable.

        A uniform prefix is injective, so no two monomials meet and the
        result is canonical as built.
        """
        if not any(self.monomials):
            return self  # a constant reads no name
        # Copied from a set, a frozenset is sized to fit; grown from a
        # generator, its table can be twice as large.
        return BoolFn._of(frozenset({frozenset(map(names.__getitem__, m)) for m in self.monomials}))

    # -- serialization ------------------------------------------------

    def to_anf_lists(self) -> list[list[str]]:
        """Deterministic nested-list form used by the JSON schema."""
        # By length, then by name: a stable sort by length of the sorted list.
        return sorted(sorted(map(sorted, self.monomials)), key=len)

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        parts = ["1" if not m else "*".join(m) for m in self.to_anf_lists()]
        return " ^ ".join(parts)


def mobius_anf(table: np.ndarray, names: list[str]) -> BoolFn:
    """Fit the exact ANF of a truth table via the GF(2) Moebius transform.

    ``table`` holds one bit per assignment; assignment ``i`` sets
    ``names[j]`` to bit ``j`` of ``i`` counted from the most significant
    position (``names[0]`` is the MSB of the row index).
    """
    k = len(names)
    if table.shape != (1 << k,):
        raise ValueError(f"table must have {1 << k} rows, got {table.shape}")
    coeff = np.array(table, dtype=np.uint8)
    for j in range(k):
        c = coeff.reshape(-1, 2, 1 << (k - 1 - j))  # a view: pairs of blocks
        c[:, 1] ^= c[:, 0]
    monomials = []
    for idx in np.nonzero(coeff)[0]:
        mono = [names[j] for j in range(k) if (idx >> (k - 1 - j)) & 1]
        monomials.append(mono)
    return BoolFn(monomials)
