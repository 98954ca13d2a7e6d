"""Adaptive execution of patterns and fragments.

One engine runs every outcome source. Once per fragment it builds a plan
in the standard form of the measurement calculus (Danos, Kashefi and
Panangaden, arXiv:0704.1263) and keeps it on the fragment. The plan
measures the lowest ready vertex first, and puts each edge at its
first-measured endpoint, so every edge applied at step j touches the vertex
v measured there: a star of parity phases, which is diagonal. Diagonals
commute, so the plan is a list of blocks: a step joins the block before it
(up to ``_BLOCK`` steps) when it prepares no qubit and its choice reads no
outcome of the block. A block's one diagonal also carries the |+>
normalization of the qubits it prepares. The last block measures nothing:
its diagonal joins the unmeasured vertices and prepares the outputs not yet
live. Blocks with the same register layout, star and scale share one
diagonal. The plan keeps its distinct diagonals while they fit in the bytes
of one register at the cap and builds any others when their block runs; a
block wider than the cap is refused, and so is a run whose widest point
would be, before it starts.

The classical side follows the one dependency walk that also orders the
measurements: each block first sets the definitions the walk resolved since
the block before it, then evaluates each step's choice and writes its
outcome; the output corrections come last. Each input error, outcome and
definition holds one bit of the branch word from its write until its last
reader, which may take the bit over, so a word is as wide as the most values
live at once.

Every call walks the blocks over a ``(2**live, 2**spectators, rows)``
amplitude array. The live qubits stay in measurement order, so the measured
qubit always leads and its halves are contiguous; spectators ride along
untouched, and branch rows are the innermost axis, so each kernel's inner
loop runs over the rows. A qubit joins the register in |+>, at its place in
that order, when its first edge or measurement needs it, and leaves it once
measured.

Every block, the closing one included, is one multiply of the register by
its diagonal, then its steps; only the choice of surviving outcome rows
depends on the source. Exhaustive enumeration splits every row into both
outcomes at each step (row r into rows 2r and 2r+1, written as a trailing
outcome axis, so the first measurement is the most significant bit of the
branch index), a seeded shot draws one outcome from the branch
distribution, and a tape forces it. A run with a source keeps one row, so
its branch word is one Python int; an exhaustive run keeps one word per row,
and a split hands each row's word to both children. No choice reads an
outcome of its block, so an exhaustive run evaluates each step's choice,
and decides between X, Z and a per-row blend, once over the rows that
enter the block. Its tail, the last measuring block and the closing block,
then runs over chunks of those rows, each writing at most ``_CHUNK``
amplitudes in arrays that stay in cache, and writes its leaves transposed
straight into the rows-first states. A one-row run measures a block of g
steps at once: a fixed matrix per basis pattern turns one real Gram
product of the 2**g halves of the block's measured qubits into the weight
of every outcome prefix, the outcomes are drawn from those step by step,
and only the drawn child is built. The amplitudes stay unnormalized, so
their weight times the run's scale is the branch probability, and are
rescaled only when that weight leaves ``[2**-500, 2**500]``.

An exhaustive run may carry several input-error assignments (members) that
agree on every input error a choice reads, directly or through definitions.
Members, and the output frames a run returns, are frame codes in the one
convention of :func:`~ppmbqc.unitaries.frame_bits`. Members share the
amplitudes, which are framed by the first, and its branch words; each gets
its own corrections. The other input errors are the same on every row, so
the plan factors every definition and correction that reads them into row
parts, one per monomial of those errors, by substituting each factored
definition's own factored form: each row part is a value like any other,
and a member's correction is the XOR of the row parts whose error monomial
it sets.

Only the engine decides which branches are possible, by the rule shots use:
every measurement on the branch had conditional probability at least
``IMPOSSIBLE_PROB``. Traces and the verifier read its ``possible`` mask.
The ensemble's outcome and choice bits are built on first read, so a
certificate that keeps no records never builds them.

Choice semantics everywhere: choice value 0 measures X, value 1 measures Z.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .boolfn import BoolFn
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
from .unitaries import apply_frames, frame_bits


def _natural(value) -> bool:
    """Whether ``value`` is a non-negative integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


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
        if not _natural(self.seed):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "tape", tuple(int(b) for b in self.tape))

    @staticmethod
    def seeded(seed: int = 0xC0FFEE) -> OutcomeSource:
        return OutcomeSource("seeded", seed=seed)

    @staticmethod
    def fixed(tape: tuple[int, ...] | list[int]) -> OutcomeSource:
        return OutcomeSource("tape", tape=tuple(tape))


@dataclass(frozen=True)
class ExecutionTrace:
    """Record of one adaptive run.

    ``probability`` is the branch probability, 0.0 on an impossible branch;
    on a deep one it can underflow to 0.0 where ``log2_probability``, its
    base-2 logarithm, stays finite. That is -inf on an impossible branch,
    and ``to_dict`` gives it as None there.
    """

    outcomes: dict[str, int]
    bases: dict[int, str]
    probability: float
    log2_probability: float
    state: Statevector | None
    frame: dict[int, tuple[int, int]]
    error_bits: dict[str, int] = field(default_factory=dict)

    def to_dict(self, include_amplitudes: bool = False) -> dict:
        log2p = self.log2_probability
        out = {
            "outcomes": dict(sorted(self.outcomes.items())),
            "bases": {str(v): b for v, b in sorted(self.bases.items())},
            "probability": self.probability,
            "log2_probability": log2p if log2p > -math.inf else None,  # JSON has no -inf
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
    n = f.pattern.graph.vertex_count
    return [u for u in _ready_order(f)[0] if u < n]


def feed_forward_depth(f: PatternFragment) -> int:
    """Number of sequential measurement rounds."""
    return len(dependency_schedule(f))


@dataclass
class BranchEnsemble:
    """Outcome branches of one fragment execution, one row per branch.

    ``states`` holds unnormalized leaf vectors and ``weights`` their squared
    norms; a weight times ``scale`` is the branch probability. Exhaustive
    runs keep ``scale`` at 1. A single-row run leaves its amplitudes
    unnormalized and rescales them only when their weight leaves
    ``[2**-500, 2**500]``; ``scale`` takes the factor out, and a deep run's
    scale can underflow, so ``log2_scale`` keeps its base-2 logarithm.
    ``possible`` is the engine's verdict on each row: every measurement on
    it had conditional probability at least ``IMPOSSIBLE_PROB``. ``frames``
    holds each row's output frame code, which :func:`frame_bits` unpacks
    into each output's ``(zeta, xi)``. Branch
    index bits follow ``order`` with the first measurement as the most
    significant bit. The ``(steps, rows)`` uint8 ``outcomes`` and
    ``choices`` are built on first read: from the row index, or ``drawn``
    in a one-row run, and from each step's choices as ``chosen`` holds them:
    over the rows entering the step's block, each covering the rows it
    splits into.
    """

    order: list[int]
    names: list[str]  # outcome variable of each step
    states: np.ndarray  # (rows, 2**(outputs+spectators))
    weights: np.ndarray  # (rows,)
    possible: np.ndarray  # (rows,) bool
    chosen: list  # per step: an array over the rows entering its block, or an int
    error_bits: dict[str, int]
    frames: np.ndarray  # (rows,) output frame codes, in the narrowest unsigned type
    scale: float = 1.0
    log2_scale: float = 0.0
    drawn: list[int] | None = None  # a one-row run's outcomes

    @property
    def probabilities(self) -> np.ndarray:
        return self.scale * self.weights

    @functools.cached_property
    def outcomes(self) -> np.ndarray:
        if self.drawn is not None:
            return np.array(self.drawn, dtype=np.uint8).reshape(-1, 1)
        shifts = np.arange(len(self.chosen) - 1, -1, -1)[:, None]
        return (np.arange(len(self.weights)) >> shifts & 1).astype(np.uint8)

    @functools.cached_property
    def choices(self) -> np.ndarray:  # a step's choice covers the rows its row splits into
        rows = len(self.weights)
        levels = [np.repeat(c, rows // np.size(c)) for c in self.chosen]
        return np.array(levels, dtype=np.uint8).reshape(-1, rows)

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
        if self.drawn is None:
            outcomes, choices = self.outcomes.T.tolist(), self.choices.T.tolist()
        else:  # one row: its lists as they are
            outcomes, choices = [self.drawn], [self.chosen]
        out = []
        frames = frame_bits(self.frames, len(f.outputs)).tolist()
        per_row = zip(self.weights.tolist(), self.possible.tolist(), frames)
        for r, (w, ok, frame) in enumerate(per_row):
            got = dict(zip(self.names, outcomes[r]))
            out.append(
                ExecutionTrace(
                    {var: got[var] for var in var_order},
                    {v: BASIS_BY_CHOICE[c] for v, c in zip(self.order, choices[r])},
                    self.scale * w if ok else 0.0,
                    self.log2_scale + math.log2(w) if ok else -math.inf,
                    Statevector(qubits, self.states[r] / math.sqrt(w)) if ok else None,
                    dict(zip(f.outputs, map(tuple, frame))),
                    dict(self.error_bits),
                )
            )
        return out


# -- the engine -------------------------------------------------------------

# An ANF compiled against the bits its variables hold when it is read: one
# bit mask per monomial.
CompiledAnf = tuple[int, ...]


@dataclass(frozen=True)
class _Deferred:
    """A diagonal that the plan does not keep: numpy has ``build()`` make it for one use."""

    shape: tuple[int, ...]
    build: Callable[[], np.ndarray]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.build()


@dataclass(frozen=True)
class _Block:
    """Up to ``_BLOCK`` measurements that share one diagonal, and what runs before them.

    ``defs`` are the definitions the walk resolved since the block before,
    as ``(anf, bit)``: each sets ``bit`` of the branch word to a
    definition's value, or to a row part that a correction needs (kept under
    the key ``(definition, S)``, right before its definition). ``steps``
    are the measurements, as ``(anf, bit)``: each evaluates a choice, which
    reads no outcome of the block, and sets ``bit`` to the outcome. A step
    whose compiled choice is empty measures X, and the diagonal holds its
    ``1/sqrt(2)``. The closing block has no steps.

    The register holds the live qubits in measurement order, so the block's
    measured vertices lead. ``shape`` views it as one axis per run of live
    qubits and a size-1 axis per run of fresh ones. ``diag``, of the same
    rank plus a trailing axis of 1, is the product of the block's edge
    phases over the register after allocation (step diagonals commute),
    times ``2**(-f/2)`` for the ``f`` fresh |+> qubits and ``1/sqrt(2)`` for
    each X step with an empty choice. ``diag`` is :class:`_Deferred` when
    the plan does not keep it. Every block, the closing one included, runs
    as one multiply of the register, viewed as ``shape``, by ``diag``, then
    its steps.
    """

    shape: tuple[int, ...]
    diag: np.ndarray | _Deferred
    defs: tuple[tuple[CompiledAnf, int], ...]
    steps: tuple[tuple[CompiledAnf, int], ...]


@dataclass(frozen=True)
class _Plan:
    """A fragment's standard form, compiled once.

    ``blocks`` measure ``order`` in the order of the dependency walk; the
    last measures nothing, prepares the outputs not yet live and joins the
    unmeasured vertices, which leaves the outputs in fragment order.
    ``errors`` holds the bit of each input-error variable, in
    ``error_variables`` order. A value keeps its bit from its write until
    its last reader, which may take the bit over; a value nothing reads has
    bit 0, so writing it changes nothing. ``width`` counts the bits in use.
    ``perm`` puts the input axes in measurement order. ``peaks`` holds the
    most qubits a run keeps at once, spectators aside: first a one-row
    run's, its widest block, then an exhaustive run's, the most log2(rows)
    plus register at any block.

    Input errors enter ``guards`` and ``corrections`` by their bit in an
    input-error frame code (see :func:`frame_bits`), the form a run's
    members take. ``guards`` pairs each guarded input error's bit with the
    first vertex whose choice reads it, directly or through definitions, in
    that vertex's order: a run's members must agree on them.
    ``corrections`` lists each output's zeta then xi, read after the last
    block, as ``(anf, terms)``: ``anf`` gives it at the first member, and
    each ``(errs, row)`` term adds the compiled ANF ``row`` where a member
    and the first differ on the product of the free (unguarded) errors
    whose bits the mask ``errs`` sets.
    """

    order: tuple[int, ...]
    names: tuple[str, ...]
    blocks: tuple[_Block, ...]
    perm: tuple[int, ...]
    corrections: tuple[tuple[CompiledAnf, tuple[tuple[int, CompiledAnf], ...]], ...]
    errors: tuple[int, ...]
    guards: tuple[tuple[int, int], ...]
    width: int
    peaks: tuple[int, int]


# A step joins the block before it only while the block holds fewer steps.
_BLOCK = 4


def _diagonal(register: list[int], star, tables, scale: float, shape) -> np.ndarray:
    """The ``star``'s parity phases over ``register``, times ``scale``, reshaped to ``shape``."""
    d = np.full((2,) * len(register), scale, dtype=complex)
    for u, w, m in star:
        axes = [1] * len(register)
        axes[register.index(u)] = axes[register.index(w)] = 2
        d *= tables[m].reshape(axes)  # a parity table is symmetric in its two qubits
    return d.reshape(shape)


def _factor(fn: BoolFn, free: set[str], forms: dict) -> list[tuple[frozenset[str], BoolFn]]:
    """``fn`` as the XOR, over monomials S of the ``free`` input errors, of S times a row part.

    ``forms`` binds each factored definition to its own such XOR, so after
    substitution a row part reads neither the free errors nor a factored
    definition. Zero row parts are left out; the rest come in a fixed order.
    """
    rows: dict[frozenset[str], list] = {}
    for mono in fn.substitute(forms).monomials:
        rows.setdefault(mono & free, []).append(mono - free)
    return sorted(((S, BoolFn(r)) for S, r in rows.items()), key=lambda t: sorted(t[0]))


def _compile_plan(f: PatternFragment) -> _Plan:
    nodes, _ = _ready_order(f)  # vertex v is node v, definition i node n + i
    n = f.pattern.graph.vertex_count
    order = [u for u in nodes if u < n]
    k = len(order)
    names = [f.pattern.measurements[v].var for v in order]
    graph = f.pattern.graph
    tables = {m: phase_table(graph.angle(m)) for m in {mult for *_, mult in graph.edges}}
    rank = {v: i for i, v in enumerate([*order, *f.outputs])}  # the register's order
    edges: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
    for u, w, mult in graph.edges:
        edges[min(rank[u], rank[w], k)].append((u, w, mult))

    # An input error that a choice reads, directly or through definitions,
    # is guarded: the members of a run agree on it. They differ from the
    # first only in the other (free) errors, which are the same on every row.
    # So a correction g is g at the first member, XOR, for each monomial S of
    # the free errors, g's row part g_S wherever S tells the two apart. A
    # definition that reads a free error keeps its value at the first member
    # and is bound to its form, the XOR of S times its row parts: 1, a
    # variable, or a new definition keyed (name, S), which no fragment name
    # (a string) can equal. A new definition runs only if a correction's row
    # part reads it.
    errors = f.error_variables()
    reads = {name: {name} for name in errors}  # the errors each value reads
    for name, fn in f.frames.items():
        reads[name] = set().union(*(reads.get(v, ()) for v in fn.variables))
    guards: dict[str, int] = {}  # each guarded error: the first vertex that reads it
    for v in order:
        for var in f.pattern.measurements[v].choice.variables:
            for name in sorted(reads.get(var, ())):
                guards.setdefault(name, v)
    free = set(errors) - set(guards)
    code_bit = {name: 1 << i for i, name in enumerate(reversed(errors))}  # frame_bits order
    forms: dict[str, BoolFn] = {}
    parts: dict[str, list[tuple[tuple, BoolFn]]] = {}  # each factored definition's new ones
    for name, fn in f.frames.items():
        if reads[name] & free:
            form, parts[name] = [], []
            for S, row in _factor(fn, free, forms):
                if len(row.monomials) > 1 or len(next(iter(row.monomials))) > 1:
                    parts[name].append(((name, S), row))
                    row = BoolFn([[(name, S)]])
                form += [S | mono for mono in row.monomials]
            forms[name] = BoolFn(form)
    corrections = [fn for o in f.outputs for fn in (f.corrections[o].zeta, f.corrections[o].xi)]
    terms = [[(S, row) for S, row in _factor(fn, free, forms) if S] for fn in corrections]
    needed = set().union(*(mono for t in terms for _, row in t for mono in row.monomials))
    for part, row in reversed([p for ps in parts.values() for p in ps]):
        if part in needed:
            needed.update(*row.monomials)

    # The walk resolves each definition as soon as what it reads is, right
    # behind those of its row parts that a correction needs: they read only
    # what it reads. A step joins the block before it while that holds fewer
    # than _BLOCK steps, if it prepares no qubit and its choice reads nothing
    # written since the block began: no outcome of the block, directly or
    # through the definitions the walk resolves inside it, which all read
    # one. Those definitions then run before the next block.
    def touched(j: int) -> set[int]:  # the vertices step j measures or entangles
        return {order[j], *(w for edge in edges[j] for w in edge[:2])}

    frames = list(f.frames.items())
    walk, held, written, prepared = [], [], set(), set(f.inputs)  # walk: (first step, defs, steps)
    for u in nodes:
        if u >= n:
            name, fn = frames[u - n]
            held += [(row, part) for part, row in parts.get(name, ()) if part in needed]
            held.append((fn, name))
            written.add(name)
            continue
        j = rank[u]
        new = touched(j) - prepared
        prepared |= new
        choice = f.pattern.measurements[u].choice
        joins = walk and not new and len(walk[-1][2]) < _BLOCK
        if not (joins and written.isdisjoint(choice.variables)):
            walk.append((j, held, []))
            held, written = [], set()
        written.add(names[j])
        walk[-1][2].append((choice, names[j]))
    walk.append((k, held, []))  # the closing block measures nothing
    program = [entry for _, defs, steps in walk for entry in (*defs, *steps)]

    # Each value holds the lowest free bit from its write until its last
    # read, where the bit is freed for the value that reader writes.
    last = {}
    for i, (fn, _) in enumerate(program):
        last.update(dict.fromkeys(set().union(*fn.monomials), i))
    for fn in [*corrections, *(row for t in terms for _, row in t)]:
        last.update(dict.fromkeys(set().union(*fn.monomials), len(program)))
    bit, free_bits, freed, slots = {}, [], {}, itertools.count()
    for i, name in enumerate([*errors, *(name for _, name in program)], -len(errors)):
        for slot in freed.pop(i, ()):
            heapq.heappush(free_bits, slot)
        bit[name] = 0
        if name in last:
            slot = heapq.heappop(free_bits) if free_bits else next(slots)
            bit[name] = 1 << slot
            freed.setdefault(last[name], []).append(slot)

    def compiled(fn) -> CompiledAnf:
        return tuple(sum(bit[name] for name in mono) for mono in fn.monomials)

    # Blocks with the same register layout, star and scale share one
    # diagonal (repeated gates give many). The plan keeps distinct diagonals
    # while they fit in the bytes of one register at the cap, and defers the
    # rest to their blocks, so neither depth nor width makes it outgrow that.
    shared: dict[tuple, np.ndarray | _Deferred] = {}
    kept = 0
    live, blocks, peaks = sorted(f.inputs, key=rank.get), [], (0, 0)
    for j, defs, steps in walk:
        new = (touched(j) if steps else set(f.outputs)).difference(live)  # none is measured yet
        register = sorted([*live, *new], key=rank.get)  # the block's vertices lead
        if len(register) > DEFAULT_QUBIT_CAP:  # no run of this block fits
            raise StateSizeError(f"{len(register)} qubits would exceed cap {DEFAULT_QUBIT_CAP}")
        # The closing block, at j = k, takes the edges between unmeasured vertices.
        star = [edge for i in range(j, j + max(len(steps), 1)) for edge in edges[i]]
        scale = 2.0 ** (-(len(new) + sum(not fn.monomials for fn, _ in steps)) / 2)
        runs = [(b, len(list(g))) for b, g in itertools.groupby(register, new.__contains__)]
        view = tuple(1 if b else 1 << m for b, m in runs)
        shape = (*(1 << m for _, m in runs), 1)
        where = tuple(sorted((register.index(u), register.index(w), m) for u, w, m in star))
        key = (view, shape, scale, where)
        if key not in shared:
            build = functools.partial(_diagonal, register, star, tables, scale, shape)
            if kept + (16 << len(register)) <= 16 << DEFAULT_QUBIT_CAP:
                kept += 16 << len(register)
                shared[key] = build()
            else:
                shared[key] = _Deferred(shape, build)
        entries = [tuple((compiled(fn), bit[name]) for fn, name in e) for e in (defs, steps)]
        blocks.append(_Block(view, shared[key], *entries))
        peaks = (max(peaks[0], len(register)), max(peaks[1], j + len(register)))
        live = register[len(steps) :]

    return _Plan(
        tuple(order),
        tuple(names),
        tuple(blocks),
        tuple(sorted(range(len(f.inputs)), key=lambda i: rank[f.inputs[i]])),
        tuple(
            (compiled(fn), tuple((sum(code_bit[e] for e in S), compiled(c)) for S, c in t))
            for fn, t in zip(corrections, terms)
        ),
        tuple(bit[name] for name in errors),
        tuple((code_bit[name], v) for name, v in guards.items()),
        next(slots),  # the bits ever taken
        peaks,
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

    A branch word holds a bit for each value live at that point of the
    run, from its write to its last reader. ``words`` is one Python int
    for a one-row run, giving an int, or an array of them, giving one value
    per row: a bool array for int64 words, built in place.
    """
    if isinstance(words, int) or words.dtype == object:
        acc = words & 0  # 0, or a zero per row
        for mask in anf:
            acc = acc ^ ((words & mask) == mask)
        return acc
    acc, masked, hit = np.zeros(len(words), bool), np.empty_like(words), np.empty(len(words), bool)
    for mask in anf:
        acc ^= np.equal(np.bitwise_and(words, mask, out=masked), mask, out=hit)
    return acc


def _corrections(plan: _Plan, word, members: list[int]) -> np.ndarray:
    """Every member's output frame code on every row: ``(members, rows)``.

    ``word`` is the final branch word (per row) and ``members`` holds each
    member's input-error frame code. The output codes follow
    :func:`frame_bits`, in the narrowest unsigned type that holds them
    (48 bits at most: the outputs fit the qubit cap). The first member's
    codes are built once; each other member's are a copy, XOR the row parts
    of the terms whose free errors it and the first set differently. Each
    row part is evaluated once over the rows, and only if some member
    differs on it.
    """
    shifts = range(len(plan.corrections) - 1, -1, -1)  # zeta then xi, output 0 first
    dtype = np.min_scalar_type((1 << len(plan.corrections)) - 1)
    first = np.zeros(np.size(word), dtype)
    for shift, (anf, _) in zip(shifts, plan.corrections):
        first |= np.asarray(_evaluate(anf, word), dtype) << shift
    out = np.repeat(first[None], len(members), axis=0)
    for shift, (_, terms) in zip(shifts, plan.corrections):
        for errs, row in terms:
            sets = members[0] & errs == errs
            differ = [m for m, e in enumerate(members) if (e & errs == errs) != sets]
            if differ:  # a constant row part, (0,), is one scalar bit
                value = 1 if row == (0,) else np.asarray(_evaluate(row, word), dtype)
                out[differ] ^= value << shift
    return out


def _basis(value) -> bool | np.ndarray:
    """A step's basis from its choice ``value``: X (True), Z (False), or X per row where it is 0.

    Decided once over the rows entering the step's block, so every chunk of
    them runs the same arithmetic.
    """
    x = value == 0
    return True if x.all() else x if x.any() else False


def _split(amps: np.ndarray, x, scaled: bool) -> np.ndarray:
    """Measure the leading qubit on every row: row r of ``amps`` becomes rows 2r and 2r + 1.

    ``amps`` has shape ``(2**live, spectators, rows)``, with its block's
    diagonal applied (see :func:`_measure`), and a0, a1 are the halves of
    its leading qubit. Z keeps them; X makes them ``a0 + a1`` and ``a0 -
    a1``, times ``1/sqrt(2)`` unless the diagonal holds it (``scaled``).
    ``x`` is a :func:`_basis`, with a bool per row of ``amps``: rows are the
    inner axis, so a per-row ``x`` blends the two bases with per-row
    coefficients, without masks.
    """
    N, S, rows = amps.shape
    a0, a1 = amps.reshape(2, N // 2, S, rows)
    kids = np.empty((N // 2, S, rows, 2), dtype=complex)
    k0, k1 = kids[..., 0], kids[..., 1]
    if x is True:
        np.add(a0, a1, out=k0)
        np.subtract(a0, a1, out=k1)
        if not scaled:
            np.multiply(kids, SQRT2_INV, out=kids)
    elif x is False:
        k0[...], k1[...] = a0, a1
    else:  # X rows: (a0 + a1, a0 - a1) / sqrt(2); Z rows keep (a0, a1)
        h = np.where(x, SQRT2_INV, 0.0)
        np.multiply(a0, np.where(x, SQRT2_INV, 1.0), out=k0)
        k0 += a1 * h
        np.multiply(a1, np.where(x, -SQRT2_INV, 1.0), out=k1)
        k1 += a0 * h
    return kids.reshape(-1, S, 2 * rows)


def _measure(amps: np.ndarray, block: _Block, bases: list, rows=slice(None)) -> np.ndarray:
    """Multiply ``amps`` by the block's diagonal, then split every row at each of its steps.

    ``bases`` holds each step's :func:`_basis` over the rows entering the
    block, of which ``amps`` holds ``rows``; after j steps, entering row r
    covers rows ``r * 2**j`` to ``(r + 1) * 2**j``.
    """
    _, S, n = amps.shape
    amps = np.multiply(amps.reshape(block.shape + (-1,)), block.diag).reshape(-1, S, n)
    for j, ((anf, _), x) in enumerate(zip(block.steps, bases)):
        x = x if isinstance(x, bool) else np.repeat(x[rows], 1 << j)
        amps = _split(amps, x, not anf)
    return amps


# The exhaustive tail runs over chunks of the rows that enter it, each
# chunk writing at most this many amplitudes of the states, so that its
# arrays stay in cache and their memory is reused from chunk to chunk.
_CHUNK = 1 << 14


def _finish(amps: np.ndarray, tail: list) -> np.ndarray:
    """Run an exhaustive run's tail over chunks of its entering rows; return the rows-first states.

    ``tail`` holds the last measuring block, if there is one, and the
    closing block, each with its steps' bases over the rows of ``amps``,
    which enter the tail. Each chunk of those rows runs each block through
    :func:`_measure`, as the whole array would, then writes its leaves,
    transposed, straight into the states: entering rows ``[r0, r1)`` own
    rows ``[r0 * 2**g, r1 * 2**g)`` after the tail's g steps.
    """
    tail = [(replace(b, diag=np.asarray(b.diag)), x) for b, x in tail]  # built once
    _, S, rows = amps.shape
    g = sum(len(b.steps) for b, _ in tail)
    states = np.empty((rows << g, tail[-1][0].diag.size * S), dtype=complex)
    step = max(1, _CHUNK // (states.shape[1] << g))
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        part = amps[..., r0:r1]
        for block, bases in tail:
            part = _measure(part, block, bases, slice(r0, r1))
        states[r0 << g : r1 << g] = part.reshape(-1, (r1 - r0) << g).T
    return states


# A one-row run rescales its amplitudes only when their squared norm leaves
# [_FLOOR, 1 / _FLOOR], so they never underflow nor overflow.
_FLOOR = 2.0**-500


@functools.cache
def _block_tables(choices: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Fixed matrices of a block measuring X where ``choices`` is 0, Z elsewhere.

    Row b of ``signs`` takes the halves of the block's qubits to outcome b's
    child, X without its ``1/sqrt(2)``. ``marginals`` takes their real Gram
    matrix, flattened, to the weight of each prefix p of L outcomes, at
    ``2**L - 2 + p``; the first outcome is the most significant bit.
    """
    signs = np.ones((1, 1))
    for c in choices:
        signs = np.kron(signs, np.eye(2) if c else [[1.0, 1.0], [1.0, -1.0]])
    full = np.einsum("bx,by->bxy", signs, signs).reshape(len(signs), -1)
    levels = [full.reshape(1 << L, -1, full.shape[1]).sum(axis=1) for L in range(1, len(choices))]
    return np.concatenate([*levels, full]), signs.astype(complex)


def _possible(weights: np.ndarray) -> np.ndarray:
    """Rows on which every measurement had conditional probability >= IMPOSSIBLE_PROB.

    Row r splits into rows 2r and 2r + 1, so summing sibling weights level
    by level gives the branch weight of every earlier step. A one-row run is
    the root alone: its draws already refused any less likely outcome.
    """
    levels = [weights]
    while len(levels[-1]) > 1:
        levels.append(levels[-1][0::2] + levels[-1][1::2])
    ok = np.ones(1, dtype=bool)
    for child, parent in zip(levels[-2::-1], levels[:0:-1]):
        floor, kids = IMPOSSIBLE_PROB * parent, np.empty(len(child), dtype=bool)
        for b in (0, 1):  # the children of outcome b against their parents
            np.greater_equal(child[b::2], floor, out=kids[b::2])
            kids[b::2] &= ok
        ok = kids
    return ok


def _execute(
    f: PatternFragment,
    src: OutcomeSource | None,
    input_state: Statevector | None,
    members: list[int],
    spectators: int,
) -> tuple[BranchEnsemble, np.ndarray]:
    """Run the fragment's plan with outcomes from ``src``, or all of them if None.

    A run with a source keeps one row; without one, every row splits into
    both outcomes at every measurement. ``DEFAULT_QUBIT_CAP`` bounds log2(rows)
    plus the live qubits at the run's widest point, spectators included,
    before the run starts. An exhaustive run's tail runs in chunks of the
    rows entering it (see :func:`_finish`); its classical side runs over
    all of them first, so the chunks change no bit of the result.

    ``members`` are the frame codes of the input-error assignments that
    share the run (see :func:`_error_code`): the input is framed by the
    first, and the ensemble and the branch words are the first's, one word
    per row. Before the run starts, ``PpmError`` refuses members that differ
    on a guarded input error, one that a choice reads directly or through
    definitions, naming the first such vertex; a run with a source takes one
    member. Returned next to the ensemble are every member's output frame
    codes, ``(members, rows)``: see :func:`_corrections`.
    """
    if not _natural(spectators):
        raise DimensionError(f"spectators must be a non-negative integer, got {spectators!r}")
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
    norm2 = np.vdot(input_state.amplitudes, input_state.amplitudes).real
    if not abs(norm2 - 1.0) <= 1e-9:  # also refuses nan and inf
        raise DimensionError(f"input state must be finite with squared norm 1, got {norm2}")
    plan = _plan(f)
    k = len(plan.order)
    if src is not None and src.mode == "tape" and len(src.tape) < k:
        raise PpmError(f"tape of {len(src.tape)} bits is shorter than {k} measurements")
    for bit, v in plan.guards:
        if len({code & bit for code in members}) > 1:
            raise PpmError(
                f"input-error assignments that share a run choose differently at vertex {v}"
            )
    qubits = plan.peaks[src is None] + spectators  # at the run's widest point
    if qubits > DEFAULT_QUBIT_CAP:
        raise StateSizeError(f"{qubits} qubits would exceed cap {DEFAULT_QUBIT_CAP}")
    frame = frame_bits(members[0], n_in).reshape(-1).tolist()  # in error-variable order
    error_bits = dict(zip(f.error_variables(), frame))
    word = sum(bit for bit, b in zip(plan.errors, frame) if b)  # one row: one Python int
    if src is None:  # one word per row, int64 while they fit
        word = np.array([word], dtype=np.int64 if plan.width < 63 else object)

    # Axes (inputs in measurement order, spectators, rows): a new array, so
    # the in-place kernels below never touch the caller's state.
    S = 1 << spectators
    framed = apply_frames(members[0], input_state.amplitudes.reshape(1 << n_in, S), n_in)
    amps = framed.reshape((2,) * n_in + (S,)).transpose(*plan.perm, n_in).reshape(-1, S, 1)

    if src is not None:  # one row: every seeded draw up front
        seeded = src.mode == "seeded"
        draws = np.random.default_rng(src.seed).random(k).tolist() if seeded else src.tape
    mantissa, exponent = 1.0, 0  # one-row runs: the scale, as mantissa * 2**exponent
    outcomes, chosen = [], []  # one-row runs: outcomes so far, choices
    tail = []  # an exhaustive run's last measuring block and closing block, with their bases
    for at, block in enumerate(plan.blocks):
        for anf, bit in block.defs:
            word = word & ~bit | _evaluate(anf, word) * bit
        if src is None:  # row r splits into rows 2r (outcome 0) and 2r + 1
            # No choice reads an outcome of its block, so each is evaluated
            # over the rows entering the block.
            values = [_evaluate(anf, word) for anf, _ in block.steps]
            for _, bit in block.steps:
                kids = np.empty((len(word), 2), dtype=word.dtype)  # faster than a broadcast OR
                np.bitwise_and(word, ~bit, out=kids[:, 0])
                np.bitwise_or(kids[:, 0], bit, out=kids[:, 1])
                word = kids.reshape(-1)
            chosen += values
            bases = [_basis(value) for value in values]
            if at < len(plan.blocks) - 2:
                amps = _measure(amps, block, bases)
            else:
                tail.append((block, bases))
            continue
        # One row: ``kid`` holds the 2**g halves of the block's g measured
        # qubits as rows (g = 0 closes); their real Gram product gives every
        # outcome prefix's weight. No choice reads an outcome of the block.
        choices = tuple([_evaluate(anf, word) for anf, _ in block.steps])
        kid = np.multiply(amps.reshape(block.shape + (-1,)), block.diag)
        kid = kid.reshape(1 << len(choices), -1)
        v = kid.view(float)
        marginals, signs = _block_tables(choices)
        weight = marginals.dot(v.dot(v.T).reshape(-1)).tolist()
        p = 0  # the block's outcomes so far, first most significant
        for i, ((anf, bit), value) in enumerate(zip(block.steps, choices)):
            j = len(outcomes)
            q0, q1 = weight[(2 << i) - 2 + 2 * p], weight[(2 << i) - 1 + 2 * p]
            p0, p1 = q0 / (q0 + q1), q1 / (q0 + q1)
            if seeded:
                b = 0 if (draws[j] < p0 and p0 >= IMPOSSIBLE_PROB) or p1 < IMPOSSIBLE_PROB else 1
            else:
                b = draws[j]
                if (p0, p1)[b] < IMPOSSIBLE_PROB:
                    raise ImpossibleBranchError(
                        f"tape forces outcome {b} on vertex {plan.order[j]} (p={(p0, p1)[b]:.3e})"
                    )
            p = 2 * p + b
            # X takes a0 + a1 or a0 - a1, whose 1/sqrt(2) the diagonal holds
            # when the choice is empty and the scale takes otherwise.
            exponent -= bool(anf) and not value
            outcomes.append(b)
            word = word & ~bit | bit * b
            chosen.append(value)
        amps = signs[p].dot(kid)
        w = weight[(1 << len(choices)) - 2 + p]  # the squared norm of ``amps``
        if not _FLOOR <= w <= 1 / _FLOOR:  # rescale before it could under- or overflow
            amps = amps * (1.0 / math.sqrt(w))
            mantissa, shift = math.frexp(mantissa * w)
            exponent += shift

    # Rows by (outputs in fragment order, spectators), rows first, so each
    # weight is one contiguous pass over its row's floats.
    states = amps.reshape(1, -1) if src is not None else _finish(amps, tail)
    weights = np.einsum("ij,ij->i", states.view(float), states.view(float))
    frames = _corrections(plan, word, members)
    ens = BranchEnsemble(
        list(plan.order),
        list(plan.names),
        states,
        weights,
        _possible(weights),
        chosen,
        error_bits,
        frames[0],
        math.ldexp(mantissa, exponent),
        exponent + math.log2(mantissa),
        None if src is None else outcomes,
    )
    return ens, frames


def _error_code(f: PatternFragment, input_errors: dict[int, tuple[int, int]] | None) -> int:
    """The frame code of ``input_errors``, (z, x) bits keyed by input vertex; a missing one is 0."""
    errs = input_errors or {}
    stray = set(errs) - set(f.inputs)
    if stray:
        raise DimensionError(f"input errors name non-input vertices {sorted(stray)}")
    for v, zx in errs.items():
        bits = isinstance(zx, (tuple, list)) and len(zx) == 2
        if not (bits and all(isinstance(b, (int, np.integer)) and b in (0, 1) for b in zx)):
            raise DimensionError(
                f"input error on vertex {v} must be a (z, x) pair of 0/1 bits, got {zx!r}"
            )
    code = 0
    for v in f.inputs:
        z, x = errs.get(v, (0, 0))
        code = code << 2 | int(z) << 1 | int(x)
    return code


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
    members = [_error_code(f, input_errors)]
    return _execute(f, src, input_state, members, spectators)[0].traces(f)[0]


def enumerate_fragment(
    f: PatternFragment,
    input_state: Statevector | None = None,
    input_errors: dict[int, tuple[int, int]] | None = None,
    spectators: int = 0,
) -> BranchEnsemble:
    """Enumerate every outcome branch with shared-prefix vectorization."""
    return _execute(f, None, input_state, [_error_code(f, input_errors)], spectators)[0]
