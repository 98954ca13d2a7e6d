"""Measurement patterns, pattern fragments, scheduling and composition.

A measurement pattern is a resource multigraph whose vertices carry
measurement expressions ``b <- phi(...)``: measure in the X basis when the
choice function evaluates to 0 and in the Z basis when it evaluates to 1,
storing the result in the fresh variable ``b``.

A pattern fragment adds designated input and output vertex subsets (not
necessarily disjoint), per-input Pauli error variables ``(z, x)``, and
per-output correction functions ``(zeta, xi)``. A fragment implements a
gate G when feeding it ``X^x Z^z |psi>`` yields ``X^xi Z^zeta G |psi>``.

Wiring one fragment into another binds each wired input's ``(z, x)`` to the
upstream correction as a named definition (the fragment's ``frames``), the
signal bookkeeping of the measurement calculus's standard form (Danos,
Kashefi and Panangaden, arXiv:0704.1263). Nothing is substituted, so a
composite's functions stay the size of its pieces'; :func:`flatten`
substitutes the definitions when the closed form is wanted.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from .boolfn import BoolFn
from .errors import StructuralError, WellFoundednessError
from .pgraph import Edge, PGraph

# Schema 1 has no definitions and schema 2 adds ``frames``. A fragment is
# written in the first schema that holds it.
SCHEMA_VERSIONS = (1, 2)

# Choice-function semantics, used everywhere: value 0 -> X basis, 1 -> Z.
BASIS_BY_CHOICE = {0: "X", 1: "Z"}


@dataclass(frozen=True)
class Measurement:
    """Measurement expression: output variable plus basis-choice function."""

    var: str
    choice: BoolFn


@dataclass(frozen=True)
class Correction:
    """Output corrections: pending Z flip (zeta) and X flip (xi)."""

    zeta: BoolFn
    xi: BoolFn


@dataclass(frozen=True)
class MeasurementPattern:
    """A P-graph whose measured vertices carry measurement expressions."""

    graph: PGraph
    measurements: dict[int, Measurement] = field(default_factory=dict)

    def __post_init__(self):
        seen_vars: set[str] = set()
        for v, meas in self.measurements.items():
            if not 0 <= v < self.graph.vertex_count:
                raise StructuralError(f"measured vertex {v} out of range")
            if meas.var in seen_vars:
                raise StructuralError(f"output variable {meas.var!r} is not fresh")
            seen_vars.add(meas.var)

    def producer_of(self) -> dict[str, int]:
        return {m.var: v for v, m in self.measurements.items()}


def _dependencies(f: PatternFragment) -> dict[int, set[int]]:
    """Each node's producers of the non-error names it reads.

    A node is a measured vertex or a definition; definition ``i`` of
    ``f.frames`` is node ``vertex_count + i``. A choice may read outcomes
    other than its own, error variables and definitions; an unknown or self
    reference raises :class:`StructuralError`. What a definition reads was
    checked when the fragment was built.
    """
    n = f.pattern.graph.vertex_count
    node = f.pattern.producer_of()
    node.update((name, n + i) for i, name in enumerate(f.frames))
    ambient = set(f.error_variables())
    deps = {
        n + i: {node[name] for name in fn.variables if name not in ambient}
        for i, fn in enumerate(f.frames.values())
    }
    for v, meas in f.pattern.measurements.items():
        deps[v] = set()
        for name in meas.choice.variables:
            if name in ambient:
                continue
            if name not in node:
                raise StructuralError(
                    f"vertex {v} choice references unknown variable {name!r}"
                )
            if node[name] == v:
                raise StructuralError(f"vertex {v} choice references its own outcome")
            deps[v].add(node[name])
    return deps


def _ready_order(f: PatternFragment) -> tuple[list[int], dict[int, int]]:
    """Measured vertices lowest ready first, plus each vertex's feed-forward round.

    A vertex is ready once every outcome its choice function reads, directly
    or through definitions, has been produced; input-error variables are
    known from the start. A definition costs no round: it is resolved as soon
    as what it reads is. A cyclic dependency raises
    :class:`WellFoundednessError` carrying the vertices of one offending cycle.
    """
    n = f.pattern.graph.vertex_count
    deps = _dependencies(f)
    readers: dict[int, list[int]] = {u: [] for u in deps}
    for v, us in deps.items():
        for u in us:
            readers[u].append(v)
    waiting = {v: len(us) for v, us in deps.items()}
    # Definitions sort before vertices, so each is resolved as soon as what it
    # reads is, and takes the round of what it reads.
    ready = [(u < n, u) for u, count in waiting.items() if not count]
    heapq.heapify(ready)
    order: list[int] = []
    depth: dict[int, int] = {}
    while ready:
        measured, u = heapq.heappop(ready)
        depth[u] = measured + max((depth[w] for w in deps[u]), default=-1)
        if measured:
            order.append(u)
        for w in readers[u]:
            waiting[w] -= 1
            if not waiting[w]:
                heapq.heappush(ready, (w < n, w))
    if len(order) < len(f.pattern.measurements):
        # Every stuck node waits on another stuck one: walk until a repeat.
        # Definitions read only earlier ones, so the cycle holds a vertex.
        v = min(v for v, count in waiting.items() if count)
        seen: dict[int, int] = {}
        while v not in seen:
            seen[v] = len(seen)
            v = min(u for u in deps[v] if waiting[u])
        cycle = [u for u in list(seen)[seen[v] :] if u < n]
        raise WellFoundednessError(
            f"cyclic dependency between vertices {cycle}", cycle=cycle
        )
    return order, {v: depth[v] for v in order}


def dependency_schedule(f: PatternFragment) -> list[list[int]]:
    """Group a fragment's measured vertices into feed-forward rounds.

    Round 0 holds every vertex whose choice function is constant (or reads
    only input-error variables); round r+1 holds vertices depending only on
    earlier rounds. Cyclic dependencies raise :class:`WellFoundednessError`
    carrying one offending cycle.
    """
    _, depth = _ready_order(f)
    rounds: list[list[int]] = [[] for _ in range(max(depth.values(), default=-1) + 1)]
    for v, d in depth.items():
        rounds[d].append(v)
    return [sorted(r) for r in rounds]


@dataclass(frozen=True)
class PatternFragment:
    """A pattern with inputs, outputs, input errors and output corrections.

    ``frames`` binds fresh names to functions, in order: a definition reads
    outcomes, error variables and earlier definitions, and choices and
    corrections may read any definition. The executor keeps its compiled
    plan for the fragment on the instance.
    """

    pattern: MeasurementPattern
    inputs: tuple[int, ...] = ()
    outputs: tuple[int, ...] = ()
    input_errors: dict[int, tuple[str, str]] = field(default_factory=dict)
    corrections: dict[int, Correction] = field(default_factory=dict)
    frames: dict[str, BoolFn] = field(default_factory=dict)

    def __post_init__(self):
        n = self.pattern.graph.vertex_count
        for v in (*self.inputs, *self.outputs):
            if not 0 <= v < n:
                raise StructuralError(f"designated vertex {v} out of range")
        if len(set(self.inputs)) != len(self.inputs):
            raise StructuralError("duplicate input vertex")
        if len(set(self.outputs)) != len(self.outputs):
            raise StructuralError("duplicate output vertex")
        out_set = set(self.outputs)
        for v in range(n):
            if v in out_set:
                if v in self.pattern.measurements:
                    raise StructuralError(f"output vertex {v} must not be measured")
            elif v not in self.pattern.measurements:
                raise StructuralError(f"non-output vertex {v} lacks a measurement")
        if set(self.input_errors) != set(self.inputs):
            raise StructuralError("input_errors must cover exactly the inputs")
        if set(self.corrections) != out_set:
            raise StructuralError("corrections must cover exactly the outputs")
        names = list(self.pattern.producer_of())
        for zvar, xvar in self.input_errors.values():
            names.extend((zvar, xvar))
        if len(names) != len(set(names)):
            raise StructuralError("variable names must be globally fresh")
        allowed = set(names)
        for name, fn in self.frames.items():
            if name in allowed:
                raise StructuralError(f"definition {name!r} is not fresh")
            for var in fn.variables:
                if var not in allowed:
                    raise StructuralError(
                        f"definition {name!r} reads {var!r}, which is no outcome,"
                        " error variable or earlier definition"
                    )
            allowed.add(name)
        _dependencies(self)
        for v, corr in self.corrections.items():
            for fn in (corr.zeta, corr.xi):
                for name in fn.variables:
                    if name not in allowed:
                        raise StructuralError(
                            f"correction on vertex {v} references unknown {name!r}"
                        )

    def error_variables(self) -> tuple[str, ...]:
        out: list[str] = []
        for v in self.inputs:
            out.extend(self.input_errors[v])
        return tuple(out)

    def _all_variables(self) -> tuple[str, ...]:
        return tuple(self.pattern.producer_of()) + self.error_variables() + tuple(self.frames)

    def with_io_order(
        self, inputs: tuple[int, ...], outputs: tuple[int, ...]
    ) -> PatternFragment:
        """Reorder the declared wire order without touching anything else."""
        if set(inputs) != set(self.inputs) or set(outputs) != set(self.outputs):
            raise StructuralError("reorder must preserve the input/output sets")
        return PatternFragment(
            self.pattern,
            tuple(inputs),
            tuple(outputs),
            self.input_errors,
            self.corrections,
            self.frames,
        )


def compose(
    f1: PatternFragment, f2: PatternFragment, wiring: dict[int, int]
) -> PatternFragment:
    """Plug outputs of ``f1`` into inputs of ``f2``.

    ``wiring`` maps f1 output vertices to f2 input vertices (injectively).
    Wired vertices are identified, and each wired input's error variables
    become definitions bound to f1's correction functions, which f2's
    choices and corrections go on reading by name. Unwired inputs and
    outputs pass through to the composite.
    """
    g1, g2 = f1.pattern.graph, f2.pattern.graph
    if g1.base_exponent != g2.base_exponent:
        raise StructuralError("base exponents differ")
    out_set, in_set = set(f1.outputs), set(f2.inputs)
    for o, i in wiring.items():
        if o not in out_set:
            raise StructuralError(f"{o} is not an output of the first fragment")
        if i not in in_set:
            raise StructuralError(f"{i} is not an input of the second fragment")
    if len(set(wiring.values())) != len(wiring):
        raise StructuralError("wiring must be injective")

    used = set(f1._all_variables())
    prefix = ""
    if used & set(f2._all_variables()):
        k = 2
        while any((f"g{k}." + v) in used for v in f2._all_variables()):
            k += 1
        prefix = f"g{k}."

    edges = list(g1.edges)
    measurements = dict(f1.pattern.measurements)
    corrections = dict(f1.corrections)
    input_errors = dict(f1.input_errors)
    frames = dict(f1.frames)
    relabel, n = _attach(
        f2, wiring, prefix, g1.vertex_count,
        edges, measurements, corrections, input_errors, frames,
    )
    wired = set(wiring.values())
    inputs = f1.inputs + tuple(relabel[v] for v in f2.inputs if v not in wired)
    outputs = tuple(o for o in f1.outputs if o not in wiring) + tuple(
        relabel[v] for v in f2.outputs
    )
    # A wired vertex that was also an f1 input stays an input; if it was
    # measured by f2 it is no longer an output, which the relabel handles.
    return PatternFragment(
        MeasurementPattern(PGraph(n, g1.base_exponent, tuple(edges)), measurements),
        inputs,
        outputs,
        input_errors,
        corrections,
        frames,
    )


compose_with_map = compose  # the name bench/tracer.py wraps


def _attach(
    piece: PatternFragment,
    wiring: dict[int, int],
    prefix: str,
    n: int,
    edges: list[Edge],
    measurements: dict[int, Measurement],
    corrections: dict[int, Correction],
    input_errors: dict[int, tuple[str, str]],
    frames: dict[str, BoolFn],
) -> tuple[dict[int, int], int]:
    """Add ``piece`` in place to an ``n``-vertex pattern held in shared collections.

    This is the one wiring step. Every piece variable is renamed to
    ``prefix + name``. ``wiring`` maps pattern outputs to piece inputs: a
    wired input takes the output's vertex, and its renamed ``(z, x)`` join
    ``frames`` as definitions bound to the output's correction (which leaves
    ``corrections``), ahead of the piece's own renamed definitions. Other
    piece vertices are numbered from ``n``, and each unwired input's renamed
    error pair goes into ``input_errors``. Returns the piece-to-pattern
    vertex map and the new vertex count.
    """
    wired_rev = {i: o for o, i in wiring.items()}
    relabel: dict[int, int] = {}
    for v in range(piece.pattern.graph.vertex_count):
        if v in wired_rev:
            relabel[v] = wired_rev[v]
        else:
            relabel[v] = n
            n += 1
    edges.extend(piece.pattern.graph.relabel(relabel, n).edges)
    names = {name: prefix + name for name in piece._all_variables()}
    for v, (zvar, xvar) in piece.input_errors.items():
        zvar, xvar = prefix + zvar, prefix + xvar
        if v in wired_rev:
            corr = corrections.pop(wired_rev[v])
            frames[zvar], frames[xvar] = corr.zeta, corr.xi
        else:
            input_errors[relabel[v]] = (zvar, xvar)
    for name, fn in piece.frames.items():
        frames[prefix + name] = fn.rename(names)
    for v, m in piece.pattern.measurements.items():
        measurements[relabel[v]] = Measurement(prefix + m.var, m.choice.rename(names))
    for v, c in piece.corrections.items():
        corrections[relabel[v]] = Correction(c.zeta.rename(names), c.xi.rename(names))
    return relabel, n


def flatten(f: PatternFragment) -> PatternFragment:
    """``f`` with its definitions substituted in order: a fragment without frames.

    The substituted functions can grow quadratically with the depth of the
    wiring; this is the closed form to compare against, never a step of a run.
    """
    flat: dict[str, BoolFn] = {}
    for name, fn in f.frames.items():
        flat[name] = fn.substitute(flat)
    measurements = {
        v: Measurement(m.var, m.choice.substitute(flat))
        for v, m in f.pattern.measurements.items()
    }
    corrections = {
        v: Correction(c.zeta.substitute(flat), c.xi.substitute(flat))
        for v, c in f.corrections.items()
    }
    return PatternFragment(
        MeasurementPattern(f.pattern.graph, measurements),
        f.inputs,
        f.outputs,
        f.input_errors,
        corrections,
    )


# -- JSON schema ------------------------------------------------------


def fragment_to_dict(f: PatternFragment) -> dict:
    g = f.pattern.graph
    data = {
        "schema_version": SCHEMA_VERSIONS[0],
        "vertices": g.vertex_count,
        "base_exponent": g.base_exponent,
        "edges": [{"u": u, "v": v, "mult": k} for u, v, k in g.edges],
        "measurements": {
            str(v): {"var": m.var, "anf": m.choice.to_anf_lists()}
            for v, m in sorted(f.pattern.measurements.items())
        },
        "inputs": list(f.inputs),
        "outputs": list(f.outputs),
        "input_errors": {str(v): list(f.input_errors[v]) for v in sorted(f.input_errors)},
        "corrections": {
            str(v): {
                "zeta": f.corrections[v].zeta.to_anf_lists(),
                "xi": f.corrections[v].xi.to_anf_lists(),
            }
            for v in sorted(f.corrections)
        },
    }
    if f.frames:
        data["schema_version"] = SCHEMA_VERSIONS[1]
        data["frames"] = [[name, fn.to_anf_lists()] for name, fn in f.frames.items()]
    return data


_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer", str: "a string"}


def _json(value, kind: type, what: str):
    """``value`` if it has JSON type ``kind`` (a bool is no integer), else raise."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        got = type(value).__name__
        raise StructuralError(f"{what} must be {_JSON_KINDS[kind]}, got {got}")
    return value


def _key(obj, key: str, kind: type, default=None):
    """``obj[key]`` checked to be a ``kind``; only a defaulted key may be missing."""
    if key not in _json(obj, dict, f"the object holding {key!r}"):
        if default is None:
            raise StructuralError(f"fragment JSON lacks key {key!r}")
        return default
    return _json(obj[key], kind, f"key {key!r}")


def _vertex(key: str) -> int:
    """A vertex key must be an integer's own decimal form, so no two keys collide."""
    try:
        if str(int(key)) == key:
            return int(key)
    except ValueError:
        pass
    raise StructuralError(f"vertex key {key!r} is not an integer")


def _anf(monomials: list) -> BoolFn:
    return BoolFn.from_anf_lists(
        [_json(name, str, "ANF variable") for name in _json(m, list, "ANF monomial")]
        for m in monomials
    )


def fragment_from_dict(data: dict) -> PatternFragment:
    """Build a fragment from its JSON form; malformed input raises StructuralError."""
    version = _json(data, dict, "fragment JSON").get("schema_version")
    if type(version) is not int or version not in SCHEMA_VERSIONS:  # true and 1.0 are no version
        raise StructuralError(f"unsupported schema_version {version!r}")
    edges = tuple(
        tuple(_key(e, key, int) for key in ("u", "v", "mult"))
        for e in _key(data, "edges", list)
    )
    graph = PGraph(_key(data, "vertices", int), _key(data, "base_exponent", int), edges)
    measurements = {
        _vertex(v): Measurement(_key(m, "var", str), _anf(_key(m, "anf", list)))
        for v, m in _key(data, "measurements", dict, {}).items()
    }
    corrections = {
        _vertex(v): Correction(_anf(_key(c, "zeta", list)), _anf(_key(c, "xi", list)))
        for v, c in _key(data, "corrections", dict, {}).items()
    }
    input_errors = {}
    for v, names in _key(data, "input_errors", dict, {}).items():
        if len(_json(names, list, "input_errors entry")) != 2:
            raise StructuralError(f"input_errors of vertex {v} must name (z, x)")
        input_errors[_vertex(v)] = tuple(_json(n, str, "error variable") for n in names)
    frames: dict[str, BoolFn] = {}
    for entry in _key(data, "frames", list) if version == 2 else ():
        if len(_json(entry, list, "frames entry")) != 2:
            raise StructuralError("a frames entry must be a [name, anf] pair")
        name = _json(entry[0], str, "definition name")
        if name in frames:
            raise StructuralError(f"definition {name!r} is not fresh")
        frames[name] = _anf(_json(entry[1], list, f"definition {name!r}"))
    return PatternFragment(
        MeasurementPattern(graph, measurements),
        tuple(_json(v, int, "input vertex") for v in _key(data, "inputs", list, [])),
        tuple(_json(v, int, "output vertex") for v in _key(data, "outputs", list, [])),
        input_errors,
        corrections,
        frames,
    )


def fragment_to_json(f: PatternFragment) -> str:
    """Schema 1 is indented, as it always was; schema 2 is written compact."""
    data = fragment_to_dict(f)
    if "frames" in data:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
    return json.dumps(data, indent=2, sort_keys=True)


def fragment_from_json(text: str) -> PatternFragment:
    return fragment_from_dict(json.loads(text))
