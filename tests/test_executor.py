"""Adaptive execution: sources, traces, branch enumeration, depth."""

import gc
import hashlib
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ppmbqc import executor
from ppmbqc.boolfn import BoolFn
from ppmbqc.compiler import compile_circuit, parse_circuit
from ppmbqc.errors import (
    DimensionError,
    ImpossibleBranchError,
    PpmError,
    StateSizeError,
    WellFoundednessError,
)
from ppmbqc.executor import (
    OutcomeSource,
    enumerate_fragment,
    feed_forward_depth,
    measurement_order,
    run_fragment,
)
from ppmbqc.fragments import BrickSettings, brick, cz_fragment, e_fragment, xhalf_fragment
from ppmbqc.pattern import (
    BASIS_BY_CHOICE,
    Correction,
    Measurement,
    MeasurementPattern,
    PatternFragment,
    compose,
    flatten,
)
from ppmbqc.pgraph import PGraph
from ppmbqc.statevec import (
    X,
    Z,
    Statevector,
    apply_edges,
    apply_matrix,
    embed_state,
    fidelity_up_to_phase,
    from_amplitudes,
    measure,
    permute,
    plus_state,
    zero_state,
    zrot,
)
from ppmbqc.unitaries import pauli_product, unitary_from_label

RNG = np.random.default_rng(0xFACE)


def random_state(n):
    return from_amplitudes(RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n))


def closed(p):
    """An input-free fragment: unmeasured vertices become outputs with zero corrections."""
    outputs = tuple(v for v in range(p.graph.vertex_count) if v not in p.measurements)
    zero = Correction(BoolFn.zero(), BoolFn.zero())
    return PatternFragment(p, (), outputs, {}, {v: zero for v in outputs})


def test_single_vertex_constant_x_measurement():
    p = MeasurementPattern(PGraph(1), {0: Measurement("a", BoolFn.zero())})
    trace = run_fragment(closed(p), plus_state(0), src=OutcomeSource.seeded(1))
    assert trace.outcomes == {"a": 0}
    assert trace.probability == pytest.approx(1.0)
    assert trace.bases == {0: "X"}
    with pytest.raises(ImpossibleBranchError):
        run_fragment(closed(p), plus_state(0), src=OutcomeSource.fixed([1]))


def test_single_edge_hair_z_measured_injects_phase():
    # Two vertices, single edge, hair Z-measured: survivor is Z(+-pi/4)|+>.
    g = PGraph(2, base_exponent=2).add_edges(0, 1, 1)
    p = MeasurementPattern(g, {1: Measurement("a", BoolFn.one())})
    for outcome in (0, 1):
        trace = run_fragment(closed(p), plus_state(0), src=OutcomeSource.fixed([outcome]))
        sign = -1.0 if outcome else 1.0
        expected = Statevector(1, zrot(sign * math.pi / 4) @ plus_state(1).amplitudes)
        assert trace.probability == pytest.approx(0.5)
        assert fidelity_up_to_phase(trace.state, expected) == pytest.approx(1.0)


def test_exhaustive_probabilities_sum_to_one():
    g = PGraph(4, base_exponent=2).add_edges(0, 1, 1).add_edges(1, 2, 2).add_edges(2, 3, 1)
    p = MeasurementPattern(
        g,
        {
            0: Measurement("a", BoolFn.zero()),
            1: Measurement("b", BoolFn.one()),
            2: Measurement("c", BoolFn.var("a")),
        },
    )
    ens = enumerate_fragment(closed(p))
    assert ens.probabilities.sum() == pytest.approx(1.0, abs=1e-9)


def test_xhalf_run_example():
    f = xhalf_fragment()
    trace = run_fragment(f, zero_state(1), {0: (0, 0)}, OutcomeSource.fixed([0]))
    assert trace.frame[f.outputs[0]] == (0, 1)
    expected = pauli_product([(0, 1)]) @ unitary_from_label("X(pi/2)") @ zero_state(1).amplitudes
    assert fidelity_up_to_phase(trace.state, Statevector(1, expected)) == pytest.approx(1.0)


def test_xhalf_forced_outcome_one_frame():
    f = xhalf_fragment()
    trace = run_fragment(f, zero_state(1), {0: (0, 0)}, OutcomeSource.fixed([1]))
    assert trace.frame[f.outputs[0]] == (1, 0)


def test_frame_contract_on_every_branch_random_input():
    f = e_fragment("T")
    psi = random_state(1)
    target = unitary_from_label("T") @ psi.amplitudes
    for zb, xb in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ens = enumerate_fragment(f, psi, {0: (zb, xb)})
        traces = ens.traces(f)
        for tr in traces:
            if tr.probability == 0.0:
                continue
            z, x = tr.frame[f.outputs[0]]
            expected = pauli_product([(z, x)]) @ target
            fid = fidelity_up_to_phase(tr.state, Statevector(1, expected))
            assert fid == pytest.approx(1.0, abs=1e-9)


def test_e_t_all_zero_branch_pinned():
    # The all-zero branch of the T gadget leaves the frame (1, 1): the
    # correction cascade fires and a Pauli X and Z remain pending.
    f = e_fragment("T")
    psi = random_state(1)
    trace = run_fragment(f, psi, src=OutcomeSource.fixed([0] * 5))
    assert trace.frame[f.outputs[0]] == (1, 1)
    expected = pauli_product([(1, 1)]) @ unitary_from_label("T") @ psi.amplitudes
    assert fidelity_up_to_phase(trace.state, Statevector(1, expected)) == pytest.approx(1.0)


def test_seeded_runs_are_bit_reproducible():
    f = e_fragment("T")
    psi = random_state(1)
    t1 = run_fragment(f, psi, {0: (1, 0)}, OutcomeSource.seeded(42))
    t2 = run_fragment(f, psi, {0: (1, 0)}, OutcomeSource.seeded(42))
    assert t1.to_json(include_amplitudes=True) == t2.to_json(include_amplitudes=True)
    t3 = run_fragment(f, psi, {0: (1, 0)}, OutcomeSource.seeded(43))
    assert t3.outcomes != t1.outcomes or np.allclose(
        t3.state.amplitudes, t1.state.amplitudes
    )


# SHA-256 of the outcome tape (outcomes in execution order, as "0"/"1") of
# seeded shots on PINNED_CIRCUIT, keyed by seed. A change to the engine must
# leave every seeded outcome where it was.
PINNED_BLOCK = ["H 0", "CZ 0 1", "T 1", "S 0", "CNOT 0 1", "H 1", "Tdg 0", "CNOT 1 0"]
PINNED_CIRCUIT = "qubits 2\n" + "\n".join(PINNED_BLOCK * 5) + "\n"
PINNED_TAPES = {
    1: "18d5d3486e8af06961a78c6aaf5fa0ef776cceb273e26f5a49be89e89748e401",
    2: "fcd328d1224feb6cf051d24ca9c54df4c6f66386f321bc895c3fc813eb810b22",
    3: "51bebecc1641f87a627cd22cec03a2a43a05201b2abfcf4e7aedb66e270d21a6",
}


def test_seeded_outcome_tapes_are_pinned():
    f = compile_circuit(parse_circuit(PINNED_CIRCUIT))
    assert len(PINNED_BLOCK * 5) >= 40
    psi = from_amplitudes([0.6, 0.3j, -0.5, 0.2 + 0.4j])
    errs = {f.inputs[0]: (1, 0), f.inputs[1]: (0, 1)}
    var = {v: m.var for v, m in f.pattern.measurements.items()}
    for seed, digest in PINNED_TAPES.items():
        trace = run_fragment(f, psi, errs, OutcomeSource.seeded(seed))
        tape = "".join(str(trace.outcomes[var[v]]) for v in trace.bases)
        assert len(tape) == len(f.pattern.measurements)
        assert hashlib.sha256(tape.encode()).hexdigest() == digest


def test_plan_is_built_once_per_fragment(monkeypatch):
    calls = []
    order = executor.measurement_order
    monkeypatch.setattr(executor, "measurement_order", lambda f: calls.append(f) or order(f))
    f = brick(BrickSettings("T", "HTH", 1))
    psi = random_state(2)
    first = run_fragment(f, psi, {}, OutcomeSource.seeded(3))
    run_fragment(f, psi, {}, OutcomeSource.seeded(4))
    enumerate_fragment(f, psi)
    assert len(calls) == 1

    g = f.with_io_order(f.inputs, f.outputs[::-1])
    swapped = run_fragment(g, psi, {}, OutcomeSource.seeded(3))
    assert len(calls) == 2
    assert list(swapped.frame) == list(g.outputs)
    assert swapped.outcomes == first.outcomes and swapped.frame == first.frame
    want = permute(first.state, [1, 0]).amplitudes
    assert np.allclose(swapped.state.amplitudes, want, rtol=0, atol=1e-12)


def test_plan_is_freed_with_its_fragment():
    f = e_fragment("T")
    run_fragment(f, random_state(1), src=OutcomeSource.seeded(1))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


def test_tape_and_exhaustive_agree_per_branch():
    f = e_fragment("S")
    psi = random_state(1)
    ens = enumerate_fragment(f, psi, {0: (0, 1)})
    order = ens.order
    k = len(order)
    traces = ens.traces(f)
    for row in range(1 << k):
        bits = [(row >> (k - 1 - j)) & 1 for j in range(k)]
        tr = run_fragment(f, psi, {0: (0, 1)}, OutcomeSource.fixed(bits))
        assert tr.probability == pytest.approx(traces[row].probability, abs=1e-12)
        assert fidelity_up_to_phase(tr.state, traces[row].state) == pytest.approx(1.0)
        assert tr.outcomes == traces[row].outcomes


def test_unlikely_branch_of_possible_measurements_keeps_its_state():
    # Each hair's outcome 1 has conditional probability about 0.04, so the
    # all-ones branch is possible although its whole weight is far below
    # the per-measurement threshold.
    g = PGraph(11, 3, tuple((0, v, 1) for v in range(1, 11)))
    p = MeasurementPattern(g, {v: Measurement(f"a{v}", BoolFn.zero()) for v in range(1, 11)})
    f = closed(p)
    ens = enumerate_fragment(f)
    tr = ens.traces(f)[-1]
    replay = run_fragment(f, plus_state(0), src=OutcomeSource.fixed([1] * 10))
    assert tr.outcomes == replay.outcomes
    assert replay.probability == pytest.approx(6.4e-15, rel=0.01, abs=0)
    assert tr.probability == pytest.approx(replay.probability, rel=1e-9, abs=0)
    assert tr.state is not None
    assert fidelity_up_to_phase(tr.state, replay.state) >= 1 - 1e-9
    assert ens.possible.all()


def test_determinism_after_frame_correction():
    # Inverse-frame-corrected branch outputs agree pairwise on every
    # library fragment (Choi input exercises the full channel).
    from ppmbqc.verifier import choi_input

    for name in ("xhalf", "e_t", "e_h", "cz_on", "hier_m3"):
        from ppmbqc.fragments import builtin_fragment

        f, _ = builtin_fragment(name)
        n = len(f.inputs)
        ens = enumerate_fragment(f, choi_input(n), spectators=n)
        traces = [t for t in ens.traces(f) if t.probability > 0]
        corrected = []
        for tr in traces:
            amps = tr.state.amplitudes
            frame = [tr.frame[o] for o in f.outputs]
            inv = pauli_product(frame).conj().T
            full = np.kron(inv, np.eye(1 << n))
            corrected.append(full @ amps)
        base = corrected[0]
        for vec in corrected[1:]:
            fid = abs(np.vdot(base, vec)) ** 2
            assert fid == pytest.approx(1.0, abs=1e-9)


def test_feed_forward_depth_examples():
    g = PGraph(3).add_edges(0, 1, 2)
    constant = MeasurementPattern(
        g, {v: Measurement(f"m{v}", BoolFn.zero()) for v in range(2)}
    )
    assert feed_forward_depth(closed(constant)) == 1

    f = e_fragment("T")
    chain = f
    for k in (2, 3):
        nxt = e_fragment("T")
        chain = compose(chain, nxt, {chain.outputs[0]: nxt.inputs[0]})
        assert feed_forward_depth(chain) <= k + 1

    cyc = MeasurementPattern(
        PGraph(2).add_edges(0, 1, 1),
        {0: Measurement("u", BoolFn.var("w")), 1: Measurement("w", BoolFn.var("u"))},
    )
    with pytest.raises(WellFoundednessError):
        feed_forward_depth(closed(cyc))


def test_measurement_order_respects_dependencies():
    f = e_fragment("T")
    order = measurement_order(f)
    names = [f.pattern.measurements[v].var for v in order]
    assert names.index("e") == len(names) - 1  # adaptive hair must wait
    assert names[:-1] == sorted(names[:-1], key=lambda s: order[names.index(s)])


def test_trace_json_roundtrip_fields():
    f = xhalf_fragment()
    tr = run_fragment(f, zero_state(1), {0: (1, 1)}, OutcomeSource.fixed([0]))
    d = tr.to_dict(include_amplitudes=True)
    assert set(d) == {"outcomes", "bases", "probability", "frame", "error_bits", "amplitudes"}
    assert d["error_bits"] == {"x": 1, "z": 1}


def test_trace_internal_consistency():
    # Recorded bases must equal the choice functions evaluated on the
    # recorded outcomes and error bits, and the branch probability must
    # match the product of its measurement branch weights.
    f = e_fragment("T")
    psi = random_state(1)
    for errs in ((0, 0), (1, 1)):
        ens = enumerate_fragment(f, psi, {0: errs})
        for tr in ens.traces(f):
            if tr.probability == 0.0:
                continue
            env = dict(tr.outcomes)
            env.update(tr.error_bits)
            for v, basis in tr.bases.items():
                choice = f.pattern.measurements[v].choice.evaluate(env)
                assert basis == ("Z" if choice else "X")
            replay = run_fragment(
                f,
                psi,
                {0: errs},
                OutcomeSource.fixed(
                    [tr.outcomes[f.pattern.measurements[v].var] for v in ens.order]
                ),
            )
            assert replay.probability == pytest.approx(tr.probability, abs=1e-12)


@pytest.mark.parametrize("tape", [[0, 2], [1, -1], ["1"], [0.5]])
def test_fixed_tape_rejects_entries_other_than_bits(tape):
    with pytest.raises(ValueError):
        OutcomeSource.fixed(tape)


def test_cap_bounds_branch_bits_plus_live_qubits_in_every_mode(monkeypatch):
    # Exhaustive runs end with log2(rows) + live = vertices + spectators;
    # a shot keeps one row and only its narrow window of live qubits.
    from ppmbqc.verifier import choi_input

    f = e_fragment("T")
    n = f.pattern.graph.vertex_count
    monkeypatch.setattr(executor, "DEFAULT_QUBIT_CAP", n)
    with pytest.raises(StateSizeError):
        enumerate_fragment(f, choi_input(1), spectators=1)
    monkeypatch.setattr(executor, "DEFAULT_QUBIT_CAP", n + 1)
    ens = enumerate_fragment(f, choi_input(1), spectators=1)
    assert ens.states.shape == (1 << (n - 1), 4)
    monkeypatch.setattr(executor, "DEFAULT_QUBIT_CAP", 2)
    with pytest.raises(StateSizeError):
        run_fragment(f, choi_input(1), src=OutcomeSource.seeded(3), spectators=1)
    monkeypatch.setattr(executor, "DEFAULT_QUBIT_CAP", n + 1)
    run_fragment(f, choi_input(1), src=OutcomeSource.seeded(3), spectators=1)


@st.composite
def adaptive_fragments(draw, definitions=False):
    """Small random fragments whose choices read earlier outcomes and errors.

    With ``definitions``, up to two definitions, each over the names before
    it, precede every measurement, and later functions may read them.
    """
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 3))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    mult = st.integers(0, (2 << m) - 1)
    graph = PGraph(n, m, tuple((u, w, draw(mult)) for u, w in pairs))
    perm = draw(st.permutations(range(n)))
    n_out = draw(st.integers(1, min(2, n - 1)))
    outputs, measured = tuple(perm[:n_out]), perm[n_out:]
    inputs = tuple(draw(st.lists(st.sampled_from(range(n)), unique=True, max_size=2)))
    errors = {v: (f"z{v}", f"x{v}") for v in inputs}
    names = [name for pair in errors.values() for name in pair]

    def anf(pool):
        if not pool:
            return BoolFn.const(draw(st.integers(0, 1)))
        monomial = st.lists(st.sampled_from(pool), max_size=2)
        return BoolFn.parse(draw(st.lists(monomial, max_size=3)))

    meas, frames = {}, {}
    for v in measured:  # a choice reads only vertices measured before it
        for _ in range(draw(st.integers(0, 2)) if definitions else 0):
            frames[f"d{len(frames)}"] = anf(names)
            names = names + [f"d{len(frames) - 1}"]
        meas[v] = Measurement(f"m{v}", anf(names))
        names = names + [f"m{v}"]
    corrections = {o: Correction(anf(names), anf(names)) for o in outputs}
    pattern = MeasurementPattern(graph, meas)
    f = PatternFragment(pattern, inputs, outputs, errors, corrections, frames)
    return f, {v: (draw(st.integers(0, 1)), draw(st.integers(0, 1))) for v in inputs}


@settings(max_examples=60, deadline=None)
@given(adaptive_fragments(), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_seeded_tape_and_exhaustive_runs_agree(case, spectators, seed):
    f, errs = case
    rng = np.random.default_rng(seed)
    width = len(f.inputs) + spectators
    amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    psi = Statevector(width, amps / np.linalg.norm(amps))
    ens = enumerate_fragment(f, psi, errs, spectators=spectators)
    rows = ens.traces(f)
    assert ens.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
    for shot_seed in range(3):
        src = OutcomeSource.seeded(seed + shot_seed)
        shot = run_fragment(f, psi, errs, src, spectators)
        assert list(shot.bases) == ens.order
        tape = [shot.outcomes[f.pattern.measurements[v].var] for v in shot.bases]
        replay = run_fragment(f, psi, errs, OutcomeSource.fixed(tape), spectators)
        row = int("".join(map(str, tape)) or "0", 2)
        for other in (replay, rows[row]):
            assert other.outcomes == shot.outcomes
            assert other.probability == pytest.approx(shot.probability, abs=1e-12)
            assert fidelity_up_to_phase(other.state, shot.state) >= 1 - 1e-9
            assert other.bases == shot.bases
            assert other.frame == shot.frame
    k = len(ens.order)
    for row, possible in enumerate(ens.possible.tolist()):
        tape = [(row >> (k - 1 - j)) & 1 for j in range(k)]
        try:
            run_fragment(f, psi, errs, OutcomeSource.fixed(tape), spectators)
        except ImpossibleBranchError:
            assert not possible
        else:
            assert possible


@settings(max_examples=60, deadline=None)
@given(adaptive_fragments(definitions=True), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_definitions_run_as_their_substitution(case, spectators, seed):
    f, errs = case
    flat = flatten(f)
    assert not flat.frames
    # A choice may read a definition whose substitution cancels an outcome;
    # then the orders may differ and the branch rows are not comparable.
    assume(measurement_order(f) == measurement_order(flat))
    rng = np.random.default_rng(seed)
    width = len(f.inputs) + spectators
    amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    psi = Statevector(width, amps / np.linalg.norm(amps))
    got, want = (enumerate_fragment(g, psi, errs, spectators=spectators) for g in (f, flat))
    for key in ("outcomes", "choices", "frames", "possible"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
    assert np.allclose(got.states, want.states, rtol=0, atol=1e-12)
    shot, ref = (run_fragment(g, psi, errs, OutcomeSource.seeded(seed), spectators) for g in (f, flat))
    assert (shot.outcomes, shot.bases, shot.frame) == (ref.outcomes, ref.bases, ref.frame)
    assert shot.probability == pytest.approx(ref.probability, abs=1e-12)
    assert np.allclose(shot.state.amplitudes, ref.state.amplitudes, rtol=0, atol=1e-12)


def test_definitions_past_the_int64_word_are_enumerated():
    # 40 bare wires put 80 definitions between two T gadgets, so the branch
    # words of an exhaustive run outgrow 63 bits.
    wire = PatternFragment(
        MeasurementPattern(PGraph(1), {}),
        (0,),
        (0,),
        {0: ("z", "x")},
        {0: Correction(BoolFn.var("z"), BoolFn.var("x"))},
    )
    f = e_fragment("T")
    for _ in range(40):
        f = compose(f, wire, {f.outputs[0]: 0})
    f = compose(f, e_fragment("T"), {f.outputs[0]: 0})
    assert len(f.frames) + 2 + len(f.pattern.measurements) > 63
    psi = random_state(1)
    for errs in ((0, 0), (1, 0), (1, 1)):
        got, want = (enumerate_fragment(g, psi, {f.inputs[0]: errs}) for g in (f, flatten(f)))
        for key in ("outcomes", "choices", "frames", "possible"):
            assert np.array_equal(getattr(got, key), getattr(want, key)), key
        assert np.allclose(got.states, want.states, rtol=0, atol=1e-12)


def test_only_fragments_with_definitions_plan_them():
    assert executor._plan(brick(BrickSettings("T", "HTH", 1))).frames == {}
    f = compose(xhalf_fragment(), xhalf_fragment(), {1: 0})
    levels = executor._plan(f).frames  # both are first read by the corrections
    assert {level: [bit for bit, _ in group] for level, group in levels.items()} == {2: [2, 1]}


def dense_branches(f, psi, errs, spectators):
    """Every branch of ``f``, rebuilt on one dense register from the public kernels.

    Vertex v is qubit v and spectator i is qubit n + i. Returns one
    ``(state, weight, possible)`` per branch row, first measurement most
    significant; the state is unnormalized, with squared norm ``weight``,
    and None below an impossible measurement.
    """
    n = f.pattern.graph.vertex_count
    spect = list(range(n, n + spectators))
    s = embed_state(psi, n + spectators, [*f.inputs, *spect])
    env = {}
    for v in f.inputs:  # the frame X^x Z^z on each input wire
        (zname, xname), (z, x) = f.input_errors[v], errs.get(v, (0, 0))
        env[zname], env[xname] = z, x
        s = apply_matrix(s, v, Z) if z else s
        s = apply_matrix(s, v, X) if x else s
    s = apply_edges(s, f.pattern.graph)
    order = measurement_order(f)
    rows = []

    def walk(s, alive, env, weight, j):
        if j == len(order):
            out = permute(s, [alive.index(w) for w in (*f.outputs, *spect)])
            rows.append((out.amplitudes * np.sqrt(weight), weight, True))
            return
        v = order[j]
        m = f.pattern.measurements[v]
        basis = BASIS_BY_CHOICE[m.choice.evaluate(env)]
        for b in (0, 1):
            p, post = measure(s, alive.index(v), basis, b)
            if post is None:
                rows.extend([(None, 0.0, False)] * (1 << (len(order) - 1 - j)))
            else:
                rest = [w for w in alive if w != v]
                walk(post, rest, {**env, m.var: b}, weight * p, j + 1)

    walk(s, list(range(n + spectators)), env, 1.0, 0)
    return rows


@settings(max_examples=60, deadline=None)
@given(adaptive_fragments(), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_enumeration_agrees_with_a_dense_oracle(case, spectators, seed):
    f, errs = case
    rng = np.random.default_rng(seed)
    width = len(f.inputs) + spectators
    amps = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    psi = Statevector(width, amps / np.linalg.norm(amps))
    ens = enumerate_fragment(f, psi, errs, spectators=spectators)
    rows = dense_branches(f, psi, errs, spectators)
    assert ens.possible.tolist() == [ok for *_, ok in rows]
    assert np.allclose(ens.weights, [w for _, w, _ in rows], rtol=0, atol=1e-12)
    for r, (state, _, ok) in enumerate(rows):
        if ok:
            assert np.allclose(ens.states[r], state, rtol=0, atol=1e-10)


def test_outcome_bits_are_the_branch_index_and_choices_read_them():
    f = brick(BrickSettings("T", "HTH", 1))
    errs = {f.inputs[0]: (1, 0), f.inputs[1]: (1, 1)}
    ens = enumerate_fragment(f, random_state(2), errs)
    k, rows = ens.outcomes.shape
    assert rows == 1 << k and ens.choices.shape == (k, rows)
    r = np.arange(rows)
    for j in range(k):
        assert np.array_equal(ens.outcomes[j], (r >> (k - 1 - j)) & 1)
    env = ens.full_env_rows()
    for j, v in enumerate(ens.order):
        want = f.pattern.measurements[v].choice.evaluate_rows(env)
        assert np.array_equal(ens.choices[j], want)


def test_input_errors_must_name_input_vertices():
    f = xhalf_fragment()
    assert f.inputs == (0,)
    with pytest.raises(DimensionError):
        run_fragment(f, zero_state(1), {1: (1, 0)}, OutcomeSource.fixed([0]))
    with pytest.raises(DimensionError):
        enumerate_fragment(f, zero_state(1), {1: (0, 1)})


def test_runs_leave_the_callers_input_state_untouched():
    from ppmbqc.verifier import choi_input

    # The inputs share an edge, so the first kernel writes to the register
    # built from the input state before any fresh qubit is allocated.
    graph = PGraph(2, 2, ((0, 1, 1),))
    f = PatternFragment(
        MeasurementPattern(graph, {0: Measurement("a", BoolFn.parse([["z0"]]))}),
        (0, 1),
        (1,),
        {0: ("z0", "x0"), 1: ("z1", "x1")},
        {1: Correction(BoolFn.parse([["a"]]), BoolFn.parse([["x1"]]))},
    )
    for frag in (f, cz_fragment(1)):
        psi = choi_input(2)
        before = psi.amplitudes.copy()
        for errs in ({}, {frag.inputs[0]: (1, 1), frag.inputs[1]: (0, 1)}):
            run_fragment(frag, psi, errs, OutcomeSource.seeded(5), spectators=2)
            run_fragment(frag, psi, errs, OutcomeSource.fixed([0, 1]), spectators=2)
            enumerate_fragment(frag, psi, errs, spectators=2)
            assert np.array_equal(psi.amplitudes, before)


@pytest.mark.parametrize(
    "call, error, message, cap",
    [
        (lambda: run_fragment(xhalf_fragment(), zero_state(2)), DimensionError,
         "input state must have 1 qubits, got 2", None),
        (lambda: run_fragment(e_fragment("T"), zero_state(1), src=OutcomeSource.fixed([0])),
         PpmError, "tape of 1 bits is shorter than 5 measurements", None),
        (lambda: OutcomeSource("other"), ValueError, "unknown outcome mode 'other'", None),
        (lambda: enumerate_fragment(xhalf_fragment(), zero_state(2), spectators=1),
         StateSizeError, "2 qubits exceed cap 1", 1),
    ],
    ids=["input-size", "short-tape", "unknown-mode", "input-over-cap"],
)
def test_malformed_execution_inputs_raise(call, error, message, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(executor, "DEFAULT_QUBIT_CAP", cap)
    with pytest.raises(error, match=re.escape(message)):
        call()
