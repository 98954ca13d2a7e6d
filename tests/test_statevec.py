"""Dense simulator: gate conventions, measurement, resource preparation."""

import math

import numpy as np
import pytest

from ppmbqc.errors import DimensionError
from ppmbqc.pgraph import PGraph
from ppmbqc.statevec import (
    S,
    Statevector,
    apply_matrix,
    apply_parity_phase,
    embed_state,
    fidelity_up_to_phase,
    from_amplitudes,
    measure,
    permute,
    phase_table,
    plus_state,
    prepare_resource,
    zero_state,
    zrot,
)
from ppmbqc.unitaries import FIXED

RNG = np.random.default_rng(0xBEEF)


def random_state(n):
    v = RNG.normal(size=1 << n) + 1j * RNG.normal(size=1 << n)
    return from_amplitudes(v)


def parity_phase_matrix(alpha):
    even, odd = np.exp(-0.5j * alpha), np.exp(0.5j * alpha)
    return np.diag([even, odd, odd, even]).astype(complex)


def test_basis_ordering_qubit0_is_msb():
    s = zero_state(2)
    s = apply_matrix(s, 0, np.array([[0, 1], [1, 0]], dtype=complex))
    # |10> must live at index 2.
    assert s.amplitudes[2] == pytest.approx(1.0)


def test_parity_phase_even_component():
    s = zero_state(2)
    out = apply_parity_phase(s, 0, 1, math.pi / 4)
    assert out.amplitudes[0] == pytest.approx(np.exp(-1j * math.pi / 8))


def test_parity_phase_odd_component():
    s = Statevector(2, np.array([0, 1, 0, 0], dtype=complex))
    out = apply_parity_phase(s, 0, 1, math.pi / 2)
    assert out.amplitudes[1] == pytest.approx(np.exp(1j * math.pi / 4))


def test_parity_phase_additivity_on_random_states():
    for _ in range(20):
        s = random_state(2)
        a, b = RNG.uniform(-2 * math.pi, 2 * math.pi, size=2)
        one = apply_parity_phase(apply_parity_phase(s, 0, 1, a), 0, 1, b)
        two = apply_parity_phase(s, 0, 1, a + b)
        assert np.allclose(one.amplitudes, two.amplitudes, atol=1e-12)


def test_edge_table_matches_the_float_multiplicity_form():
    for m in range(1, 7):
        for mult in range(1 << (m + 1)):
            alpha = mult * (math.pi / (1 << m))
            even, odd = np.exp(-0.5j * alpha), np.exp(0.5j * alpha)
            table = phase_table(PGraph(2, m).angle(mult)).reshape(2, 2)
            assert np.abs(table - [[even, odd], [odd, even]]).max() <= 1e-15


def test_parity_phase_rejects_coincident_qubits():
    with pytest.raises(DimensionError):
        apply_parity_phase(zero_state(2), 1, 1, 0.3)


def test_h_on_zero_gives_plus():
    out = apply_matrix(zero_state(1), 0, FIXED["H"])
    assert np.allclose(out.amplitudes, plus_state(1).amplitudes)


def test_zrot_additivity_s_from_two_eighth_turns():
    s = random_state(1)
    twice = apply_matrix(apply_matrix(s, 0, zrot(math.pi / 4)), 0, zrot(math.pi / 4))
    once = apply_matrix(s, 0, FIXED["S"])
    assert np.allclose(twice.amplitudes, once.amplitudes, atol=1e-12)


def test_x_equals_h_zpi_h():
    s = random_state(1)
    lhs = apply_matrix(s, 0, FIXED["X"])
    rhs = apply_matrix(
        apply_matrix(apply_matrix(s, 0, FIXED["H"]), 0, zrot(math.pi)), 0, FIXED["H"]
    )
    assert fidelity_up_to_phase(lhs, rhs) == pytest.approx(1.0)
    assert np.allclose(lhs.amplitudes, rhs.amplitudes, atol=1e-12)


def test_norm_preserved_under_gates():
    s = random_state(3)
    s = apply_parity_phase(s, 0, 2, 1.234)
    s = apply_matrix(s, 1, FIXED["T"])
    assert abs(s.norm**2 - 1.0) < 1e-12


def test_measure_plus_in_x_is_certain():
    p, post = measure(plus_state(1), 0, "X", 0)
    assert p == pytest.approx(1.0)
    assert post.qubit_count == 0
    p1, post1 = measure(plus_state(1), 0, "X", 1)
    assert p1 < 1e-12 and post1 is None


def test_measure_plus_in_z_is_unbiased():
    for outcome in (0, 1):
        p, _ = measure(plus_state(1), 0, "Z", outcome)
        assert p == pytest.approx(0.5)


def test_branch_probabilities_complete_on_random_states():
    for _ in range(10):
        s = random_state(3)
        q = int(RNG.integers(3))
        basis = "XZ"[int(RNG.integers(2))]
        p0, _ = measure(s, q, basis, 0)
        p1, _ = measure(s, q, basis, 1)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)


def test_measure_removes_qubit_and_remap():
    s = random_state(3)
    _, post = measure(s, 1, "Z", 0)
    assert post.qubit_count == 2


def test_prepare_resource_single_vertex():
    out = prepare_resource(PGraph(1))
    assert np.allclose(out.amplitudes, plus_state(1).amplitudes)


def test_prepare_resource_double_edge_matches_matrix_oracle():
    # Independent oracle: explicit 4x4 matrix acting on |++>.
    g = PGraph(2, base_exponent=2).add_edges(0, 1, 2)
    out = prepare_resource(g)
    oracle = parity_phase_matrix(math.pi / 2) @ plus_state(2).amplitudes
    assert fidelity_up_to_phase(out, Statevector(2, oracle)) == pytest.approx(1.0)
    # and the advertised amplitudes (1, i, i, 1)/2 up to global phase
    ref = np.array([1, 1j, 1j, 1]) / 2
    assert fidelity_up_to_phase(out, Statevector(2, ref)) == pytest.approx(1.0)


def test_edge_application_order_is_irrelevant():
    g = PGraph(4, base_exponent=2)
    edges = [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2), (1, 3, 1)]
    for u, v, k in edges:
        g = g.add_edges(u, v, k)
    fwd = prepare_resource(g)
    shuffled = PGraph(4, base_exponent=2)
    for u, v, k in reversed(edges):
        shuffled = shuffled.add_edges(u, v, k)
    bwd = prepare_resource(shuffled)
    assert np.allclose(fwd.amplitudes, bwd.amplitudes, atol=1e-12)


def test_fidelity_trivial_cases():
    s = random_state(2)
    assert fidelity_up_to_phase(s, s) == pytest.approx(1.0)
    theta = float(RNG.uniform(0, 2 * math.pi))
    rotated = Statevector(2, np.exp(1j * theta) * s.amplitudes)
    assert fidelity_up_to_phase(s, rotated) == pytest.approx(1.0)
    assert fidelity_up_to_phase(zero_state(1), from_amplitudes([0, 1])) == pytest.approx(0.0)
    with pytest.raises(DimensionError):
        fidelity_up_to_phase(zero_state(1), zero_state(2))


def test_parity_phase_pi_is_pauli_zz():
    got = parity_phase_matrix(math.pi)
    zz = np.kron(np.diag([1, -1]), np.diag([1, -1])).astype(complex)
    overlap = abs(np.trace(zz.conj().T @ got)) / 4
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_parity_phase_half_is_local_clifford_of_cz():
    got = parity_phase_matrix(math.pi / 2)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    ref = np.kron(S, S) @ cz
    overlap = abs(np.trace(ref.conj().T @ got)) / 4
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_magic_state_identity():
    # Entangle a fresh |+> by the parity phase, Z-measure it: the survivor
    # carries Z(+-alpha), each branch with probability 1/2.
    for alpha in (math.pi / 4, math.pi / 2, 0.77):
        psi = random_state(1)
        joint = embed_state(psi, 2, [0])
        joint = apply_parity_phase(joint, 0, 1, alpha)
        for outcome in (0, 1):
            p, post = measure(joint, 1, "Z", outcome)
            assert p == pytest.approx(0.5, abs=1e-12)
            sign = -1.0 if outcome else 1.0
            expected = zrot(sign * alpha) @ psi.amplitudes
            assert fidelity_up_to_phase(post, Statevector(1, expected)) == pytest.approx(1.0)


def test_hair_cut_law():
    # X-measuring an attached |+> hair: outcome 0 leaves the neighbour
    # alone, outcome 1 leaves a Pauli Z; probabilities cos^2, sin^2 of
    # half the edge angle. Oracle: direct 2-qubit analytic computation.
    for alpha in (math.pi / 4, math.pi / 2, 1.1):
        psi = random_state(1)
        joint = apply_parity_phase(embed_state(psi, 2, [0]), 0, 1, alpha)
        p0, post0 = measure(joint, 1, "X", 0)
        p1, post1 = measure(joint, 1, "X", 1)
        assert p0 == pytest.approx(math.cos(alpha / 2) ** 2, abs=1e-12)
        assert p1 == pytest.approx(math.sin(alpha / 2) ** 2, abs=1e-12)
        assert fidelity_up_to_phase(post0, psi) == pytest.approx(1.0)
        flipped = Statevector(1, np.diag([1, -1]) @ psi.amplitudes)
        assert fidelity_up_to_phase(post1, flipped) == pytest.approx(1.0)


def test_permute_roundtrip():
    s = random_state(3)
    perm = [2, 0, 1]
    back = permute(permute(s, perm), [perm.index(i) for i in range(3)])
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_embed_state_places_qubits():
    psi = from_amplitudes([0, 1])  # |1>
    joint = embed_state(psi, 3, [1])
    # qubit 1 must be |1>, rest |+>: measure qubit 1 in Z.
    p1, _ = measure(joint, 1, "Z", 1)
    assert p1 == pytest.approx(1.0)


def test_kernels_match_index_oracles_on_distant_qubits_and_keep_their_input():
    # Reference: phases from the parity of basis-index bits, and measurement
    # as a slice of the (Hadamard-rotated) tensor along the measured axis.
    n = 4
    s = random_state(n)
    before = s.amplitudes.copy()
    bits = (np.arange(1 << n)[:, None] >> (n - 1 - np.arange(n))) & 1
    for q1, q2 in ((0, 3), (2, 1), (1, 3)):
        parity = bits[:, q1] ^ bits[:, q2]
        want = s.amplitudes * np.where(parity == 0, np.exp(-0.2j), np.exp(0.2j))
        got = apply_parity_phase(s, q1, q2, 0.4)
        assert np.allclose(got.amplitudes, want, atol=1e-12)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    for q in range(n):
        for basis in ("X", "Z"):
            work = apply_matrix(s, q, h) if basis == "X" else s
            for outcome in (0, 1):
                branch = np.moveaxis(work.amplitudes.reshape((2,) * n), q, 0)[outcome]
                p, post = measure(s, q, basis, outcome)
                assert p == pytest.approx(np.vdot(branch, branch).real, abs=1e-12)
                want = branch.reshape(-1) / math.sqrt(p)
                assert np.allclose(post.amplitudes, want, atol=1e-12)
    assert np.array_equal(s.amplitudes, before)
