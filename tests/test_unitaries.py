"""Target labels and their angles."""

import json
import math
import re
from itertools import product

import numpy as np
import pytest

from ppmbqc.cli import main
from ppmbqc.errors import PpmError
from ppmbqc.fragments import xhalf_fragment
from ppmbqc.unitaries import (
    LabelError,
    apply_frames,
    frame_bits,
    kron,
    parse_angle,
    pauli_product,
    unitary_from_label,
)
from ppmbqc.verifier import verify_fragment


def test_parse_angle_forms():
    assert parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert parse_angle("-3*pi/2") == pytest.approx(-1.5 * math.pi)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi)
    assert parse_angle("0.5") == 0.5


@pytest.mark.parametrize(
    "label",
    ["Z(pi/0)", "P(pi/0.0)", "Z(abc)", "X()", "Z(1e400)", "Z(-inf)", "X(nan)", "Z(9e999)"],
)
def test_malformed_rotation_labels_raise_label_error(label):
    with pytest.raises(LabelError):
        unitary_from_label(label)


@pytest.mark.parametrize("wires", range(4))
def test_frame_codes_invert_frame_bits_in_nested_product_order(wires):
    bits = frame_bits(np.arange(4**wires), wires)
    assert bits.shape == (4**wires, wires, 2)
    nested = list(product(product((0, 1), repeat=2), repeat=wires))
    assert [tuple(map(tuple, frame)) for frame in bits.tolist()] == nested


def test_frame_bits_put_z_before_x_and_wire_zero_first():
    assert frame_bits(0b1001, 2).tolist() == [[1, 0], [0, 1]]
    assert frame_bits(0b0111, 2).tolist() == [[0, 1], [1, 1]]


@pytest.mark.parametrize("wires", range(4))
def test_apply_frames_matches_the_kronecker_reference(wires):
    rng = np.random.default_rng(wires)
    dim = 1 << wires
    mat = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    vec = mat[:, 0].copy()
    codes = np.arange(4**wires)
    stacked = apply_frames(codes, mat, wires)
    assert stacked.shape == (4**wires, dim, 3)
    for c in codes:
        ref = pauli_product(frame_bits(c, wires).tolist())
        assert np.array_equal(stacked[c], ref @ mat)
        assert np.array_equal(apply_frames(int(c), mat, wires), ref @ mat)
        assert np.array_equal(apply_frames(int(c), vec, wires), ref @ vec)


@pytest.mark.parametrize("shapes", [(1, 1), (1, 2), (2, 2), (2, 4), (4, 2), (3, 5)])
def test_kron_is_numpys_kron_bit_for_bit(shapes):
    rng = np.random.default_rng(sum(shapes))
    a, b = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in shapes)
    got = kron(a, b)
    assert got.shape == (shapes[0] * shapes[1],) * 2
    assert np.array_equal(got, np.kron(a, b))


@pytest.mark.parametrize(
    "label, message",
    [
        ("H$", "cannot tokenize '$'"),
        ("Hx", "unexpected end of label"),
        ("(H(", "unbalanced parenthesis"),
        ("Y(pi)", "unknown parametrized gate 'Y'"),
        ("Q", "unknown gate 'Q'"),
        ("H)", "trailing tokens in 'H)'"),
        ("(" * 5000 + "T" + ")" * 5000, "is nested too deeply"),
        ("Tx" * 12 + "T", "names a product wider than 12 qubits"),  # refused before kron
    ],
    ids=["tokenize", "end", "parenthesis", "parametrized", "gate", "trailing", "deep", "wide"],
)
def test_malformed_labels_raise_and_exit_two(label, message, capsys):
    with pytest.raises(LabelError, match=re.escape(message)):
        unitary_from_label(label)
    assert main(["--json", "verify", "builtin:xhalf", "--target", label]) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize(
    "label, shapes",
    [("H*TxI", "a (2, 2) by a (4, 4)"), ("CZ*H", "a (4, 4) by a (2, 2)")],
)
def test_mismatched_products_name_the_label_and_both_shapes(label, shapes):
    # 'x' binds tighter than '*': H*TxI is H times (T x I).
    with pytest.raises(LabelError, match=re.escape(f"{label!r} multiplies {shapes} matrix")):
        unitary_from_label(label)
    assert unitary_from_label("(H*T)xI").shape == (4, 4)


def test_label_errors_are_package_errors():
    with pytest.raises(PpmError):
        unitary_from_label("Q")
    with pytest.raises(PpmError):
        verify_fragment(xhalf_fragment(), "Q")
