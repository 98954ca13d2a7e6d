"""Target labels and their angles."""

import math
from itertools import product

import numpy as np
import pytest

from ppmbqc.unitaries import (
    LabelError,
    frame_bits,
    frame_codes,
    parse_angle,
    unitary_from_label,
)


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
    codes = np.arange(4**wires)
    bits = frame_bits(codes, wires)
    assert bits.shape == (4**wires, wires, 2)
    assert (frame_codes(bits) == codes).all()
    nested = list(product(product((0, 1), repeat=2), repeat=wires))
    assert [tuple(map(tuple, frame)) for frame in bits.tolist()] == nested


def test_frame_bits_put_z_before_x_and_wire_zero_first():
    assert frame_bits(0b1001, 2).tolist() == [[1, 0], [0, 1]]
    assert frame_codes([[0, 1], [1, 1]]) == 0b0111
