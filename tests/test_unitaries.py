"""Target labels and their angles."""

import math

import pytest

from ppmbqc.unitaries import LabelError, parse_angle, unitary_from_label


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
