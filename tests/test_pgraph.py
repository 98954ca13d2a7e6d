"""Multigraph edge-multiplicity arithmetic."""

import json
import sys

import pytest
from hypothesis import given, strategies as st

from ppmbqc.cli import main
from ppmbqc.errors import StructuralError
from ppmbqc.fragments import xhalf_fragment
from ppmbqc.pattern import fragment_to_dict
from ppmbqc.pgraph import PGraph


def test_double_edge_from_two_singles():
    g = PGraph(2, base_exponent=2)
    g = g.add_edges(0, 1, 2)
    assert g.multiplicity(0, 1) == 2


def test_multiplicity_wraps_at_full_turn():
    g = PGraph(2, base_exponent=2).add_edges(0, 1, 7)
    assert g.multiplicity(0, 1) == 7
    g = g.add_edges(0, 1, 1)  # 8 = 0 mod 2^(m+1): a full turn is global phase
    assert g.multiplicity(0, 1) == 0
    assert g.edges == ()


def test_self_loop_rejected():
    with pytest.raises(StructuralError):
        PGraph(2).add_edges(1, 1, 1)


def test_out_of_range_rejected():
    with pytest.raises(StructuralError):
        PGraph(2).add_edges(0, 2, 1)


@pytest.mark.parametrize(
    "edges, message",
    [
        (((1, 1, 1),), "self-loop on vertex 1"),
        (((0, 3, 1),), r"vertex 3 out of range \[0, 3\)"),
        (((-1, 2, 1),), r"vertex -1 out of range \[0, 3\)"),
        (((0, 1, 1), (2, 2, 4)), "self-loop on vertex 2"),
    ],
    ids=["self-loop", "past-the-end", "negative", "second-edge"],
)
def test_constructor_names_the_first_bad_edge(edges, message):
    with pytest.raises(StructuralError, match=message):
        PGraph(3, 2, edges)


def test_constructor_merges_unordered_pairs_and_drops_full_turns():
    g = PGraph(3, 2, ((2, 0, 1), (0, 2, 1), (1, 0, 5), (0, 1, 3)))
    assert g.edges == ((0, 2, 2),)
    assert g.relabel({0: 2, 1: 1, 2: 0}, 3).edges == ((0, 2, 2),)


def test_unordered_pair_semantics():
    g = PGraph(3).add_edges(2, 0, 1).add_edges(0, 2, 1)
    assert g.multiplicity(0, 2) == 2
    assert g.multiplicity(2, 0) == 2


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)
def test_sequential_addition_matches_single(m, k1, k2):
    base = PGraph(2, base_exponent=m)
    assert base.add_edges(0, 1, k1).add_edges(0, 1, k2) == base.add_edges(0, 1, k1 + k2)


def test_edge_angle_and_modulus():
    import math

    g = PGraph(2, base_exponent=3)
    assert g.multiplicity_modulus == 16
    assert g.edge_angle == pytest.approx(math.pi / 8)


def test_relabel_merges_multiplicities():
    g = PGraph(3).add_edges(0, 1, 1).add_edges(1, 2, 1)
    merged = g.relabel({0: 0, 1: 1, 2: 0}, 2)
    assert merged.multiplicity(0, 1) == 2


def test_base_exponent_stops_where_the_edge_angle_stops_being_normal():
    assert PGraph(2, base_exponent=1023).edge_angle > sys.float_info.min
    for m in (0, 1024, 2000):
        with pytest.raises(StructuralError, match="base_exponent"):
            PGraph(2, base_exponent=m)


@pytest.mark.parametrize("count", [-1, -2])
def test_negative_vertex_count_raises_and_exits_two(count, tmp_path, capsys):
    message = "vertex_count must be non-negative"
    with pytest.raises(StructuralError, match=message):
        PGraph(count)
    data = fragment_to_dict(xhalf_fragment())
    data["vertices"] = count
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["--json", "depth", str(path)]) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]
