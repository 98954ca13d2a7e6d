"""ANF boolean function algebra."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ppmbqc.boolfn import BoolFn, mobius_anf
from ppmbqc.errors import EvaluationError

VARS = ["a", "b", "c", "d", "e", "x", "z"]


def anf(*monomials):
    return BoolFn(monomials)


def test_nested_product_expression_evaluates_stepwise():
    # zeta = a + c + d + e + x + (b + z)(c + d + z + 1) with a=1, rest 0.
    zeta = BoolFn.xor_of("a", "c", "d", "e", "x") ^ (
        BoolFn.xor_of("b", "z") & (BoolFn.xor_of("c", "d", "z") ^ BoolFn.one())
    )
    env = {v: 0 for v in VARS}
    env["a"] = 1
    assert zeta.evaluate(env) == 1
    assert zeta.evaluate({v: 0 for v in VARS}) == 0


def test_empty_monomial_set_is_zero():
    assert BoolFn.zero().evaluate({}) == 0
    assert BoolFn.zero().evaluate({"a": 1}) == 0


def test_single_empty_monomial_is_one():
    assert BoolFn.one().evaluate({}) == 1
    assert BoolFn.one().evaluate({"a": 0}) == 1


def test_unbound_variable_raises():
    with pytest.raises(EvaluationError):
        BoolFn.var("q").evaluate({"a": 1})


def test_duplicate_monomials_cancel():
    assert anf(["a"], ["a"]) == BoolFn.zero()
    assert anf(["a"], ["a"], ["a"]) == BoolFn.var("a")


def test_xor_and_distribute():
    f = (BoolFn.var("a") ^ BoolFn.var("b")) & BoolFn.var("c")
    assert f == anf(["a", "c"], ["b", "c"])


def test_substitute_expands_products():
    f = anf(["a", "b"], ["c"])
    g = f.substitute({"a": BoolFn.xor_of("u", "v")})
    assert g == anf(["u", "b"], ["v", "b"], ["c"])


def test_idempotent_squares_inside_monomial():
    f = BoolFn.var("a") & BoolFn.var("a")
    assert f == BoolFn.var("a")


@st.composite
def boolfns(draw):
    k = draw(st.integers(min_value=0, max_value=6))
    monos = draw(
        st.lists(
            st.lists(st.sampled_from(VARS), max_size=4).map(tuple),
            max_size=8,
        )
    )
    del k
    return [list(m) for m in monos]


@given(boolfns(), boolfns())
def test_canonicalization_preserves_truth_table(m1, m2):
    f1 = BoolFn(m1)
    f2 = BoolFn(m2)
    both = f1 ^ f2
    names = sorted(set(f1.variables) | set(f2.variables) | set(both.variables))
    for i in range(1 << len(names)):
        env = {n: (i >> j) & 1 for j, n in enumerate(names)}
        assert both.evaluate(env) == (f1.evaluate(env) ^ f2.evaluate(env))


@given(st.integers(min_value=0, max_value=2**16 - 1))
def test_mobius_fit_reproduces_table(bits):
    names = ["p", "q", "r", "s"]
    table = np.array([(bits >> i) & 1 for i in range(16)], dtype=np.uint8)
    fn = mobius_anf(table, names)
    for row in range(16):
        env = {names[j]: (row >> (3 - j)) & 1 for j in range(4)}
        assert fn.evaluate(env) == table[row]


def test_vectorized_eval_matches_scalar():
    f = anf(["a", "b"], ["c"], [])
    rows = np.array(
        [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)], dtype=np.uint8
    )
    env = {"a": rows[:, 0], "b": rows[:, 1], "c": rows[:, 2]}
    vec = f.evaluate_rows(env)
    for i, (a, b, c) in enumerate(rows):
        assert vec[i] == f.evaluate({"a": a, "b": b, "c": c})


def test_rename_and_json_lists_roundtrip():
    f = anf(["a", "b"], ["z"], [])
    g = f.rename({"a": "g2.a"})
    assert g == anf(["g2.a", "b"], ["z"], [])
    assert BoolFn(f.to_anf_lists()) == f


def test_canonical_sets_and_monomial_lists_build_the_same_function():
    monos = [["a", "b"], ["z"], []]
    assert BoolFn(frozenset(frozenset(m) for m in monos)) == BoolFn(monos)
    assert BoolFn([["a"], ["a"]]) == BoolFn.zero()
    assert BoolFn([["a", "b"], ["b", "a"], ["c"]]) == BoolFn.var("c")
    # A non-injective rename must still cancel the monomials it merges.
    assert anf(["a"], ["b"]).rename({"a": "b"}) == BoolFn.zero()


@given(boolfns(), st.text(alphabet="agx.19", max_size=4))
def test_prefixing_equals_renaming_every_variable(monos, prefix):
    f = BoolFn(monos)
    names = {v: prefix + v for v in f.variables}
    got = f.prefixed(names)
    assert got == f.rename(names)
    assert got.monomials == BoolFn(list(map(list, got.monomials))).monomials


@given(boolfns(), boolfns())
def test_built_sets_are_canonical_and_read_the_right_names(m1, m2):
    f1, f2 = BoolFn(m1), BoolFn(m2)
    for fn in (f1 ^ f2, BoolFn.zero(), BoolFn.one(), BoolFn.var("a")):
        assert fn.monomials == BoolFn(list(map(list, fn.monomials))).monomials
        names = set().union(*fn.monomials)
        assert fn.variables == tuple(sorted(names))
        assert fn.is_constant() == (not names)


@given(boolfns())
def test_anf_lists_order_monomials_by_length_then_names(monos):
    f = BoolFn(monos)
    lists = f.to_anf_lists()
    assert lists == sorted((sorted(m) for m in f.monomials), key=lambda m: (len(m), m))
    assert BoolFn(lists) == f


FREE = ["u", "v", "w"]


@st.composite
def bindings(draw):
    """Bind some of VARS to renames, constants or polynomials over VARS + FREE."""
    names = draw(st.lists(st.sampled_from(VARS), unique=True, max_size=4))
    pool = st.sampled_from(VARS + FREE)
    poly = st.lists(st.lists(pool, max_size=3), max_size=4).map(BoolFn)
    return {n: draw(st.one_of(pool.map(BoolFn.var), poly)) for n in names}


@given(boolfns(), bindings(), st.integers(min_value=0, max_value=2**10 - 1))
def test_substitute_agrees_with_evaluating_each_binding(monos, binds, bits):
    f = BoolFn(monos)
    env = {n: (bits >> i) & 1 for i, n in enumerate(VARS + FREE)}
    bound_env = env | {n: g.evaluate(env) for n, g in binds.items()}
    assert f.substitute(binds).evaluate(env) == f.evaluate(bound_env)
