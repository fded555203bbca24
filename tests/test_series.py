"""Series arithmetic against closed forms, numpy.polynomial, and ring axioms."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from aimcf.errors import (
    CenterMismatch,
    ConditioningWarning,
    OrderExhausted,
    Overflow,
    ParseOrEvalError,
    SingularPivot,
    ValidationError,
)
from aimcf.series import (
    Add,
    Const,
    Div,
    IntPow,
    Mul,
    Neg,
    Param,
    Sub,
    TaylorSeries,
    VarX,
    bind_series,
    parse_expression,
    series_add,
    series_antideriv,
    series_diff,
    series_div,
    series_exp,
    series_from_expr,
    series_mul,
    series_sub,
)


def _series(center, coeffs):
    return TaylorSeries(center, np.asarray(coeffs, dtype=float))


coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=9,
)


# [DERIVED] (1 + 2x)^3 expanded about 0.5 via numpy.polynomial shifting
def test_expr_matches_numpy_polynomial():
    expr = parse_expression("(1 + 2*x)^3")
    got = series_from_expr(expr, param_value=0.0, center=0.5, order=6)
    # Polynomial in t = x - 0.5: substitute x = t + 0.5
    p = Polynomial([1.0, 2.0])(Polynomial([0.5, 1.0])) ** 3
    want = np.zeros(7)
    want[: len(p.coef)] = p.coef
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-14, atol=1e-14)


# [DERIVED] geometric series 1/(1 - x) about 0 has all coefficients 1
def test_expr_geometric_series():
    got = series_from_expr(parse_expression("1/(1 - x)"), 0.0, center=0.0, order=12)
    np.testing.assert_allclose(got.coeffs, np.ones(13), rtol=1e-13)


# [DERIVED] exp(x^2) about 0: coefficient of x^(2k) is 1/k!
def test_exp_closed_form():
    base = series_from_expr(parse_expression("x^2"), 0.0, center=0.0, order=10)
    got = series_exp(base)
    want = np.zeros(11)
    for k in range(6):
        want[2 * k] = 1.0 / math.factorial(k)
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-13, atol=1e-16)


# [DERIVED] binomial expansion of (1 + x)^7 via math.comb
def test_intpow_binomial():
    got = series_from_expr(parse_expression("(1 + x)^7"), 0.0, center=0.0, order=7)
    want = [math.comb(7, k) for k in range(8)]
    np.testing.assert_allclose(got.coeffs, want, rtol=1e-14)


def test_parameter_substitution():
    expr = parse_expression("1 - E")
    got = series_from_expr(expr, param_value=5.0, center=2.0, order=3)
    np.testing.assert_allclose(got.coeffs, [-4.0, 0.0, 0.0, 0.0])
    got2 = series_from_expr(
        parse_expression("k*x", param_name="k"), param_value=3.0, center=0.0, order=2
    )
    np.testing.assert_allclose(got2.coeffs, [0.0, 3.0, 0.0])


def _walk(e, value, center, order):
    """Whole-tree evaluation of an AST, every node at every call: the reference
    the binder must reproduce bit for bit."""
    if isinstance(e, Const):
        return TaylorSeries.constant(e.value, center, order)
    if isinstance(e, VarX):
        return TaylorSeries.identity(center, order)
    if isinstance(e, Param):
        return TaylorSeries.constant(value, center, order)
    if isinstance(e, Neg):
        return -_walk(e.operand, value, center, order)
    if isinstance(e, IntPow):
        base = _walk(e.base, value, center, order)
        result = TaylorSeries.constant(1.0, center, order)
        k = e.exponent
        while k:
            if k & 1:
                result = series_mul(result, base)
            k >>= 1
            if k:
                base = series_mul(base, base)
        return result
    op = {Add: series_add, Sub: series_sub, Mul: series_mul, Div: series_div}[type(e)]
    return op(_walk(e.left, value, center, order), _walk(e.right, value, center, order))


# the parameter under each kind of node, beside parameter-free subtrees that
# the binder evaluates once
@pytest.mark.parametrize(
    "text",
    [
        "3*x - -(E*x^2)",
        "(1 + x)^2 * (E - x) * 0.5",
        "(E*x + 1 - x^3)/(2 + x)",
        "(1 + x^3)/(x - 2*E)",
        "(E*x - 1)^5 + x^7",
        "x^4 - 9*x^2 + 3 - E",
        "E - (x + 1)^3",
    ],
    ids=["neg", "mul", "div-numerator", "div-denominator", "intpow", "sub-right", "sub-left"],
)
def test_bound_series_match_whole_tree_walk(text):
    expr = parse_expression(text)
    bound = bind_series(expr, center=0.3, order=14)
    for value in (-1.7, 0.0, 2.5, 1e-3):
        want = _walk(expr, value, 0.3, 14).coeffs
        assert np.array_equal(bound(value).coeffs, want), value
        assert np.array_equal(series_from_expr(expr, value, 0.3, 14).coeffs, want), value


def test_bound_parameter_free_expression_is_evaluated_once():
    bound = bind_series(parse_expression("(1 + x)^3/(2 - x)"), center=0.1, order=6)
    assert bound(1.0) is bound(-4.0)


# a parameter-free operation that fails is raised by every call, not by the
# binding, so a caller that skips failing parameter values can still bind
def test_bound_failure_is_raised_on_each_call():
    bound = bind_series(parse_expression("E + 1/x"), center=0.0, order=4)
    for value in (1.0, 2.0):
        with pytest.raises(SingularPivot):
            bound(value)


# the bound functions recurse when called, so a call too deep for the stack
# is an evaluation error as well as a binding too deep for it
def test_bound_call_nested_too_deeply_is_parse_or_eval_error():
    bound = bind_series(parse_expression("+".join(["E"] * 400)), center=0.0, order=2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        with pytest.raises(ParseOrEvalError):
            bound(1.0)
    finally:
        sys.setrecursionlimit(limit)


def test_evaluation_horner_matches_polyval():
    s = _series(1.5, [2.0, -1.0, 0.5, 0.25])
    for x in (-2.0, 0.0, 1.5, 3.75):
        want = np.polyval(s.coeffs[::-1], x - 1.5)
        assert s(x) == pytest.approx(want, rel=1e-15)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_mul_matches_convolution_truncated(a, b):
    sa, sb = _series(0.0, a), _series(0.0, b)
    prod = series_mul(sa, sb)
    order = min(len(a), len(b)) - 1
    full = np.convolve(a, b)
    np.testing.assert_allclose(prod.coeffs, full[: order + 1], rtol=1e-12, atol=1e-12)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_product_rule(a, b):
    # d(fg) = f'g + f g' on the overlap order
    if min(len(a), len(b)) < 2:
        return
    f, g = _series(0.0, a), _series(0.0, b)
    lhs = series_diff(series_mul(f, g))
    rhs = series_mul(series_diff(f), g) + series_mul(f, series_diff(g))
    n = min(lhs.order, rhs.order) + 1
    np.testing.assert_allclose(lhs.coeffs[:n], rhs.coeffs[:n], rtol=1e-10, atol=1e-10)


@given(coeff_lists)
@settings(max_examples=60, deadline=None)
def test_diff_of_antideriv_is_identity(a):
    s = _series(0.25, a)
    back = series_diff(series_antideriv(s, 7.0))
    # divide-then-multiply by k+1 can cost an ulp near the subnormal range
    np.testing.assert_allclose(back.coeffs, s.coeffs, rtol=1e-15, atol=1e-307)


@given(
    coeff_lists,
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=9,
    ),
)
@settings(max_examples=60, deadline=None)
def test_div_round_trip(a, b):
    # keep the divisor pivot well away from zero
    b = [v if abs(v) >= 0.1 else 0.1 for v in b]
    b[0] = 2.0 + abs(b[0])
    sa, sb = _series(0.0, a), _series(0.0, b)
    q = series_div(sa, sb)
    back = series_mul(q, sb)
    n = back.order + 1
    scale = max(1.0, float(np.max(np.abs(a))))
    np.testing.assert_allclose(back.coeffs, sa.coeffs[:n], rtol=0, atol=1e-9 * scale)


@given(coeff_lists)
@settings(max_examples=40, deadline=None)
def test_exp_differential_identity(a):
    # (exp f)' = f' exp f certifies the recurrence
    if len(a) < 2:
        return
    a = [max(-3.0, min(3.0, v)) for v in a]
    f = _series(0.0, a)
    e = series_exp(f)
    lhs = series_diff(e)
    rhs = series_mul(series_diff(f), e)
    n = min(lhs.order, rhs.order) + 1
    scale = max(1.0, float(np.max(np.abs(e.coeffs))))
    np.testing.assert_allclose(lhs.coeffs[:n], rhs.coeffs[:n], rtol=0, atol=1e-9 * scale)


def test_center_mismatch_rejected():
    with pytest.raises(CenterMismatch):
        _series(0.0, [1.0]) + _series(1.0, [1.0])


def test_div_by_zero_pivot_raises():
    with pytest.raises(SingularPivot):
        series_div(_series(0.0, [1.0, 1.0]), _series(0.0, [0.0, 1.0]))


def test_div_tiny_pivot_warns():
    with pytest.warns(ConditioningWarning):
        series_div(_series(0.0, [1.0, 1.0]), _series(0.0, [1e-14, 1.0]))


# a quotient past double range is a numeric failure, not an invalid series
def test_div_overflow():
    with pytest.raises(Overflow):
        series_div(_series(0.0, [1.0, 0.0, 0.0]), _series(0.0, [1.0, 1e200, 0.0]))


def test_diff_order_zero_exhausted():
    with pytest.raises(OrderExhausted):
        series_diff(_series(0.0, [3.0]))


def test_exp_overflow():
    with pytest.raises(Overflow):
        series_exp(_series(0.0, [1e4, 1.0]))


def test_scalar_coercion_operators():
    s = _series(0.0, [1.0, 2.0, 3.0])
    np.testing.assert_allclose((s + 1.0).coeffs, [2.0, 2.0, 3.0])
    np.testing.assert_allclose((2.0 * s).coeffs, [2.0, 4.0, 6.0])
    np.testing.assert_allclose((1.0 - s).coeffs, [0.0, -2.0, -3.0])
    np.testing.assert_allclose((-s).coeffs, [-1.0, -2.0, -3.0])


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValidationError):
        _series(0.0, [1.0, math.inf])


@pytest.mark.parametrize(
    "text",
    ["2*^3", "x^(2)", "x^-1", "x^2.5", "(1 + x", "x + y", "1..2", ""],
)
def test_parser_rejects_with_position(text):
    with pytest.raises(ParseOrEvalError) as err:
        parse_expression(text)
    assert "position" in str(err.value)


def test_parser_accepts_scientific_notation():
    got = series_from_expr(parse_expression("1.5e-3 + x"), 0.0, center=0.0, order=1)
    np.testing.assert_allclose(got.coeffs, [1.5e-3, 1.0])


def test_unary_minus_and_precedence():
    # -x^2 parses as -(x^2); 2 + 3*4 style precedence via series value
    got = series_from_expr(parse_expression("-x^2"), 0.0, center=0.0, order=2)
    np.testing.assert_allclose(got.coeffs, [0.0, 0.0, -1.0])
    got2 = series_from_expr(parse_expression("2 + 3*x*4"), 0.0, center=0.0, order=1)
    np.testing.assert_allclose(got2.coeffs, [2.0, 12.0])
