"""Series arithmetic against closed forms, numpy.polynomial, and ring axioms."""

import copy
import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from aimcf import aim
from aimcf.aim import (
    ProblemSpec,
    aim_iterate,
    aim_matrix_iterate,
    alpha_at,
    delta_n,
    find_eigenvalues,
)
from aimcf.analysis import classify
from aimcf.cf import terminated_alpha
from aimcf.errors import (
    AimError,
    CenterMismatch,
    ConditioningWarning,
    OrderExhausted,
    Overflow,
    ParseOrEvalError,
    SingularPivot,
    ValidationError,
)
from aimcf.series import (
    EPS_PIVOT,
    PIVOT_WARN_REL,
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
    _bind,
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


def _ho_entry():
    """The oscillator at x0 = 0.3 to depth 4 and its ladder at E = 3.3."""
    spec = ProblemSpec.from_strings("2*x", "1 - E", x0=0.3, order=12, n_max=4)
    return spec, aim_iterate(spec, 3.3)


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


def _search_columns(expr, center, order):
    """The S coefficients of the eigenvalue search's evaluator for ``expr``
    (beside L = E, so that the search has the parameter), run as the search
    runs it, as a ``(order + 1, values)`` array, or ``(order + 1, 1)`` where
    every one holds at all values; and the derivative column t! c[t] of one
    coefficient array in the evaluator's arithmetic."""
    spec = ProblemSpec(Param(), expr, center, order + 3, 1)
    columns = aim._evaluator(spec, order)[0]
    mant, exp = aim._tables(order + 1)

    def column(values):
        with np.errstate(over="ignore", invalid="ignore"):
            slots = columns(values)[1][order + 1 :]
        if all(isinstance(c, float) for c in slots):
            return np.array(slots)[:, None]
        return np.array([np.broadcast_to(c, len(values)) for c in slots])

    def derivatives(coeffs):
        with np.errstate(over="ignore"):
            return np.ldexp(mant * coeffs, exp)

    return column, derivatives


# the parameter under each kind of node, beside parameter-free subtrees that
# the binder evaluates once; every column of a search's derivative columns,
# whatever the other values are, is that of the walk for its value alone,
# and so is the series of that one value
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
    column, derivatives = _search_columns(expr, center=0.3, order=14)
    values = [-1.7, 0.0, 2.5, 1e-3]
    cols = column(values)
    assert cols.shape == (15, 4)
    for col, value in zip(cols.T, values):
        want = _walk(expr, value, 0.3, 14).coeffs
        assert np.array_equal(col, derivatives(want)), value
        assert np.array_equal(column([value])[:, 0], col), value
        assert np.array_equal(series_from_expr(expr, value, 0.3, 14).coeffs, want), value


# a parameter-free side is evaluated once per search: every call returns the
# same Python floats, its one derivative column, which holds at every value
def test_bound_parameter_free_expression_is_evaluated_once():
    expr = parse_expression("(1 + x)^3/(2 - x)")
    column, derivatives = _search_columns(expr, center=0.1, order=6)
    columns = aim._evaluator(ProblemSpec(Param(), expr, 0.1, 9, 1), 6)[0]
    one, three = columns([1.0])[1][7:], columns([-4.0, 0.5, 2.0])[1][7:]
    assert all(isinstance(c, float) for c in one)
    assert all(a is b for a, b in zip(one, three, strict=True))
    assert column([1.0]).shape == (7, 1)
    assert np.array_equal(column([1.0])[:, 0], derivatives(_walk(expr, 0.0, 0.1, 6).coeffs))


# a parameter-free operation that fails is raised by every call, not by the
# binding, so a search that skips failing parameter values can still bind
def test_bound_failure_is_raised_on_each_call():
    expr = parse_expression("E + 1/x")
    column, _ = _search_columns(expr, center=0.0, order=4)
    for values in ([1.0], [2.0], [1.0, 2.0]):
        with pytest.raises(SingularPivot):
            column(values)
        with pytest.raises(SingularPivot):
            series_from_expr(expr, values[0], 0.0, 4)


# the binder recurses, so a tree too deep for the stack is an evaluation
# error, for one value and for a search over many
def test_bound_call_nested_too_deeply_is_parse_or_eval_error():
    expr = parse_expression("+".join(["E"] * 400))
    spec = ProblemSpec(Const(0.0), expr, 0.0, 3, 1)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        with pytest.raises(ParseOrEvalError):
            series_from_expr(expr, 1.0, 0.0, 2)
        with pytest.raises(ParseOrEvalError):
            find_eigenvalues(spec, 0.0, 1.0, 3)
    finally:
        sys.setrecursionlimit(limit)


# a non-finite parameter value is rejected, as the constant series of a
# non-finite value is: one value where it enters the binder's row stack, and
# the values of a search where its range is checked, before any binding
@pytest.mark.parametrize("values", [[1.0, math.inf], [math.nan], [-math.inf, 0.0]])
def test_bound_rejects_bad_parameter_values(values):
    expr = parse_expression("x - E")
    for value in values:
        if not math.isfinite(value):
            with pytest.raises(ValidationError, match="finite"):
                series_from_expr(expr, value, 0.0, 3)
    spec = ProblemSpec(Const(0.0), expr, 0.0, 3, 1)
    with pytest.raises(ValidationError, match="finite"):
        find_eigenvalues(spec, min(values), max(values), 3)


# a non-finite constant leaf is an input error wherever it is bound, with or
# without the parameter beside it; finite leaves bind to read-only arrays
@pytest.mark.parametrize(
    "expr",
    [parse_expression("1e400 + x"), parse_expression("E * 1e400"), Neg(Const(math.nan))],
    ids=["literal-inf", "beside-parameter", "nan-node"],
)
def test_non_finite_constant_is_validation_error(expr):
    with pytest.raises(ValidationError, match="series coefficients must all be finite"):
        series_from_expr(expr, 1.0, 0.0, 4)
    spec = ProblemSpec(expr, parse_expression("x - E"), 0.0, 4, 2)
    with pytest.raises(ValidationError, match="series coefficients must all be finite"):
        find_eigenvalues(spec, 0.0, 1.0, 3)


@pytest.mark.parametrize("order", [0, 1, 4])
def test_leaves_bind_read_only(order):
    for leaf, want in ((Const(2.5), [2.5]), (VarX(), [0.75, 1.0])):
        coeffs = _bind(leaf, 0.75, order)
        np.testing.assert_array_equal(coeffs, (want + [0.0] * order)[: order + 1])
        assert not coeffs.flags.writeable


def _expressions():
    """Random ASTs over x, the parameter and small constants, with every
    node kind."""
    leaves = st.one_of(
        st.builds(Const, st.sampled_from([-2.0, -0.5, 0.0, 1.0, 1.5, 3.0])),
        st.just(VarX()),
        st.just(Param()),
    )

    def nodes(children):
        return st.one_of(
            st.builds(Neg, children),
            *(st.builds(op, children, children) for op in (Add, Sub, Mul, Div)),
            st.builds(IntPow, children, st.integers(min_value=0, max_value=4)),
        )

    return st.recursive(leaves, nodes, max_leaves=8)


# every column of a search's derivative columns equals that of the
# whole-tree walk for its value, bit for bit; values that hold one the walk
# fails on raise
@example(expr=Div(Const(1.0), Sub(Param(), VarX())), values=[0.0, 2.0], center=0.0, order=3)
@example(expr=Neg(IntPow(Mul(Param(), VarX()), 3)), values=[1.5, -2.0], center=0.5, order=4)
@example(expr=Add(Param(), Div(VarX(), Param())), values=[1.0, 2.0, -3.0], center=0.2, order=5)
@given(
    expr=_expressions(),
    values=st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=8),
    center=st.floats(min_value=-1, max_value=1),
    order=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=150, deadline=None)
def test_bound_rows_match_whole_tree_walk(expr, values, center, order):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        column, derivatives = _search_columns(expr, center, order)
        wants = []
        for value in values:
            try:
                wants.append(_walk(expr, value, center, order).coeffs)
            except AimError:
                wants.append(None)
        if any(want is None for want in wants):
            with pytest.raises(AimError):
                column(values)
            return
        cols = column(values)
    assert cols.shape in {(order + 1, len(values)), (order + 1, 1)}
    for i, want in enumerate(wants):
        assert np.array_equal(cols[:, i % cols.shape[1]], derivatives(want))


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
    a = _series(0.0, [1.0, 2.0])
    np.testing.assert_array_equal((a + np.float64(2.0)).coeffs, [3.0, 2.0])
    np.testing.assert_array_equal((a + True).coeffs, [2.0, 2.0])
    np.testing.assert_array_equal((2 / a).coeffs, [2.0, -4.0])


# an operand with no coercion to a series is Python's TypeError, whichever
# side it is on
@pytest.mark.parametrize(
    "op",
    [
        lambda a: a + "x",
        lambda a: "x" + a,
        lambda a: a * None,
        lambda a: a + 1j,
        lambda a: None - a,
        lambda a: a / [1.0],
    ],
    ids=["add-str", "radd-str", "mul-none", "add-complex", "rsub-none", "div-list"],
)
def test_unsupported_operand_is_type_error(op):
    with pytest.raises(TypeError):
        op(_series(0.0, [1.0, 2.0]))


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValidationError):
        _series(0.0, [1.0, math.inf])
    # the leaf constructors check the order, the centre and the leaf as
    # series_from_expr does
    for make, message in (
        (lambda: TaylorSeries.constant(math.nan, 0.0, 3), "coefficients must all be finite"),
        (lambda: TaylorSeries.identity(math.inf, 3), "center must be finite"),
        (lambda: TaylorSeries.constant(1.0, math.inf, 3), "center must be finite"),
        (lambda: TaylorSeries.constant(1.0, 0.0, -1), "^series order must be >= 0$"),
        (lambda: TaylorSeries.identity(0.0, -1), "^series order must be >= 0$"),
        (lambda: TaylorSeries.constant(1.0, 0.0, -2), "^series order must be >= 0$"),
        (lambda: TaylorSeries.identity(0.0, -2), "^series order must be >= 0$"),
    ):
        with pytest.raises(ValidationError, match=message):
            make()


def reference_div(a, b):
    """Long division a / b in a loop over numpy scalars, as an oracle."""
    pivot = float(b.coeffs[0])
    if abs(pivot) < EPS_PIVOT:
        raise SingularPivot("pivot")
    a_scale = float(np.max(np.abs(a.coeffs)))
    if a_scale > 0.0 and abs(pivot) < PIVOT_WARN_REL * a_scale:
        warnings.warn("tiny pivot", ConditioningWarning)
    n = min(a.order, b.order) + 1
    out = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            acc = a.coeffs[k]
            for j in range(1, min(k, b.order) + 1):
                acc -= b.coeffs[j] * out[k - j]
            out[k] = acc / pivot
    if not np.all(np.isfinite(out)):
        raise Overflow("quotient")
    return out


def reference_exp(a):
    """Exponential by the e' = a'e recurrence over numpy scalars, as an oracle."""
    try:
        e0 = math.exp(float(a.coeffs[0]))
    except OverflowError:
        raise Overflow("exp") from None
    n = a.order + 1
    out = np.empty(n)
    out[0] = e0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            acc = 0.0
            for j in range(k + 1):
                acc += (j + 1) * a.coeffs[j + 1] * out[k - j]
            out[k + 1] = acc / (k + 1)
    if not np.all(np.isfinite(out)):
        raise Overflow("exp")
    return out


def _outcome(fn, *args):
    """Coefficient bytes or exception type of one call, and its warning types."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except AimError as exc:
            value = type(exc)
        else:
            coeffs = result.coeffs if isinstance(result, TaylorSeries) else result
            value = coeffs.tobytes()  # bit for bit, signed zeros included
    return value, [w.category for w in caught]


@st.composite
def wide_series(draw, pivots=()):
    """Orders 0..80, magnitudes scaled by 10^-200..10^200, optional set pivot.

    Zero-heavy draws put a signed zero at random positions, at every
    position past the first (a constant series), or everywhere.
    """
    order = draw(st.integers(min_value=0, max_value=80))
    scale = 10.0 ** draw(st.integers(min_value=-200, max_value=200))
    coeffs = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=order + 1,
            max_size=order + 1,
        )
    )
    arr = np.array(coeffs) * scale
    zeros = draw(st.sampled_from(("none", "mask", "constant", "all")))
    if zeros == "mask":
        mask = draw(st.lists(st.booleans(), min_size=order + 1, max_size=order + 1))
    else:
        mask = [zeros == "all"] + [zeros != "none"] * order
    for i in np.flatnonzero(mask):
        arr[i] = draw(st.sampled_from((0.0, -0.0)))
    pivot = draw(st.sampled_from((None,) + tuple(pivots)))
    if pivot is not None:
        arr[0] = pivot
    return _series(0.0, arr)


# the Python-float loop of series_div, which skips zero divisor terms, is the
# dense numpy-scalar loop bit for bit, signed zeros included, with the same
# SingularPivot, ConditioningWarning and Overflow; in the first example the
# dense loop turns -0.0 into +0.0 by subtracting 0.0 * -1.0, which a bare
# skip of zero terms would leave out.  The rest pin the constant divisor's
# vector path: an all-zero numerator over a negative pivot (-0.0 quotients),
# -0.0 past index 0 (the loop's case), an overflow that must raise with no
# RuntimeWarning, a one-coefficient divisor and a longer numerator
@example(_series(0.0, [-1.0, -0.0]), _series(0.0, [1.0, 0.0]))
@example(_series(0.0, [-0.0, -0.0, -0.0]), _series(0.0, [-2.0, 0.0, -0.0]))
@example(_series(0.0, [0.0, 0.0, 0.0]), _series(0.0, [-3.0, 0.0, 0.0]))
@example(_series(0.0, [3.0, -0.0]), _series(0.0, [1.0, 0.0]))
@example(_series(0.0, [1.0, -0.0, -0.0]), _series(0.0, [-2.0, -0.0, 0.0]))
@example(_series(0.0, [1e300, 1.0]), _series(0.0, [1e-10, 0.0]))
@example(_series(0.0, [1.0, 2.0, -0.0]), _series(0.0, [4.0]))
@example(_series(0.0, [1.0, -2.0, 3.0, 5.0]), _series(0.0, [-0.5, 0.0]))
@given(wide_series(), wide_series(pivots=(0.0, 1e-301, -1e-299, 1e-250, 3e-13, -1.5)))
@settings(max_examples=300, deadline=None)
def test_div_matches_numpy_scalar_reference(a, b):
    assert _outcome(series_div, a, b) == _outcome(reference_div, a, b)


@given(wide_series())
@settings(max_examples=100, deadline=None)
def test_exp_matches_numpy_scalar_reference(a):
    assert _outcome(series_exp, a) == _outcome(reference_exp, a)


_A = _series(0.5, [1.0, -2.0, 3.0, 0.25])
_B = _series(0.5, [2.0, 1.0, -0.5])
ARITHMETIC = {
    "add": lambda: series_add(_A, _B),
    "sub": lambda: series_sub(_A, _B),
    "mul": lambda: series_mul(_A, _B),
    "div": lambda: series_div(_A, _B),
    "diff": lambda: series_diff(_A),
    "neg": lambda: -_A,
    "antideriv": lambda: series_antideriv(_A, 1.0),
    "exp": lambda: series_exp(_A),
}


@pytest.mark.parametrize("op", ARITHMETIC.values(), ids=ARITHMETIC.keys())
def test_arithmetic_result_is_read_only_and_fresh(op):
    result = op()
    assert result.center == 0.5
    assert not result.coeffs.flags.writeable
    for operand in (_A, _B):
        assert not np.shares_memory(result.coeffs, operand.coeffs)


def test_public_constructor_copies_its_argument():
    raw = np.array([1.0, 2.0])
    s = TaylorSeries(0.0, raw)
    assert not np.shares_memory(s.coeffs, raw)
    assert not s.coeffs.flags.writeable
    raw[0] = 5.0
    assert s.coeffs[0] == 1.0


@pytest.mark.parametrize(
    "center, coeffs",
    [
        (0.0, [math.nan, 1.0]),
        (0.0, []),
        (0.0, [[1.0, 2.0], [3.0, 4.0]]),
        (math.inf, [1.0]),
        (math.nan, [1.0]),
    ],
    ids=["nan", "empty", "2-d", "inf-center", "nan-center"],
)
def test_public_constructor_rejects_bad_input(center, coeffs):
    with pytest.raises(ValidationError):
        TaylorSeries(center, np.array(coeffs, dtype=float))


# the centre of a series, the parameter value of an expression, the series
# order and the leaf constructors' values pass the package's one real-number
# rule (a string raised a bare TypeError or ValueError, a float order a bare
# TypeError, and a boolean order built an order-1 series); the parameter value
# is read only where the expression has it.  So do the constructor's
# coefficients, an antiderivative's constant and the indices and counts of
# the ladder's readers, and expression text, a parameter name and a
# declaration are checked by type (each raised a bare TypeError, ValueError,
# IndexError or AttributeError, or let a boolean or a string through)
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TaylorSeries("a", [1.0]), "series center must be a real number, got 'a'"),
        (lambda: TaylorSeries(True, [1.0]), "series center must be a real number, got True"),
        (
            lambda: series_from_expr(parse_expression("x - E"), 1.0, "a", 5),
            "series center must be a real number, got 'a'",
        ),
        (
            lambda: series_from_expr(parse_expression("x - E"), "a", 0.0, 5),
            "parameter value must be a real number, got 'a'",
        ),
        (
            lambda: series_from_expr(parse_expression("x - E"), math.inf, 0.0, 5),
            "parameter value must be finite, got inf",
        ),
        (lambda: TaylorSeries.identity("a", 3), "series center must be a real number, got 'a'"),
        (
            lambda: TaylorSeries.constant("a", 0.0, 3),
            "constant value must be a real number, got 'a'",
        ),
        (lambda: TaylorSeries.identity(0.0, "a"), "series order must be an integer, got 'a'"),
        (lambda: TaylorSeries.identity(0.0, 2.5), "series order must be an integer, got 2.5"),
        (lambda: TaylorSeries.identity(0.0, True), "series order must be an integer, got True"),
        (
            lambda: TaylorSeries.constant(1.0, 0.0, "a"),
            "series order must be an integer, got 'a'",
        ),
        (
            lambda: series_from_expr(parse_expression("x - E"), 1.0, 0.0, "a"),
            "series order must be an integer, got 'a'",
        ),
        (
            lambda: series_from_expr(parse_expression("x - E"), 1.0, 0.0, 2.5),
            "series order must be an integer, got 2.5",
        ),
        (
            lambda: series_from_expr(parse_expression("x - E"), 1.0, 0.0, True),
            "series order must be an integer, got True",
        ),
        # orders whose order + 1 coefficients numpy refuses before allocating
        *(
            (make, "series order is too large for a numpy array")
            for order in (2**62, 10**30)
            for make in (
                lambda order=order: TaylorSeries.identity(0.0, order),
                lambda order=order: TaylorSeries.constant(1.0, 0.0, order),
                lambda order=order: series_from_expr(parse_expression("x"), 1.0, 0.0, order),
            )
        ),
        (lambda: parse_expression(5), "expression text must be a string, got 5"),
        (lambda: ProblemSpec.from_strings(5, "1 - E"), "expression text must be a string, got 5"),
        (lambda: parse_expression("x", 5), "parameter 5 must be an identifier other than x"),
        (
            lambda: ProblemSpec.from_strings("2*x", "1 - E", 5),
            "parameter 5 must be an identifier other than x",
        ),
        (lambda: TaylorSeries(0.0, ["1", 2]), "'coeffs[0]' must be a real number, got '1'"),
        (lambda: TaylorSeries(0.0, [True, 2]), "'coeffs[0]' must be a real number, got True"),
        (
            lambda: _series(0.0, [1.0]).antideriv("a"),
            "antiderivative constant must be a real number, got 'a'",
        ),
        (
            lambda: _series(0.0, [1.0]).antideriv(True),
            "antiderivative constant must be a real number, got True",
        ),
        *(
            (
                lambda m=m: aim_matrix_iterate(_ho_entry()[0], 3.0, m),
                f"m_max must be an integer, got {m!r}",
            )
            for m in (2.5, "a", True)
        ),
        (lambda: delta_n(_ho_entry()[1], 2.5), "delta index must be an integer, got 2.5"),
        (lambda: delta_n(_ho_entry()[1], True), "delta index must be an integer, got True"),
        (lambda: alpha_at(_ho_entry()[1], 1.5), "alpha index must be an integer, got 1.5"),
        (
            lambda: terminated_alpha(_ho_entry()[1], 1.5),
            "termination level must be an integer, got 1.5",
        ),
        (
            lambda: classify([2.0] * 40, [-1.0] * 40, declared="x"),
            "declared must be a dict, got 'x'",
        ),
        (
            lambda: classify([2.0] * 40, [-1.0] * 40, declared=[]),
            "declared must be a dict, got []",
        ),
    ],
    ids=[
        "series-center", "bool-center", "expr-center", "expr-value", "expr-inf-value",
        "identity-center", "constant-value", "identity-order", "identity-float-order",
        "identity-bool-order", "constant-order", "expr-order", "expr-float-order",
        "expr-bool-order", "identity-huge-order", "constant-huge-order", "expr-huge-order",
        "identity-vast-order", "constant-vast-order", "expr-vast-order",
        "text", "spec-text", "param-name", "spec-param-name", "str-coeff", "bool-coeff",
        "str-antideriv-constant", "bool-antideriv-constant", "float-m-max", "str-m-max",
        "bool-m-max", "float-delta-index", "bool-delta-index", "float-alpha-index",
        "float-termination-level", "str-declared", "list-declared",
    ],
)
def test_entry_points_apply_the_real_number_rule(make, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        make()
    assert series_from_expr(parse_expression("x + 1"), "a", 0.0, 2).coeffs.tolist() == [1, 1, 0]


# finite operands whose result leaves double range: Overflow, and no numpy
# RuntimeWarning on the way
@pytest.mark.parametrize(
    "op",
    [series_add, series_sub, series_mul, lambda a, b: series_diff(a)],
    ids=["add", "sub", "mul", "diff"],
)
def test_arithmetic_past_double_range_is_overflow(op):
    big = _series(0.0, [1e308, 1e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow):
            op(big, -big if op is series_sub else big)


@pytest.mark.parametrize(
    "text",
    ["2*^3", "x^(2)", "x^-1", "x^2.5", "(1 + x", "x + y", "1..2", ""],
)
def test_parser_rejects_with_position(text):
    with pytest.raises(ParseOrEvalError) as err:
        parse_expression(text)
    assert "position" in str(err.value)


# the binder takes expression nodes only: unparsed text is no node
def test_series_from_expr_rejects_a_value_that_is_no_node():
    with pytest.raises(ParseOrEvalError, match="^unknown expression node str$"):
        series_from_expr("x", 1.0, 0.0, 3)


# a character outside the grammar is named at its own position, also where
# whitespace precedes it; whitespace alone, trailing too, separates tokens
@pytest.mark.parametrize(
    "text, char, pos", [("x$", "$", 1), ("x $", "$", 2), ("x + 2 @ 3", "@", 6)]
)
def test_tokenizer_names_the_character_outside_the_grammar(text, char, pos):
    message = f"unexpected character {char!r} at position {pos}"
    with pytest.raises(ParseOrEvalError, match=f"^{re.escape(message)}$"):
        parse_expression(text)


@pytest.mark.parametrize(
    "text, want",
    [("x   ", VarX()), ("2*x\n", Mul(Const(2.0), VarX())), ("\t( x )\t", VarX())],
)
def test_parser_skips_whitespace_around_tokens(text, want):
    assert parse_expression(text) == want


def test_parser_accepts_scientific_notation():
    got = series_from_expr(parse_expression("1.5e-3 + x"), 0.0, center=0.0, order=1)
    np.testing.assert_allclose(got.coeffs, [1.5e-3, 1.0])


def test_unary_minus_and_precedence():
    # -x^2 parses as -(x^2); 2 + 3*4 style precedence via series value
    got = series_from_expr(parse_expression("-x^2"), 0.0, center=0.0, order=2)
    np.testing.assert_allclose(got.coeffs, [0.0, 0.0, -1.0])
    got2 = series_from_expr(parse_expression("2 + 3*x*4"), 0.0, center=0.0, order=1)
    np.testing.assert_allclose(got2.coeffs, [2.0, 12.0])


def test_expression_nodes_compare_by_type_and_fields():
    a, b = Const(1.0), VarX()
    assert VarX() != Param()
    assert Add(a, b) != Sub(a, b)
    assert Neg(a) != Neg(b)
    assert Const(1.0) != 1.0
    tree = Sub(IntPow(VarX(), 2), Param())
    twin = Sub(IntPow(VarX(), 2), Param())
    assert tree == twin and hash(tree) == hash(twin)
    assert tree != Sub(IntPow(VarX(), 3), Param())
    assert parse_expression("x^2 - E") == tree
    assert repr(tree) == "Sub(left=IntPow(base=VarX(), exponent=2), right=Param())"
    assert copy.deepcopy(tree) == tree
    assert pickle.loads(pickle.dumps(tree)) == tree
    # equal nodes make equal problems, and different nodes different ones
    spec = ProblemSpec.from_strings("2*x", "1 - E")
    assert spec == ProblemSpec.from_strings("2*x", "1 - E")
    assert spec != ProblemSpec.from_strings("2*E", "1 - x")


@pytest.mark.parametrize(
    "node, field",
    [(Const(1.0), "value"), (Neg(VarX()), "operand"), (Add(VarX(), Param()), "left"),
     (IntPow(VarX(), 2), "exponent")],
)
def test_expression_nodes_refuse_assignment(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, Const(2.0))


@pytest.mark.parametrize("exponent", [-1, 2.0])
def test_intpow_rejects_bad_exponent(exponent):
    with pytest.raises(ValidationError):
        IntPow(VarX(), exponent)


def test_expression_nodes_take_their_fields_positionally():
    assert Add(VarX(), Param()).right == Param()
    with pytest.raises(TypeError):
        Add(VarX())
    with pytest.raises(TypeError):
        Const(1.0, 2.0)
