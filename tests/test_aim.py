"""Iteration ladder against a symbolic oracle and a reference ladder, spectrum checks."""

import dataclasses
import functools
import math
import random
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aimcf import aim
from aimcf.aim import (
    ProblemSpec,
    _ladder,
    _locate,
    _scan_deltas,
    aim_iterate,
    aim_matrix_iterate,
    alpha_at,
    delta_n,
    find_eigenvalues,
    require_array_size,
)
from aimcf.errors import (
    AimError,
    AimWarning,
    ConditioningWarning,
    DegenerateDeltaWarning,
    DepthRecheckWarning,
    GridPointSkippedWarning,
    IndexOutOfRange,
    OrderExhausted,
    Overflow,
    SingularPivot,
    ValidationError,
)
from aimcf.series import _bind, _Shifted, parse_expression, series_from_expr

HO = dict(lambda0="2*x", s0="1 - E", param="E")


def _ho_spec(x0=0.0, order=60, n_max=40):
    return ProblemSpec.from_strings(
        HO["lambda0"], HO["s0"], HO["param"], x0=x0, order=order, n_max=n_max
    )


def _sympy_ladder(lam0_expr, s0_expr, depth):
    """Independent symbolic ladder: L_n = L'_{n-1} + L_0 L_{n-1} + S_{n-1},
    S_n = S'_{n-1} + S_0 L_{n-1}."""
    x = sp.symbols("x")
    lam = [lam0_expr]
    s = [s0_expr]
    for _ in range(depth):
        new_lam = sp.expand(sp.diff(lam[-1], x) + lam0_expr * lam[-1] + s[-1])
        new_s = sp.expand(sp.diff(s[-1], x) + s0_expr * lam[-1])
        lam.append(new_lam)
        s.append(new_s)
    return lam, s


def reference_ladder(spec, param_value, depth):
    """Naive ladder in TaylorSeries arithmetic on the full-order input series."""
    lam0, s0 = spec.series_pair(param_value)
    lam = [lam0]
    s = [s0]
    for _ in range(depth):
        prev_l, prev_s = lam[-1], s[-1]
        lam.append((prev_l.diff() + lam0 * prev_l) + prev_s)
        s.append(prev_s.diff() + s0 * prev_l)
    return lam, s


def _poly_coeffs_about(expr, center, count):
    x, y = sp.symbols("x y")
    shifted = sp.expand(expr.subs(x, y + center))
    poly = sp.Poly(shifted, y)
    out = np.zeros(count)
    for power, coeff in zip(poly.monoms(), poly.coeffs()):
        if power[0] < count:
            out[power[0]] = float(coeff)
    return out


# [DERIVED] generic polynomial coefficients, three ladder rungs via sympy
def test_ladder_matches_symbolic_oracle():
    x = sp.symbols("x")
    lam0 = 1 + 2 * x - x**2
    s0 = 3 * x + x**2
    center = sp.Rational(3, 10)
    spec = ProblemSpec.from_strings(
        "1 + 2*x - x^2", "3*x + x^2 + 0*E", "E", x0=0.3, order=30, n_max=3
    )
    seqs = aim_iterate(spec, 0.0)
    sym_lam, sym_s = _sympy_ladder(lam0, s0, 3)
    for n in range(4):
        avail = seqs.lam[n].order + 1
        want_l = _poly_coeffs_about(sym_lam[n], center, avail)
        want_s = _poly_coeffs_about(sym_s[n], center, avail)
        np.testing.assert_allclose(seqs.lam[n].coeffs, want_l, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(seqs.s[n].coeffs, want_s, rtol=1e-12, atol=1e-12)


# [DERIVED] hand values: at E=2, x0=0: L1(0)=1, S0(0)=-1, L0(0)=0 -> delta_1 = -1
def test_ho_delta_hand_value():
    spec = _ho_spec(n_max=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        seqs = aim_iterate(spec, 2.0)
    assert delta_n(seqs, 1) == pytest.approx(-1.0, abs=1e-14)


def test_delta_index_bounds():
    spec = _ho_spec(n_max=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        seqs = aim_iterate(spec, 2.0)
    with pytest.raises(IndexOutOfRange):
        delta_n(seqs, 0)
    with pytest.raises(IndexOutOfRange):
        delta_n(seqs, 5)


# [DERIVED] at E = 2k+1 the tail ratios coincide, so delta_n = 0 from n = k on
# (hand check at E=3, x0=0.7: 1.96*(-2) - 1.4*(-2.8) = 0)
def test_termination_deltas_vanish_at_eigenvalues():
    spec = _ho_spec(x0=0.7, order=40, n_max=20)
    for k, energy in ((0, 1.0), (1, 3.0), (2, 5.0)):
        seqs = aim_iterate(dataclasses.replace(spec, n_max=k + 6), energy)
        for n in range(max(1, k), k + 6):
            scale = max(1.0, abs(seqs.lam[n].at_center * seqs.s[n - 1].at_center))
            assert abs(delta_n(seqs, n)) <= 1e-10 * scale, (energy, n)
    # below the terminating level the determinant is honestly nonzero
    seqs5 = aim_iterate(dataclasses.replace(spec, n_max=8), 5.0)
    assert abs(delta_n(seqs5, 1)) > 1e-6


def test_alpha_singular_pivot_at_vanishing_lambda():
    # at x0 = 0 and E = 3 the first iterate L1 = 4x^2 vanishes at the center
    spec = _ho_spec(n_max=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        seqs = aim_iterate(spec, 3.0)
    with pytest.raises(SingularPivot):
        alpha_at(seqs, 1)


def test_vanishing_leading_coefficient_warns():
    spec = _ho_spec(n_max=2)
    with pytest.warns(ConditioningWarning):
        aim_iterate(spec, 1.0)


def test_problem_spec_validation():
    with pytest.raises(ValidationError):
        ProblemSpec.from_strings("x", "1 - E", "E", x0=0.0, order=2, n_max=1)
    with pytest.raises(ValidationError):
        ProblemSpec.from_strings("x", "1 - E", "E", x0=0.0, order=10, n_max=0)
    # an int past double range must not escape as OverflowError
    for x0 in (math.nan, math.inf, -math.inf, 10**400, -(10**400)):
        with pytest.raises(ValidationError, match="series center must be finite"):
            ProblemSpec.from_strings("x", "1 - E", "E", x0=x0, order=10, n_max=1)


# numpy describes a float64 array of at most sys.maxsize // 8 entries; a
# size past that is an input error, raised before anything is allocated
def test_array_size_rule_boundary():
    top = sys.maxsize // 8
    require_array_size(top, "size")
    with pytest.raises(ValidationError, match="size is too large"):
        require_array_size(top + 1, "size")
    # a series holds order + 1 coefficients
    assert ProblemSpec.from_strings("x", "1 - E", "E", order=top - 1, n_max=1).order == top - 1
    with pytest.raises(ValidationError, match="order is too large"):
        ProblemSpec.from_strings("x", "1 - E", "E", order=top, n_max=1)
    with pytest.raises(ValidationError, match="grid_points is too large"):
        find_eigenvalues(_ho_spec(), 0.0, 1.0, top + 1)


# [TRIVIAL] first table column holds the input coefficient pair
def test_table_first_column_is_input_pair():
    spec = _ho_spec(x0=0.5, order=30, n_max=10)
    tab = aim_matrix_iterate(spec, 2.0, m_max=10)
    lam0, s0 = spec.series_pair(2.0)
    np.testing.assert_allclose(tab[:, 0, 0], lam0.coeffs[:11])
    np.testing.assert_allclose(tab[:, 0, 1], s0.coeffs[:11])


def test_table_budget_precondition():
    spec = _ho_spec(x0=0.5, order=30, n_max=20)
    with pytest.raises(OrderExhausted):
        aim_matrix_iterate(spec, 2.0, m_max=20)


# float-identical agreement between the coefficient table and the reference
def test_table_matches_series_route_exactly():
    spec = ProblemSpec.from_strings(
        "2*x", "1 - E", "E", x0=0.25, order=64, n_max=30
    )
    ref_l, ref_s = reference_ladder(spec, 4.7, 30)
    tab = aim_matrix_iterate(spec, 4.7, m_max=30)
    for n in range(31):
        avail = min(30, ref_l[n].order)
        got_l = tab[: avail + 1, n, 0]
        got_s = tab[: avail + 1, n, 1]
        assert np.array_equal(got_l, ref_l[n].coeffs[: avail + 1]), n
        assert np.array_equal(got_s, ref_s[n].coeffs[: avail + 1]), n


def _poly_text(coeffs):
    return " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(coeffs))


poly_coeffs = st.lists(
    st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


# every view of the ladder kernel reproduces the reference bit for bit
@given(
    poly_coeffs,
    poly_coeffs,
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_kernel_views_match_reference_exactly(lam_c, s_c, x0, energy, depth, spare):
    spec = ProblemSpec.from_strings(
        _poly_text(lam_c), _poly_text(s_c) + " - E", "E",
        x0=x0, order=depth + 2 + spare, n_max=depth,
    )
    ref_l, ref_s = reference_ladder(spec, energy, depth)
    lam_at = np.array([t.at_center for t in ref_l])
    s_at = np.array([t.at_center for t in ref_s])
    ref_delta = lam_at[1:] * s_at[:-1] - lam_at[:-1] * s_at[1:]
    with warnings.catch_warnings():
        # a near-zero L(x0) only affects alpha, which this test does not read
        warnings.simplefilter("ignore", ConditioningWarning)
        warnings.simplefilter("ignore", RuntimeWarning)
        seqs = aim_iterate(spec, energy)
    m_max = spec.order - depth
    tab = aim_matrix_iterate(spec, energy, m_max=m_max)
    for n in range(depth + 1):
        assert np.array_equal(seqs.lam[n].coeffs, ref_l[n].coeffs), n
        assert np.array_equal(seqs.s[n].coeffs, ref_s[n].coeffs), n
        assert np.array_equal(tab[:, n, 0], ref_l[n].coeffs[: m_max + 1]), n
        assert np.array_equal(tab[:, n, 1], ref_s[n].coeffs[: m_max + 1]), n
    assert np.array_equal(seqs.delta, ref_delta)


def _inputs_at(spec, depth, energy):
    """Input coefficients 0..depth of (L, S) at one parameter value."""
    return tuple(
        series_from_expr(e, energy, spec.x0, depth).coeffs for e in (spec.lambda0, spec.s0)
    )


def _point_deltas(spec, depth, energy):
    """delta[1..depth] at one parameter value by the search's per-point kernel,
    from its evaluator, under its floating-point error state."""
    with np.errstate(over="ignore", invalid="ignore"):
        return aim._evaluator(spec, depth)[1](energy, range(1, depth + 1))


def _scan(spec, depth, energies):
    """delta[1..depth] at each parameter value (one row each) by one batched
    scan of the search's derivative columns, under its floating-point error
    state."""
    with np.errstate(over="ignore", invalid="ignore"):
        columns = aim._evaluator(spec, depth)[0](energies)
        return _scan_deltas(*columns, range(1, depth + 1)).T


def _exact_deltas(l0, s0):
    """delta[1..depth] of the series ladder in exact rational arithmetic on
    the given double input coefficients 0..depth."""
    lam, s = [Fraction(c) for c in l0], [Fraction(c) for c in s0]
    nz_l = [(p, c) for p, c in enumerate(lam) if c]
    nz_s = [(p, c) for p, c in enumerate(s) if c]
    lam_at, s_at = [lam[0]], [s[0]]
    for _ in range(len(l0) - 1):
        m = len(lam) - 1
        lam, s = (
            [(q + 1) * lam[q + 1] + sum(c * lam[q - p] for p, c in nz_l if p <= q) + s[q]
             for q in range(m)],
            [(q + 1) * s[q + 1] + sum(c * lam[q - p] for p, c in nz_s if p <= q)
             for q in range(m)],
        )
        lam_at.append(lam[0])
        s_at.append(s[0])
    return [lam_at[i + 1] * s_at[i] - lam_at[i] * s_at[i + 1] for i in range(len(l0) - 1)]


def _cross_terms(l0, s0):
    """|L|[i+1] |S|[i] + |L|[i] |S|[i+1] of the ladder on absolute input
    coefficients, which scale the rounding error of any summation order
    (Higham 2002, section 3.1)."""
    lam_abs, s_abs = _ladder(np.abs(l0), np.abs(s0), l0.size - 1)[2]
    return lam_abs[1:] * s_abs[:-1] + lam_abs[:-1] * s_abs[1:]


# the solver's deltas, from the derivative recurrence on inputs trimmed to
# depth + 1 coefficients, lie within 1e-13 of the absolute-input cross terms
# of the exact series ladder on the same double inputs; 1e-250 more allows
# for gradual underflow below 1e-308 (tiny E or coefficients), which loses
# at most 5e-324 per operation, amplified no more than the ladder's growth
@example(lam_c=[0.0], s_c=[0.0], x0=0.0, energy=1.9592803825227268e-252, depth=1)
@given(
    poly_coeffs,
    poly_coeffs,
    st.floats(min_value=-1, max_value=1),
    st.floats(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=30),
)
@settings(max_examples=40, deadline=None)
def test_delta_vector_matches_exact_ladder(lam_c, s_c, x0, energy, depth):
    spec = ProblemSpec.from_strings(
        _poly_text(lam_c), _poly_text(s_c) + " - E", "E",
        x0=x0, order=depth + 2, n_max=depth,
    )
    l0, s0 = _inputs_at(spec, depth, energy)
    got = _point_deltas(spec, depth, energy)
    exact = _exact_deltas(l0, s0)
    bound = 1e-13 * _cross_terms(l0, s0) + 1e-250
    for i in range(depth):
        assert abs(Fraction(got[i]) - exact[i]) <= Fraction(bound[i]), i


def _bits(values):
    """The bits of each double, so that -0.0 and 0.0 differ."""
    return np.array(values, dtype=float).view(np.int64)


# the batched scan kernel: a row's values do not depend on the points that
# share its pass and equal the per-point kernel's bit for bit, whether E
# enters S alone or L too; and delta stays exactly 0 when S vanishes
# identically.  Each kernel forms the pair (n, n + 2) that the search reads
# as the same bits as columns n and n + 2 of its own whole row, signed
# zeros included, also where neither side depends on E (both at the first
# value only), so that one column serves every point.  The examples: the
# bench quartic at x0 = 0, where every column is one-sided, so the batched
# pass skips a side of each; at x0 = 0.7, where columns 0 and 1 are
# two-sided; and at x0 = 0.5 with E = 0.8125, the value of x^4 - 9 x^2 + 3
# there, exact in binary, so the S side of column 0 is zero in that one row
# only: the per-point kernel skips it there, the batched pass does not
# (with E in L as well, L varies over the points there)
QUARTIC_C = {"lam_c": [0.0, 6.0], "s_c": [3.0, 0.0, -9.0, 0.0, 1.0]}


@example(
    lam_c=[0.0, 2.0], s_c=[1.0], x0=0.0, energies=[1.0, 3.0, 1.0], depth=30, n=28, e_in_l=False
)
@example(
    **QUARTIC_C, x0=0.0, energies=[1.06, 3.8, 7.46, 11.64, 0.3], depth=40, n=38, e_in_l=False
)
@example(**QUARTIC_C, x0=0.7, energies=[1.06, 3.8, -2.5], depth=40, n=38, e_in_l=False)
@example(**QUARTIC_C, x0=0.5, energies=[2.0, 0.8125, -1.0], depth=40, n=38, e_in_l=False)
@example(**QUARTIC_C, x0=0.5, energies=[2.0, 0.8125, -1.0], depth=40, n=38, e_in_l=True)
@given(
    poly_coeffs,
    poly_coeffs,
    st.floats(min_value=-1, max_value=1),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=28),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_scan_kernel_matches_per_point_kernel(lam_c, s_c, x0, energies, depth, n, e_in_l):
    spec = ProblemSpec.from_strings(
        _poly_text(lam_c) + (" + E*x" if e_in_l else ""), _poly_text(s_c) + " - E", "E",
        x0=x0, order=depth + 2, n_max=depth,
    )
    columns, deltas_at = aim._evaluator(spec, depth)
    # S = 0 E beside the same L: every S row is zero at every value
    zero_s = aim._evaluator(dataclasses.replace(spec, s0=parse_expression("0*E")), depth)[0]
    row = range(1, depth + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scan = columns(energies)
        batch = _scan_deltas(*scan, row).T
        assert batch.shape == (len(energies), depth)
        for i, e in enumerate(energies):
            assert np.array_equal(batch[i], _scan_deltas(*columns([e]), row)[:, 0]), i
            assert np.array_equal(batch[i], deltas_at(e, row)), i
        assert np.array_equal(_scan_deltas(*zero_s(energies), row).T, np.zeros_like(batch))
        if n + 2 <= depth:
            pair = (n, n + 2)
            want = batch[:, [n - 1, n + 1]].T
            assert np.array_equal(_bits(_scan_deltas(*scan, pair)), _bits(want))
            first = _scan_deltas(*columns(energies[:1]), pair)
            assert np.array_equal(_bits(first), _bits(want[:, :1]))
            for e in energies:
                whole = deltas_at(e, row)
                assert np.array_equal(
                    _bits(deltas_at(e, pair)), _bits([whole[n - 1], whole[n + 1]])
                ), e


def _binomial_rows(width):
    """C(k, 0..k) for k < width from ``math.comb``, each exact integer
    correctly rounded to a double, or inf past double range: the reference
    loops' own rows, formed apart from the term plans they check."""

    def rounded(n):
        try:
            return float(n)
        except OverflowError:
            return math.inf

    return [tuple(rounded(math.comb(k, t)) for t in range(k + 1)) for k in range(width)]


def _two_solution_deltas(binom, dl, ds, depths, orders=None):
    """delta[d], d in ``depths``, by the fused loop that carries u_a and u_b
    side by side whatever the parity of L and S: the per-point kernel's
    route off a symmetric centre, kept here as the reference for the
    one-solution route at one.  It sums over the ascending ``orders``, by
    default those where L or S is nonzero."""
    width = len(dl)
    if orders is None:
        orders = [t for t in range(width) if dl[t] or ds[t]]
    terms = [(t, dl[t], ds[t]) for t in orders]
    ua, ub = [1.0, 0.0], [0.0, 1.0]
    for k in range(width):
        row = binom[k]
        a = b = 0.0
        for t, l, s in terms:
            if t > k:
                break
            c, j = row[t], k - t
            if not l:
                a += c * (s * ua[j])
                b += c * (s * ub[j])
            elif not s:
                a += c * (l * ua[j + 1])
                b += c * (l * ub[j + 1])
            else:
                a += c * (l * ua[j + 1] + s * ua[j])
                b += c * (l * ub[j + 1] + s * ub[j])
        ua.append(a)
        ub.append(b)
    return [ub[d + 2] * ua[d + 1] - ub[d + 1] * ua[d + 2] for d in depths]


def _columns_at(columns, e):
    """The derivatives of L and S at one parameter value, as Python lists."""
    co = [float(c if isinstance(c, float) else c[0]) for c in columns([e])[1]]
    return co[: len(co) // 2], co[len(co) // 2 :]


# at a symmetric centre, L odd and S even about x0 = 0, u_a is even and u_b
# odd, and both kernels run one solution, v = u_a + u_b: every delta equals
# the two-solution loop's bit for bit, signed zeros included, or both
# kernels raise Overflow where it is not finite.  The examples: the bench
# quartic, and S = 0 at E = 0, where u_a = 1, 0, 0, ... and every delta is
# +0.0 (0.0 - x, not -x, keeps that sign)
@example(lam_c=[6.0], s_c=[3.0, -9.0, 1.0], energies=[1.06, 3.8, 7.46, 11.64, 0.3], depth=40)
@example(lam_c=[2.0], s_c=[0.0], energies=[0.0, 1.0], depth=12)
@given(
    poly_coeffs,  # of x, x^3, x^5, x^7
    poly_coeffs,  # of 1, x^2, x^4, x^6
    st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=40, deadline=None)
def test_symmetric_centre_kernels_match_two_solution_loop(lam_c, s_c, energies, depth):
    odd = " + ".join(f"({c!r})*x^{2 * k + 1}" for k, c in enumerate(lam_c))
    even = " + ".join(f"({c!r})*x^{2 * k}" for k, c in enumerate(s_c))
    spec = ProblemSpec.from_strings(
        odd, even + " - E", "E", x0=0.0, order=depth + 2, n_max=depth
    )
    columns, deltas_at = aim._evaluator(spec, depth)
    binom, row = _binomial_rows(depth + 1), range(1, depth + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        want = [_two_solution_deltas(binom, *_columns_at(columns, e), row) for e in energies]
        if not np.isfinite(want).all():
            with pytest.raises(Overflow):
                _scan_deltas(*columns(energies), row)
            return
        assert np.array_equal(_bits(_scan_deltas(*columns(energies), row).T), _bits(want))
        for e, values in zip(energies, want):
            assert np.array_equal(_bits(deltas_at(e, row)), _bits(values)), e


# S = x^2 - E + (E - 3) x is even about x0 = 0 at E = 3 only, so on this
# grid the batched pass runs both solutions and the per-point kernel at
# E = 3 runs one: the two routes agree bit for bit there
def test_mixed_route_grid_matches_per_point_kernel():
    spec = ProblemSpec.from_strings(
        "2*x", "x^2 - E + (E - 3)*x", "E", x0=0.0, order=42, n_max=40
    )
    columns, deltas_at = aim._evaluator(spec, 40)
    binom, row = _binomial_rows(41), range(1, 41)
    energies = [1.0, 3.0, 5.5]
    with np.errstate(over="ignore", invalid="ignore"):
        dl, ds = _columns_at(columns, 3.0)
        assert not any(dl[0::2]) and not any(ds[1::2])  # symmetric at E = 3
        assert any(_columns_at(columns, 1.0)[1][1::2])  # and not at E = 1
        batch = _scan_deltas(*columns(energies), row)[:, 1]
        assert np.array_equal(_bits(batch), _bits(deltas_at(3.0, row)))
        assert np.array_equal(_bits(batch), _bits(_two_solution_deltas(binom, dl, ds, row)))


def _reference_point_deltas(binom, dl, ds, orders, depths):
    """delta[d], d in ``depths``, by the per-point kernel's loops as they ran
    before the term plan: the term structure worked out on every call from the
    derivative lists ``dl`` and ``ds`` at the ascending ``orders``.  The
    reference of ``aim._delta_recurrence``."""
    width = len(dl)
    terms = [(t, dl[t], ds[t]) for t in orders]
    if not any(s if t % 2 else l for t, l, s in terms):
        sides = [(t, t - 1, l) if l else (t, t, s) for t, l, s in terms]
        v = [1.0, 1.0]
        for k in range(width):
            row = binom[k]
            a = 0.0
            for t, back, c in sides:
                if t > k:
                    break
                a += row[t] * (c * v[k - back])
            v.append(a)
        delta = [v[d + 2] * v[d + 1] - 0.0 if d % 2 else 0.0 - v[d + 1] * v[d + 2] for d in depths]
    else:
        delta = _two_solution_deltas(binom, dl, ds, depths, orders)
    if not all(map(math.isfinite, delta)):
        raise Overflow("termination quantity overflows double range")
    return delta


def _reference_scan_deltas(dl, ds, depths):
    """delta[d], d in ``depths``, at each point of ``(width, points)``
    derivative columns by the batched kernel's loop as it ran before the term
    plan, its term structure worked out on every call.  The reference of
    ``aim._scan_deltas``."""
    width, points = dl.shape
    binom = _binomial_rows(width)
    dl_on, ds_on = dl.any(axis=1).tolist(), ds.any(axis=1).tolist()
    terms = [
        (t, dl[t] if dl_on[t] else None, ds[t] if ds_on[t] else None)
        for t in range(width)
        if dl_on[t] or ds_on[t]
    ]
    symmetric = not any(ds_on[t] if t % 2 else dl_on[t] for t in range(width))
    u = np.zeros((width + 2, 1 if symmetric else 2, points))
    u[0, 0] = u[1, -1] = 1.0
    term, part = np.empty(u.shape[1:]), np.empty(u.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(width):
            row, acc = binom[k], u[k + 2]
            for t, l, s in terms:
                if t > k:
                    break
                if l is None:
                    np.multiply(s, u[k - t], out=term)
                else:
                    np.multiply(l, u[k + 1 - t], out=term)
                    if s is not None:
                        term += np.multiply(s, u[k - t], out=part)
                if 0 < t < k:
                    term *= row[t]
                acc += term
        ua, ub = u[:, 0], u[:, -1]
        delta = np.array([
            ua[d + 2] * ua[d + 1] - 0.0 if d % 2 else 0.0 - ua[d + 1] * ua[d + 2]
            for d in depths
        ] if symmetric else [ub[d + 2] * ua[d + 1] - ub[d + 1] * ua[d + 2] for d in depths])
    if not np.isfinite(delta).all():
        raise Overflow("termination quantity overflows double range")
    return delta


def _reference_inputs(spec, order, energies):
    """The inputs of the reference kernels for one search's evaluator at
    ``order``: the binomial rows; the derivative lists t! c[t] of L and S at
    each value, each from the series of that value alone; and the orders the
    per-point kernel ran over at each value, fixed but for order 0 where
    neither side needs a row stack, else the nonzero ones."""
    binom, (mant, exp) = _binomial_rows(order + 1), aim._tables(order + 1)

    def derivatives(coeffs):
        return np.ldexp(mant * coeffs, exp).tolist()

    def fixed(side):
        if isinstance(side, np.ndarray):
            return derivatives(side)
        if isinstance(side, _Shifted):
            return [0.0, *np.ldexp(mant[1:] * side.tail, exp[1:]).tolist()]
        return None

    sides = [fixed(_bind(e, spec.x0, order)) for e in (spec.lambda0, spec.s0)]
    at = [
        [derivatives(series_from_expr(e, value, spec.x0, order).coeffs) for value in energies]
        for e in (spec.lambda0, spec.s0)
    ]
    width = order + 1
    if None in sides:
        orders = [[t for t in range(width) if dl[t] or ds[t]] for dl, ds in zip(*at)]
    else:
        fixed_orders = [t for t in range(width) if t == 0 or sides[0][t] or sides[1][t]]
        orders = [fixed_orders] * len(energies)
    return binom, at[0], at[1], orders


coefficient = st.one_of(
    st.just(0.0),
    st.floats(min_value=-4, max_value=4),
    st.builds(lambda sign, p: sign * 10.0**p, st.sampled_from([-1.0, 1.0]), st.integers(0, 16)),
)


# both delta kernels run a term plan built once per term structure; they
# give the bits of their loops as they ran before the plan, which worked the
# structure out on every call, or raise Overflow where those loops do.  The
# draws: a symmetric centre (L odd and S even about x0 = 0) or an off-centre
# x0; E in S's constant term, in L's (a mixed route at a symmetric centre,
# symmetric only where L(x0) + E is 0) or in a product (a side that varies
# beyond row 0); coefficients that are zero, small or up to 1e16, so that
# deep ladders overflow; a value where the constant term that E enters is
# exactly zero; grids of 1 to 60 points and depths 1 to 45, all at once and
# as the search's pair (n, n + 2).  x0 is 0 wherever the centre is symmetric
@example(
    lam=[6.0], s=[3.0, -9.0, 1.0], symmetric=True, x0=0.7, where="S",
    energies=[1.06, 3.8, 7.46, 11.64, 0.3], zero=True, depth=42, n=40,
)
@example(
    lam=[2.0, -1.0], s=[0.0, 1.0], symmetric=False, x0=-1.5, where="S",
    energies=[0.5, 2.0, 9.0], zero=True, depth=42, n=40,
)
@given(
    lam=st.lists(coefficient, min_size=1, max_size=4),
    s=st.lists(coefficient, min_size=1, max_size=4),
    symmetric=st.booleans(),
    x0=st.sampled_from([0.7, -1.5, 0.35]),
    where=st.sampled_from(["S", "L", "product"]),
    energies=st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=60),
    zero=st.booleans(),
    depth=st.integers(min_value=1, max_value=45),
    n=st.integers(min_value=1, max_value=43),
)
@settings(max_examples=60, deadline=None)
def test_kernels_match_the_reference_loops(lam, s, symmetric, x0, where, energies, zero, depth, n):
    if symmetric:
        x0 = 0.0
        lam_text = " + ".join(f"({c!r})*x^{2 * k + 1}" for k, c in enumerate(lam))
        s_text = " + ".join(f"({c!r})*x^{2 * k}" for k, c in enumerate(s))
    else:
        lam_text, s_text = _poly_text(lam), _poly_text(s)
    e_text = {"S": (lam_text, f"{s_text} - E"), "L": (f"{lam_text} + E", s_text),
              "product": (lam_text, f"{s_text} - E*x^2")}[where]
    spec = ProblemSpec.from_strings(*e_text, "E", x0=x0, order=depth + 2, n_max=depth)
    if zero and where != "product":
        # the value where the constant term that E enters is exactly zero
        side = spec.s0 if where == "S" else spec.lambda0
        head = _bind(side, x0, depth).head
        energies = [*energies[:-1], next(e for e in (head(0.0), -head(0.0)) if head(e) == 0.0)]
    with np.errstate(over="ignore", invalid="ignore"):
        binom, dls, dss, orders = _reference_inputs(spec, depth, energies)
        columns, deltas_at = aim._evaluator(spec, depth)
        for depths in (range(1, depth + 1), (n, n + 2) if n + 2 <= depth else (depth,)):
            for e, dl, ds, terms in zip(energies, dls, dss, orders):
                want = _outcome(lambda: _reference_point_deltas(binom, dl, ds, terms, depths))
                assert _outcome(deltas_at, e, depths) == want, e
            columns_ref = [np.array(side).T.copy() for side in (dls, dss)]
            want = _outcome(lambda: _reference_scan_deltas(*columns_ref, depths))
            assert _outcome(lambda: _scan_deltas(*columns(energies), depths)) == want


# parameter-free text over x: sums, differences, products, integer powers
# and quotients by 1.5 + y^2, whose constant term is never below 1.5
free_text = st.recursive(
    st.one_of(st.just("x"), st.floats(min_value=-4, max_value=4).map(lambda c: f"({c!r})")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"({t[0]}) / (1.5 + ({t[1]})^2)"),
    ),
    max_leaves=5,
)
# text in which E enters only through sums, differences and negations
path_text = st.recursive(
    st.just("E"),
    lambda inner: st.one_of(
        inner.map(lambda a: f"-({a})"),
        st.tuples(inner, st.sampled_from("+-"), st.one_of(free_text, inner)).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(free_text, st.sampled_from("+-"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
    ),
    max_leaves=4,
)
# sides of S that keep the stacked route: E under a product, an integer
# power or a quotient, or beside an operand that fails to bind
STACKED_SIDES = ("E*x", "(x - E)^2", "1/(E + x^2)", "1 - 1e-300*E", "1/(x - x) - E")


def _outcome(f, *args):
    """The bits of ``f(*args)``, or the type and text of the AimError it raises."""
    try:
        return _bits(f(*args)).tolist()
    except AimError as exc:
        return type(exc), str(exc)


def _stacked_evaluator(spec, order):
    """``aim._evaluator`` with every record taken through its row stack, at
    every value: the reference of the constant-term route."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(aim, "_Shifted", type("NoRecord", (), {}))
        return aim._evaluator(spec, order)


# the constant-term route of the per-point kernel: where E enters S (and L,
# if at all) only through sums, differences and negations, S binds to a
# record, a value evaluated binds no row stack, and its deltas are the
# stacked route's and the batched scan's bit for bit, or it raises the same
# error; any other S keeps the stacked route.  At x0 = 0 the two bench
# problems are symmetric
@example(lambda0="2*x", s0="1 - E", x0=0.0, energies=[1.0, 2.5, 3.0], depth=40)
@example(lambda0="6*x", s0="x^4 - 9*x^2 + 3 - E", x0=0.0, energies=[1.06, 7.46], depth=40)
@example(lambda0="2*x", s0=STACKED_SIDES[0], x0=0.35, energies=[0.5, 2.0], depth=12)
@example(lambda0="2*x", s0=STACKED_SIDES[1], x0=0.0, energies=[0.5, 2.0], depth=12)
@example(lambda0="2*x", s0=STACKED_SIDES[2], x0=0.35, energies=[0.0, 2.0], depth=12)
@example(lambda0="2*x", s0=STACKED_SIDES[3], x0=0.0, energies=[0.5, 2.0], depth=12)
@example(lambda0="2*x", s0=STACKED_SIDES[4], x0=0.35, energies=[0.5, 2.0], depth=12)
@given(
    lambda0=st.one_of(free_text, path_text),
    s0=path_text,
    x0=st.sampled_from([0.0, 0.35]),
    energies=st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=5),
    depth=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=60, deadline=None)
def test_constant_term_route_matches_stacked_route(lambda0, s0, x0, energies, depth):
    spec = ProblemSpec.from_strings(lambda0, s0, "E", x0=x0, order=depth + 2, n_max=depth)
    routed = s0 not in STACKED_SIDES
    row = range(1, depth + 1)
    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        with np.errstate(over="ignore", invalid="ignore"):
            assert isinstance(_bind(spec.s0, x0, depth), _Shifted) == routed
            stacked_at = _stacked_evaluator(spec, depth)[1]
            want = [_outcome(stacked_at, e, row) for e in energies]
            log = _record_evaluations(monkeypatch)
            columns, deltas_at = aim._evaluator(spec, depth)
            try:
                scan = columns(energies)
            except AimError:  # an operand that fails to bind: every value fails
                assert not routed
                scan = None
            grid_binds = len(log["bound"])
            assert [_outcome(deltas_at, e, row) for e in energies] == want
            assert (len(log["bound"]) == grid_binds) == routed
            if scan is not None:
                scan = _outcome(lambda: _scan_deltas(*scan, row).T)
                if all(isinstance(w, list) for w in want):
                    assert scan == want
                else:
                    assert scan == (Overflow, "termination quantity overflows double range")


# the constant-term route raises where a row stack bound for the value does:
# S = 1e308 - E is 0 at E = 1e308 and leaves double range at E = -1e308.
# S = (1e308 + E) + 1e308 leaves it at E = 0 but not at E = -1.5e308, where
# only the termination quantity overflows: binding evaluates no constant
# term, and a value evaluated before any grid gives the stacked outcome
def test_constant_term_overflow_raises_as_the_row_stack_does():
    spec = ProblemSpec.from_strings("2*x", "1e308 - E", "E", x0=0.0, order=12, n_max=10)
    stacked_at = _stacked_evaluator(spec, 12)[1]
    columns, deltas_at = aim._evaluator(spec, 12)
    message = "^series coefficients overflowed double precision$"
    with np.errstate(over="ignore", invalid="ignore"):
        columns([1e308])
        assert deltas_at(1e308, (10, 12)) == [0.0, 0.0]
        for evaluate in (deltas_at, stacked_at):
            with pytest.raises(Overflow, match=message):
                evaluate(-1e308, (10, 12))
        spec = ProblemSpec.from_strings(
            "2*x", "(1e308 + E) + 1e308", "E", x0=0.0, order=12, n_max=10
        )
        assert isinstance(_bind(spec.s0, 0.0, 12), _Shifted)
        stacked_at = _stacked_evaluator(spec, 12)[1]
        deltas_at = aim._evaluator(spec, 12)[1]
        want = (Overflow, "termination quantity overflows double range")
        assert _outcome(deltas_at, -1.5e308, (10, 12)) == want
        assert _outcome(stacked_at, -1.5e308, (10, 12)) == want
        for evaluate in (deltas_at, stacked_at):
            with pytest.raises(Overflow, match=message):
                evaluate(0.0, (10, 12))


# where rows past the constant one leave double range at a node on the path
# to E, S = (1e308 x + E) + 1e308 x, S binds to no record, the grid fails to
# bind and the first value evaluated alone raises; where a parameter-free
# operand on the path fails to bind, 1/(x - x), the search skips every grid
# point
def test_path_operands_that_fail_keep_the_stacked_route(monkeypatch):
    grid = np.linspace(0.0, 3.0, 7).tolist()
    spec = ProblemSpec.from_strings(
        "2*x", "(1e308*x + E) + 1e308*x", "E", x0=0.0, order=12, n_max=10
    )
    with np.errstate(over="ignore", invalid="ignore"):
        assert not isinstance(_bind(spec.s0, 0.0, 12), (np.ndarray, _Shifted))
    log = _record_evaluations(monkeypatch)
    with pytest.raises(Overflow, match="^series coefficients overflowed double precision$"):
        find_eigenvalues(spec, 0.0, 3.0, 7, tol=1e-10)
    assert (log["batch"], log["point"], log["kernel"]) == ([grid], grid[:1], 0)
    spec = ProblemSpec.from_strings("2*x", "1/(x - x) - E", "E", x0=0.0, order=12, n_max=10)
    assert not isinstance(_bind(spec.s0, 0.0, 12), (np.ndarray, _Shifted))
    found, caught = _recorded_search(spec, 0.0, 3.0, 7, tol=1e-10)
    assert found == []
    assert [category for category, _ in caught] == [GridPointSkippedWarning] * 7 + [
        DegenerateDeltaWarning
    ]


# a grid point whose inputs cannot be evaluated drops out of the batched
# scan with one warning, and the rest of the grid is still searched
def test_singular_grid_point_is_skipped_with_warning():
    spec = ProblemSpec.from_strings(
        "2*x", "(1 - E)*(E - 2)/(E - 2)", "E", x0=0.0, order=60, n_max=30
    )
    with pytest.warns(GridPointSkippedWarning) as record:
        roots = find_eigenvalues(spec, 0.5, 5.5, 21, tol=1e-11)
    skipped = [w for w in record if issubclass(w.category, GridPointSkippedWarning)]
    assert len(skipped) == 1
    assert "E = 2 " in str(skipped[0].message)
    np.testing.assert_allclose([r.value for r in roots], [1, 3, 5], rtol=0, atol=1e-8)


def _recorded_search(spec, *args, **kwargs):
    """Roots and the (category, text) of every warning of one search."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        roots = find_eigenvalues(spec, *args, **kwargs)
    return roots, [(w.category, str(w.message)) for w in caught]


def _bind_one_value_at_a_time(monkeypatch):
    """Make every row stack of a bound parameter side, and every constant term
    of a record, on more than one value fail, so that a search evaluates its
    grid point by point; returns the list of refused calls, which a search
    that reaches this seam fills."""
    rows, checked, refused = aim._rows, aim._checked, []

    def refuse(values):
        if len(values) > 1:
            refused.append(len(values))
            raise SingularPivot("bound one value at a time")

    def rows_one_at_a_time(side, values):
        refuse(values)
        return rows(side, values)

    def checked_one_at_a_time(values):
        refuse(values)
        return checked(values)

    monkeypatch.setattr(aim, "_rows", rows_one_at_a_time)
    monkeypatch.setattr(aim, "_checked", checked_one_at_a_time)
    return refused


# the batched scan falls back to the per-point kernel when binding the grid
# fails, so the skipped points, the warning texts in their order and the
# roots are those of a search that evaluates every grid point alone
def test_skipped_grid_point_search_equals_point_by_point_search(monkeypatch):
    spec = ProblemSpec.from_strings(
        "2*x", "(1 - E)*(E - 2)/(E - 2)", "E", x0=0.0, order=60, n_max=30
    )
    batched = _recorded_search(spec, 0.5, 5.5, 21, tol=1e-11)
    refused = _bind_one_value_at_a_time(monkeypatch)
    per_point = _recorded_search(spec, 0.5, 5.5, 21, tol=1e-11)
    assert refused == [21]
    assert batched == per_point
    skipped = [text for category, text in batched[1] if category is GridPointSkippedWarning]
    assert skipped == ["grid point E = 2 skipped: divisor constant term 0.0 below 1e-300"]


# the two solve problems of the benchmark: (L, S, e_min, e_max, grid points)
BENCH = {
    "oscillator": ("2*x", "1 - E", 0.0, 12.0, 101),
    "quartic": ("6*x", "x^4 - 9*x^2 + 3 - E", 0.3, 12.3, 401),
}


def _bench_search(name):
    """The spec and (e_min, e_max, grid points) of a benchmark problem at x0 = 0,
    order 80, depth 40, on its grid shifted by 0.37 of a cell."""
    lambda0, s0, e_min, e_max, points = BENCH[name]
    spec = ProblemSpec.from_strings(lambda0, s0, "E", x0=0.0, order=80, n_max=40)
    shift = 0.37 * (e_max - e_min) / (points - 1)
    return spec, (e_min + shift, e_max + shift, points)


# the parameter under a product, a quotient and an integer power, and the
# benchmark problems on their full grids: a grid scanned in one batch gives
# the roots, residuals and warnings of a grid evaluated point by point, bit
# for bit
# (reprs of doubles round-trip, and tell -0.0 from 0.0)
@pytest.mark.parametrize(
    "spec, search",
    [
        pytest.param(
            ProblemSpec.from_strings(lambda0, s0, "E", x0=0.1, order=22, n_max=20),
            (0.3, 9.3, 31),
            id=f"{lambda0}-{s0}",
        )
        for lambda0, s0 in [
            ("2*x", "(1 - E)*(2 + x)/(2 + x)"),
            ("2*x", "1 - E - (E*x)^2/(3 + x)^2"),
            ("2*x - E*x^3/(4 + E)", "x^2 - E"),
        ]
    ]
    + [pytest.param(*_bench_search(name), id=f"bench-{name}") for name in BENCH],
)
def test_batched_search_equals_point_by_point_search(monkeypatch, spec, search):
    batched = _recorded_search(spec, *search, tol=1e-10)
    refused = _bind_one_value_at_a_time(monkeypatch)
    assert repr(_recorded_search(spec, *search, tol=1e-10)) == repr(batched)
    assert refused == [search[2]]
    assert batched[0]


# a side free of E enters the scan as one derivative column that broadcasts
# over the grid, and with E on neither side the search evaluates one value
# (test_e_free_search_evaluates_once); the roots, residuals and warnings
# were recorded on the search that broadcast such a side to one row per
# grid point
@pytest.mark.parametrize(
    "lambda0, s0, roots, categories",
    [
        ("2*x", "0", [], [DegenerateDeltaWarning]),
        ("2*x", "1", [], []),
        (
            "2*x",
            "1 - E",
            [
                (1.0, 0.0),
                (2.9999999999999996, 1.3322676295501878e-15),
                (5.000000000000001, 8.881784197001252e-16),
                (6.999999999999998, 8.881784197001252e-16),
                (9.000000000000002, 1.7763568394002505e-15),
            ],
            [],
        ),
        (
            "2*x - E*x^3/(4 + E)",
            "x^2 + 1",
            [
                (1.143617973239067, 0.20806338778646505),
                (1.8769626741102348, 0.12335857076053314),
                (2.45795665373877, math.inf),
                (8.45279881184011, math.inf),
            ],
            [DepthRecheckWarning, DepthRecheckWarning],
        ),
    ],
    ids=["no-E-zero-S", "no-E", "E-free-L", "E-free-S"],
)
def test_e_free_sides_keep_their_outcomes(lambda0, s0, roots, categories):
    spec = ProblemSpec.from_strings(lambda0, s0, "E", x0=0.3, order=22, n_max=20)
    found, caught = _recorded_search(spec, 0.3, 9.3, 31, tol=1e-10)
    assert [(r.value, r.residual) for r in found] == roots
    assert [category for category, _ in caught] == categories


# with E on neither side delta[n] is one value at every E, so the search
# evaluates it once, by the per-point kernel, and finds no root: it warns
# where |delta[n]| < EPS_PIVOT (0, or -1e-313 at n_max 8), and raises
# Overflow where delta[n] or only delta[n + 2] leaves double range (at
# n_max 8, delta[8] = -1e270 and delta[10] overflows).  A side that stays
# unbound because it raises (1/(x - x)) still goes point by point, and
# each grid point is skipped
@pytest.mark.parametrize(
    "s0, n_max, categories",
    [
        ("0", 20, [DegenerateDeltaWarning]),
        ("1e-320", 8, [DegenerateDeltaWarning]),
        ("1", 20, []),
        ("1e30", 8, Overflow),
        ("1e30", 10, Overflow),
        ("1/(x - x)", 20, [GridPointSkippedWarning] * 31 + [DegenerateDeltaWarning]),
    ],
    ids=["zero-S", "tiny-S", "no-E", "deep-overflow", "overflow", "unbound-S"],
)
def test_e_free_search_evaluates_once(monkeypatch, s0, n_max, categories):
    spec = ProblemSpec.from_strings("2*x", s0, "E", x0=0.0, order=n_max + 2, n_max=n_max)
    unbound = s0 == "1/(x - x)"
    log = _record_evaluations(monkeypatch)
    if categories is Overflow:
        with pytest.raises(Overflow, match="termination quantity overflows double range"):
            _recorded_search(spec, 0.3, 9.3, 31, tol=1e-10)
    else:
        found, caught = _recorded_search(spec, 0.3, 9.3, 31, tol=1e-10)
        assert found == []
        assert [category for category, _ in caught] == categories
    assert log["scan_rows"] == []
    assert log["kernel"] == (0 if unbound else 1)
    grid = np.linspace(0.3, 9.3, 31).tolist()
    assert log["batch"] == [grid]
    assert log["point"] == (grid if unbound else grid[:1])
    assert log["bound"] == ([grid] + [[e] for e in grid] if unbound else [])


# [DERIVED] exact spectrum E = 2k+1 of the transformed oscillator equation;
# the roots E = 1, 3, 5, 7, 9 are grid points
def test_ho_spectrum_depth_stability():
    found = {}
    for depth in (40, 44):
        spec = _ho_spec(order=60, n_max=depth)
        roots = find_eigenvalues(spec, 0.0, 9.5, 39, tol=1e-11)
        found[depth] = [r.value for r in roots]
    assert len(found[40]) == len(found[44]) == 5
    np.testing.assert_allclose(found[40], [1, 3, 5, 7, 9], atol=1e-8)
    np.testing.assert_allclose(found[40], found[44], atol=1e-9)


def test_find_eigenvalues_reports_recheck_residuals():
    spec = _ho_spec(order=60, n_max=30)
    roots = find_eigenvalues(spec, 0.0, 4.0, 21, tol=1e-11)
    assert [round(r.value) for r in roots] == [1, 3]
    for r in roots:
        assert r.n_used == 30
        assert r.residual <= 1e-8


def test_find_eigenvalues_rejects_nan_tol():
    spec = _ho_spec(order=60, n_max=20)
    with pytest.raises(ValidationError):
        find_eigenvalues(spec, 0.0, 4.0, 11, tol=float("nan"))


# an infinite tol would end every bracket before its first step and report
# grid-cell midpoints as roots
def test_find_eigenvalues_rejects_infinite_tol():
    spec = _ho_spec(order=60, n_max=20)
    with pytest.raises(ValidationError):
        find_eigenvalues(spec, 0.0, 4.0, 11, tol=float("inf"))


# an empty or reversed range, or a grid of one point, holds no cell to scan;
# a problem file meets the CLI's own e_min < e_max check first
@pytest.mark.parametrize(
    "e_min, e_max, grid, message",
    [
        (4.0, 4.0, 11, "e_min must be < e_max"),
        (4.0, 0.0, 11, "e_min must be < e_max"),
        (0.0, 4.0, 1, "grid_points must be >= 2"),
    ],
)
def test_find_eigenvalues_rejects_empty_range_or_grid(e_min, e_max, grid, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        find_eigenvalues(_ho_spec(order=22, n_max=20), e_min, e_max, grid)


# every value of a search passes the package's one real-number rule before
# any work: a range end or tol that is no finite real, and a grid size that
# is no integer (a bool included), raise ValidationError naming it (these
# raised a bare ValueError or TypeError)
@pytest.mark.parametrize(
    "args, message",
    [
        (("a", 2.0, 11), "e_min must be a real number, got 'a'"),
        ((0.0, None, 11), "e_max must be a real number, got None"),
        ((0.0, 2.0, 2.5), "grid_points must be an integer, got 2.5"),
        ((0.0, 2.0, True), "grid_points must be an integer, got True"),
        ((0.0, 2.0, 11, "x"), "tol must be a real number, got 'x'"),
        ((0.0, 2.0, 11, math.nan), "tol must be finite, got nan"),
        ((0.0, 2.0, 11, -1e-10), "tol must be positive"),
    ],
)
def test_find_eigenvalues_applies_the_real_number_rule(args, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        find_eigenvalues(_ho_spec(order=22, n_max=20), *args)


# a search range that is not finite, or whose width is not, is an input
# error raised before the grid is built (numpy warned and then failed deep
# in the series code)
@pytest.mark.parametrize(
    "e_min, e_max",
    [
        (0.0, math.inf),
        (-math.inf, 1.0),
        (math.nan, 1.0),
        (0.0, math.nan),
        (-1e308, 1e308),
        (np.float64(-1e308), np.float64(1e308)),
    ],
)
def test_find_eigenvalues_rejects_nonfinite_range(e_min, e_max):
    spec = _ho_spec(order=22, n_max=20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite"):
            find_eigenvalues(spec, e_min, e_max, 11, tol=1e-10)


# the scan builds its own order n + 2 series, so the smallest order the spec
# admits (n_max + 2) gives exactly the roots of a much deeper one
def test_find_eigenvalues_at_minimal_order_matches_deep_order():
    roots = {
        order: find_eigenvalues(
            _ho_spec(order=order, n_max=20), 0.1, 8.1, 21, tol=1e-11
        )
        for order in (22, 80)
    }
    assert [round(r.value) for r in roots[80]] == [1, 3, 5, 7]
    assert roots[22] == roots[80]


def test_degenerate_delta_emits_warning_and_empty_result():
    # s0 = 0 kills every S_n, so the termination function vanishes identically
    spec = ProblemSpec.from_strings("2*x", "0*E", "E", x0=0.5, order=20, n_max=10)
    with pytest.warns(DegenerateDeltaWarning):
        roots = find_eigenvalues(spec, 0.0, 2.0, 11, tol=1e-10)
    assert roots == []
    # the grid of test_roots_on_every_grid_point: the off-grid look vanishes
    # too, or (at E = 2, a zero divisor) cannot be evaluated
    for s0, e_max, grid in (("0", 13.0, 7), ("0/(E - 2)", 3.0, 2)):
        spec = ProblemSpec.from_strings("2*x", s0, "E", x0=0.0, order=42, n_max=40)
        with pytest.warns(DegenerateDeltaWarning):
            roots = find_eigenvalues(spec, 1.0, e_max, grid)
        assert roots == []


# every grid point is an eigenvalue, so delta is exactly 0 on the whole grid;
# one off-grid value tells this apart from a delta that vanishes identically
@pytest.mark.parametrize("e_max, grid", [(13.0, 7), (3.0, 2)])
def test_roots_on_every_grid_point(e_max, grid):
    spec = ProblemSpec.from_strings("2*x", "1 - E", "E", x0=0.0, order=42, n_max=40)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateDeltaWarning)
        roots = find_eigenvalues(spec, 1.0, e_max, grid)
    assert [r.value for r in roots] == [float(2 * k + 1) for k in range(grid)]
    assert all(r.residual == 0.0 for r in roots)


# np.linspace repeats 1.0 three times on this range of a few ulps; a cell
# between equal values cannot change sign, so the root is reported once
@pytest.mark.parametrize("x0", [0.0, 0.3])
def test_repeated_grid_values_report_a_root_once(x0):
    spec = ProblemSpec.from_strings("2*x", "1 - E", "E", x0=x0, order=42, n_max=40)
    e_min, e_max = 1 - 2e-16, 1 + 4.4e-16
    assert np.linspace(e_min, e_max, 11).tolist().count(1.0) == 3
    assert find_eigenvalues(spec, e_min, e_max, 11) == [aim.Root(1.0, 0.0, 40)]


# the inputs are finite series, so a non-finite ladder value at x0 can only
# be arithmetic overflow, a numeric failure rather than an input error; the
# last two are symmetric centres whose derivative 40! 1e300 of S or
# 41! 1e300 of L is inf, and the search and both kernels raise the message
# they raised when every point ran both solutions
def test_find_eigenvalues_raises_overflow_when_ladder_overflows():
    message = "termination quantity overflows double range"
    for lambda0, s0, x0, n_max in [
        ("1e200*x", "1 - E", 0.5, 10),
        ("2*x", "1e300*x^40 - E", 0.0, 40),
        ("1e300*x^41", "1 - E", 0.0, 40),
    ]:
        spec = ProblemSpec.from_strings(lambda0, s0, "E", x0=x0, order=n_max + 10, n_max=n_max)
        with pytest.raises(Overflow, match=message):
            find_eigenvalues(spec, 0.0, 4.0, 11, tol=1e-10)
        with pytest.raises(Overflow, match=message):
            _point_deltas(spec, n_max + 2, 1.0)
        with pytest.raises(Overflow, match=message):
            _scan(spec, n_max + 2, [1.0, 2.0])


# L and S stay finite to depth 10, but delta_8 = inf - inf: a product of
# finite ladder values can overflow too
def test_delta_overflow_raises_overflow():
    spec = ProblemSpec.from_strings("1e20", "1 - E", "E", x0=0.0, order=12, n_max=8)
    with pytest.raises(Overflow):
        aim_iterate(spec, 0.5)
    with pytest.raises(Overflow):
        find_eigenvalues(spec, 0.0, 4.0, 11, tol=1e-10)


def _deep_spec(lambda0, s0, depth):
    return ProblemSpec.from_strings(lambda0, s0, "E", x0=0.0, order=depth + 2, n_max=depth)


# deep ladders stay finite where the series ladder does, within 1e-13 of its
# absolute-input cross terms, and the batched kernel equals the per-point
# one; n_max 200 needs t! past 170 (a table cut there raises IndexError), and
# 1/(1000 + x) needs finite derivatives t! l_t where t! itself overflows
@pytest.mark.parametrize(
    "lambda0, s0, energy",
    [("0", "-1 - E", 0.0), ("0.1*x", "-1 - E", 0.5), ("1/(1000 + x)", "-1 - E", 0.0)],
)
def test_deep_ladder_matches_series_ladder(lambda0, s0, energy):
    spec = _deep_spec(lambda0, s0, 200)
    l0, s0 = _inputs_at(spec, 200, energy)
    got = _point_deltas(spec, 200, energy)
    lam_at, s_at = _ladder(l0, s0, 200)[2]
    ref = lam_at[1:] * s_at[:-1] - lam_at[:-1] * s_at[1:]
    assert np.all(np.abs(got - ref) <= 1e-13 * _cross_terms(l0, s0))
    assert np.array_equal(_scan(spec, 200, [energy])[0], got)


# delta_150 = 0.01^151 = 1e-302, as the series ladder gives it; carried as
# Taylor coefficients u(k) / k!, the recurrence underflows to 0 here (abs=0:
# pytest.approx would otherwise accept anything within 1e-12 of 1e-302)
def test_deep_ladder_keeps_tiny_delta():
    spec = _deep_spec("0", "-0.01 - E", 150)
    l0, s0 = _inputs_at(spec, 150, 0.0)
    got = _point_deltas(spec, 150, 0.0)[-1]
    assert got == pytest.approx(1e-302, rel=1e-13, abs=0.0)
    lam_at, s_at = _ladder(l0, s0, 150)[2]
    ref = lam_at[-1] * s_at[-2] - lam_at[-2] * s_at[-1]
    assert ref == pytest.approx(got, rel=1e-13, abs=0.0)


# past n_max 1028 some binomial coefficients C(k, t) leave double range; a
# ladder whose inputs have no such column t still runs: S = -1 gives
# delta = +-1 exactly at every depth
def test_deep_ladder_runs_past_binomial_range():
    spec = _deep_spec("0", "-1 - E", 1040)
    got = _point_deltas(spec, 1040, 0.0)
    assert np.array_equal(np.abs(got), np.ones(1040))
    assert np.array_equal(_scan(spec, 1040, [0.0])[0], got)


# 1/(10 + x) gives finite deltas at n_max 150 and overflows at n_max 200,
# where both kernels raise Overflow, not OverflowError or IndexError, and no
# RuntimeWarning escapes (the suite turns one into a failure)
def test_deep_ladder_overflow_raises_overflow():
    assert np.isfinite(_point_deltas(_deep_spec("1/(10 + x)", "-1 - E", 150), 150, 0.0)).all()
    spec = _deep_spec("1/(10 + x)", "-1 - E", 200)
    with pytest.raises(Overflow):
        _point_deltas(spec, 200, 0.0)
    with pytest.raises(Overflow):
        _scan(spec, 200, [0.0])


# with L = 0 every column is one-sided, so the batched pass skips the L
# side, where 0 * inf = nan would have followed the overflow; u(2j) =
# (-1e20 - E)^j leaves double range by j = 16, and both kernels raise
# Overflow with no RuntimeWarning (the suite turns one into a failure)
def test_one_sided_overflow_raises_overflow():
    spec = _deep_spec("0", "-1e20 - E", 40)
    with pytest.raises(Overflow):
        _point_deltas(spec, 40, 0.0)
    with pytest.raises(Overflow):
        _scan(spec, 40, [0.0])
    with pytest.raises(Overflow):
        _scan(spec, 40, [0.0, -1.0])


# the ladder kernel owns the overflow check, so no view reports an overflow
# as an input error or returns non-finite coefficients; the second spec
# overflows only in coefficient 29 of level 1, which no at-centre value of
# a depth-2 ladder reads (its 1e307 also trips the L(x0) warning)
@pytest.mark.filterwarnings("ignore::aimcf.errors.ConditioningWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "spec",
    [
        ProblemSpec.from_strings("1e200*x", "1 - E", "E", x0=0.5, order=20, n_max=10),
        ProblemSpec.from_strings("1 + 1e307*x^30", "1 - E", "E", x0=0.0, order=40, n_max=2),
    ],
    ids=["at-centre", "last-level"],
)
@pytest.mark.parametrize(
    "view",
    [
        lambda spec: aim_iterate(spec, 1.0),
        lambda spec: aim_matrix_iterate(spec, 1.0, m_max=spec.order - spec.n_max),
    ],
    ids=["aim_iterate", "aim_matrix_iterate"],
)
def test_every_ladder_view_raises_overflow(view, spec):
    with pytest.raises(Overflow):
        view(spec)


# a failed recheck is reported against the caller, like the other search
# warnings, not against the library; the quartic's depth-10 truncation root
# 11.307869 has no depth-12 sign change in its cell or the cell beside it
def test_depth_recheck_warning_points_at_caller():
    spec = ProblemSpec.from_strings(
        "6*x", "x^4 - 9*x^2 + 3 - E", "E", x0=0.0, order=12, n_max=10
    )
    with pytest.warns(DepthRecheckWarning) as record:
        find_eigenvalues(spec, 0.552, 12.552, 41, tol=1e-9)
    assert [w.filename for w in record] == [__file__] * len(record)


# [DERIVED] shifting a 0.25-step grid by part of a cell keeps the spectrum;
# at shift 0 every root is a grid point, where delta is exactly 0 or
# rounding noise of either sign
@example(shift=0.0)
@given(shift=st.floats(min_value=0.0, max_value=0.25, exclude_max=True))
@settings(max_examples=8, deadline=None)
def test_roots_do_not_depend_on_grid_shift(shift):
    spec = _ho_spec(order=60, n_max=40)
    roots = find_eigenvalues(spec, shift, 9.5 + shift, 39, tol=1e-11)
    assert len(roots) == 5
    np.testing.assert_allclose([r.value for r in roots], [1, 3, 5, 7, 9], rtol=0, atol=1e-8)


def _count_point_evals(monkeypatch):
    """Record one entry per parameter value the search evaluates alone."""
    calls = []
    kernel = aim._delta_recurrence

    def counted(*args):
        calls.append(None)
        return kernel(*args)

    monkeypatch.setattr(aim, "_delta_recurrence", counted)
    return calls


def _record_evaluations(monkeypatch):
    """Record every parameter value a search evaluates, at the boundary of its
    evaluator, whichever route computes it: the values of every ``columns``
    call (``batch``) and of every ``deltas_at`` call (``point``).  Also
    record the values of every row stack of a bound parameter side (``bound``),
    the points of every batched scan (``scan_rows``) and the number of
    per-point kernel runs (``kernel``)."""
    log = {"batch": [], "point": [], "bound": [], "scan_rows": [], "kernel": 0}
    evaluator, rows, scan, kernel = (
        aim._evaluator, aim._rows, aim._scan_deltas, aim._delta_recurrence
    )

    def recording_evaluator(spec, order):
        columns, deltas_at = evaluator(spec, order)

        def batch(values):
            log["batch"].append(list(values))
            return columns(values)

        def point(e, depths):
            log["point"].append(e)
            return deltas_at(e, depths)

        return batch, point

    def recording_rows(side, values):
        log["bound"].append(values.tolist())
        return rows(side, values)

    def recording_scan(plan, co, points, depths):
        log["scan_rows"].append(points)
        return scan(plan, co, points, depths)

    def recording_kernel(*args):
        log["kernel"] += 1
        return kernel(*args)

    monkeypatch.setattr(aim, "_evaluator", recording_evaluator)
    monkeypatch.setattr(aim, "_rows", recording_rows)
    monkeypatch.setattr(aim, "_scan_deltas", recording_scan)
    monkeypatch.setattr(aim, "_delta_recurrence", recording_kernel)
    return log


def _evaluated(log):
    """Every parameter value of a recorded search, batch values first."""
    return [e for values in log["batch"] for e in values] + log["point"]


# the benchmark problems: the grid goes through one batched scan, every other
# value through one per-point evaluation, and no value is evaluated twice
@pytest.mark.parametrize("name", sorted(BENCH))
def test_search_evaluates_each_value_once(monkeypatch, name):
    spec, search = _bench_search(name)
    log = _record_evaluations(monkeypatch)
    find_eigenvalues(spec, *search, tol=1e-10)
    grid = np.linspace(*search).tolist()
    assert log["batch"] == [grid]
    assert log["scan_rows"] == [len(grid)]
    assert len(set(log["point"])) == len(log["point"])
    assert not set(log["point"]) & set(grid)
    assert log["scan_rows"][0] + len(log["point"]) == len(set(_evaluated(log)))
    assert log["kernel"] == len(log["point"])
    # S = V(x) - E: no value binds a row stack, only its constant term
    assert log["bound"] == []


# every parameter value a search evaluates is finite, also on ranges whose
# ends lie near +-1e308: the grid comes from a finite range of finite width,
# trial points lie strictly inside finite brackets, and a degenerate grid
# whose first two values sum past double range gets no off-grid look.  The
# grid, evaluated first, is np.unique of np.linspace clipped to the range, also
# where the range spans a few ulps and rounding repeats values, or where a
# step that rounds up to the least subnormal takes np.linspace past e_max
# and back down to it; no value evaluated lies outside the range
@example(e_min=1e308, width=5e307, points=7, s0="0*E")
@example(e_min=-1.7e308, width=7e307, points=11, s0="1/E*0")
@example(e_min=1 - 2e-16, width=3, points=11, s0="1 - E")
@example(e_min=0.0, width=3, points=6, s0="0*E")
@given(
    e_min=st.floats(min_value=-1.79e308, max_value=1.79e308),
    width=st.one_of(st.floats(min_value=1e-300, max_value=1.79e308), st.integers(1, 40)),
    points=st.integers(2, 41),
    s0=st.sampled_from(["0*E", "1/E*0", "1 - E", "1 - 1e-300*E"]),
)
@settings(max_examples=60, deadline=None)
def test_search_evaluates_only_finite_values(e_min, width, points, s0):
    if isinstance(width, int):  # that many ulps of e_min
        width *= math.ulp(e_min)
    e_max = e_min + width
    assume(math.isfinite(e_max) and e_min < e_max)
    spec = ProblemSpec.from_strings("2*x", s0, "E", x0=0.0, order=12, n_max=10)
    with pytest.MonkeyPatch.context() as monkeypatch, warnings.catch_warnings():
        warnings.simplefilter("ignore", AimWarning)
        log = _record_evaluations(monkeypatch)
        try:
            find_eigenvalues(spec, e_min, e_max, points, tol=1e-10)
        except AimError:
            pass  # an overflow of the ladder at huge E
    grid = np.unique(np.linspace(e_min, e_max, points).clip(e_min, e_max)).tolist()
    assert log["batch"][0] == grid
    assert all(e_min <= e <= e_max for e in _evaluated(log))


# np.linspace(0.0, 1.5e-323, 6) rounds its step up to the least subnormal
# and reaches 2e-323 before its last value is set to e_max; the grid is
# clipped to the range, so no E beyond e_max is evaluated
def test_grid_stays_inside_the_range(monkeypatch):
    assert max(np.linspace(0.0, 1.5e-323, 6)) > 1.5e-323
    spec = ProblemSpec.from_strings("2*x", "1 - 1e300*E", "E", x0=0.0, order=12, n_max=10)
    log = _record_evaluations(monkeypatch)
    find_eigenvalues(spec, 0.0, 1.5e-323, 6, tol=1e-10)
    assert log["batch"][0] == [0.0, 5e-324, 1e-323, 1.5e-323]
    assert max(_evaluated(log)) <= 1.5e-323


# the two solve problems of the benchmark, on a grid shifted by 0.37 of a
# cell; bisection to the same tol takes 186 and 166 per-point evaluations
# for the refinement and the depth recheck of these searches
@pytest.mark.parametrize(
    "lambda0, s0, e_min, e_max, points, count, bisection_evals",
    [
        ("2*x", "1 - E", 0.0, 12.0, 101, 6, 186),
        ("6*x", "x^4 - 9*x^2 + 3 - E", 0.3, 12.3, 401, 4, 166),
    ],
    ids=["oscillator", "quartic"],
)
def test_refinement_takes_at_most_half_the_bisection_evaluations(
    monkeypatch, lambda0, s0, e_min, e_max, points, count, bisection_evals
):
    spec = ProblemSpec.from_strings(lambda0, s0, "E", x0=0.0, order=80, n_max=40)
    shift = 0.37 * (e_max - e_min) / (points - 1)
    calls = _count_point_evals(monkeypatch)
    roots = find_eigenvalues(spec, e_min + shift, e_max + shift, points, tol=1e-10)
    assert len(roots) == count
    assert 0 < len(calls) <= bisection_evals // 2


# the same searches, bounded at most 10% above the 35 and 25 evaluations
# that secant steps and a recheck seeded from evaluated points take;
# unshifted, the oscillator levels are grid points where delta is rounding
# noise, and a secant step that rounds onto such an end is clamped tol / 2
# inside it rather than bisecting the cell (26 evaluations)
@pytest.mark.parametrize(
    "lambda0, s0, e_min, e_max, points, shift, count, max_evals",
    [
        ("2*x", "1 - E", 0.0, 12.0, 101, 0.37, 6, 38),
        ("6*x", "x^4 - 9*x^2 + 3 - E", 0.3, 12.3, 401, 0.37, 4, 27),
        ("2*x", "1 - E", 0.0, 12.0, 101, 0.0, 6, 28),
    ],
    ids=["oscillator", "quartic", "oscillator-on-grid"],
)
def test_secant_refinement_evaluation_counts(
    monkeypatch, lambda0, s0, e_min, e_max, points, shift, count, max_evals
):
    spec = ProblemSpec.from_strings(lambda0, s0, "E", x0=0.0, order=80, n_max=40)
    shift *= (e_max - e_min) / (points - 1)
    calls = _count_point_evals(monkeypatch)
    roots = find_eigenvalues(spec, e_min + shift, e_max + shift, points, tol=1e-10)
    assert len(roots) == count
    assert 0 < len(calls) <= max_evals


# [DERIVED] the oscillator ladder terminates at E = 2k + 1, where delta
# changes sign steeply; the chord zero of the final bracket lands within a
# few ulps of the level, far inside tol, wherever the grid falls
@example(shift=0.0)
@given(shift=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
@settings(max_examples=8, deadline=None)
def test_oscillator_roots_are_exact_under_grid_shift(shift):
    spec = ProblemSpec.from_strings("2*x", "1 - E", "E", x0=0.0, order=80, n_max=40)
    cell = 12.0 / 100
    roots = find_eigenvalues(spec, shift * cell, 12.0 + shift * cell, 101, tol=1e-10)
    np.testing.assert_allclose(
        [r.value for r in roots], [1, 3, 5, 7, 9, 11], rtol=0, atol=1e-12
    )


# delta exactly equal at two successive iterates (f2 == f1), and a difference
# of iterates that overflows: both steps fall back to the midpoint, with no
# ZeroDivisionError and no floating-point warning
@pytest.mark.parametrize("scale", [1.0, 1e308])
def test_secant_step_survives_flat_stretch_and_overflow(scale):
    values = []

    def f(e):
        values.append(-scale if e < 0.9 else scale)
        return values[-1]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        root = _locate(f, 0.0, 1.0, 1e-12)
    assert abs(root - 0.9) <= 1e-12
    assert values[2] == values[3] == -scale  # the flat stretch was reached


# a truncation root that crosses a grid point between depths 20 and 22:
# the depth-20 root 7.450369 lies in [7.152, 7.452], the depth-22 root
# 7.455206 in the next cell, which the recheck adds
def test_recheck_follows_a_root_into_the_next_cell():
    spec = ProblemSpec.from_strings(
        "6*x", "x^4 - 9*x^2 + 3 - E", "E", x0=0.0, order=22, n_max=20
    )
    roots = find_eigenvalues(spec, 0.552, 12.552, 41, tol=1e-9)
    assert len(roots) == 4
    assert abs(roots[2].value - 7.450369) <= 1e-6
    assert abs(roots[2].residual - 0.004837) <= 1e-6


# [DERIVED] every grid point is a level, where delta[20] and delta[22] are
# exactly zero; the recheck of each level stops at its own zero, not at the
# zero of the neighbouring level at the end of its two-cell bracket
# (residual 2)
def test_recheck_of_a_zero_on_the_grid_stays_at_that_zero():
    roots = find_eigenvalues(_ho_spec(order=22, n_max=20), -1.0, 9.0, 6, tol=1e-10)
    assert [(r.value, r.residual) for r in roots] == [(e, 0.0) for e in (1, 3, 5, 7, 9)]


# the recheck brackets of the levels 1 and 3 reach the skipped grid point
# E = 2; the search reads only evaluated points there instead of raising
def test_recheck_beside_a_skipped_grid_point():
    spec = ProblemSpec.from_strings(
        "2*x", "(1 - E)*(E - 2)/(E - 2)", "E", x0=0.0, order=60, n_max=30
    )
    with pytest.warns(GridPointSkippedWarning):
        roots = find_eigenvalues(spec, 0.0, 5.0, 6, tol=1e-11)
    assert [r.value for r in roots] == [1.0, 3.0, 5.0]
    assert roots[0].residual == roots[2].residual == 0.0


# [DERIVED] shifting the grid does not leave a truncation root of the
# quartic without a depth-22 recheck, on either grid size; the examples move
# the roots 3.7986 and 11.6255 across a grid point between the depths
@example(shift=134 / 202, points=41)
@example(shift=75 / 202, points=101)
@given(
    shift=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    points=st.sampled_from([41, 101]),
)
@settings(max_examples=12, deadline=None)
def test_no_infinite_residual_under_grid_shift(shift, points):
    spec = ProblemSpec.from_strings(
        "6*x", "x^4 - 9*x^2 + 3 - E", "E", x0=0.0, order=22, n_max=20
    )
    cell = 12.0 / (points - 1)
    roots = find_eigenvalues(spec, 0.3 + shift * cell, 12.3 + shift * cell, points, tol=1e-9)
    assert len(roots) == 4
    assert all(math.isfinite(r.residual) for r in roots)


# a tol below the spacing of doubles: each bracket stops once no double is
# left inside it, after at most two steps per halving of its cell
def test_tol_below_double_spacing_stops_at_adjacent_doubles(monkeypatch):
    spec = _ho_spec(order=60, n_max=40)
    e_min, e_max, points = 0.1, 9.6, 39
    roots = find_eigenvalues(spec, e_min, e_max, points, tol=1e-300)
    np.testing.assert_allclose([r.value for r in roots], [1, 3, 5, 7, 9], rtol=0, atol=1e-8)
    grid = np.linspace(e_min, e_max, points)
    calls = _count_point_evals(monkeypatch)
    for root in roots:
        lo, hi = (float(e) for e in grid[np.searchsorted(grid, root.value) - 1 :][:2])
        calls.clear()
        # searched alone, as a two-point grid, the cell gives the same root
        assert find_eigenvalues(spec, lo, hi, 2, tol=1e-300) == [root]
        steps = 2 * math.ceil(math.log2((hi - lo) / np.spacing(hi))) + 4
        assert 0 < len(calls) <= 2 * steps  # one bracket at depth n, one at n + 2


def _bisect(f, lo, hi, tol):
    """Reference: plain bisection of a sign change of f on [lo, hi] to width tol."""
    flo = f(lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# [DERIVED] every root found in a sign-change cell lies within tol of a sign
# change of delta[n], and within tol of the root plain bisection finds; the
# depth recheck of a truncation root of the quartic can leave its cell
# (residual inf), which this property does not examine
@pytest.mark.filterwarnings("ignore::aimcf.errors.DepthRecheckWarning")
@given(
    problem=st.sampled_from([("2*x", "1 - E"), ("6*x", "x^4 - 9*x^2 + 3 - E")]),
    shift=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    tol=st.sampled_from([1e-6, 1e-9, 1e-11]),
)
@settings(max_examples=12, deadline=None)
def test_roots_lie_within_tol_of_a_sign_change(problem, shift, tol):
    n, points = 20, 41
    spec = ProblemSpec.from_strings(*problem, "E", x0=0.0, order=n + 2, n_max=n)
    cell = 12.0 / (points - 1)
    grid = np.linspace(0.3 + shift * cell, 12.3 + shift * cell, points)
    deltas_at = aim._evaluator(spec, n + 2)[1]

    def delta(e):
        with np.errstate(over="ignore", invalid="ignore"):
            return deltas_at(e, (n,))[0]

    roots = find_eigenvalues(spec, grid[0], grid[-1], points, tol=tol)
    assert roots
    for root in roots:
        r = root.value
        if r in grid:
            continue  # a zero on the grid, not found in a cell
        i = int(np.searchsorted(grid, r))
        lo, hi = float(grid[i - 1]), float(grid[i])
        a, b = max(lo, r - tol), min(hi, r + tol)
        fa, fb = delta(a), delta(b)
        assert fa == 0.0 or fb == 0.0 or (fa < 0.0) != (fb < 0.0), (r, a, b)
        assert abs(r - _bisect(delta, lo, hi, tol)) <= tol


def _gauge(lambda0, s0, f=None, df=None, d2f=None, log=None):
    """The gauge transform of ``y'' = L y' + S y`` by f, as parser text:
    L' = L + 2f'/f and S' = S + f''/f - 2(f'/f)^2 - L f'/f, from the text of
    L, S, f, f' and f'', or of L, S and ``log``, the pair of texts f'/f and
    f''/f (for f = exp(g), g' and g'' + g'^2).  If h solves the first
    equation, y = f h solves ``y'' = L' y' + S' y``, so an f with no real zero
    keeps the spectrum."""
    if log is None:
        g, h = f"(({df})/({f}))", f"({d2f})/({f})"
    else:
        g, h = (f"({text})" for text in log)
    return f"({lambda0}) + 2*{g}", f"({s0}) + {h} - 2*{g}^2 - ({lambda0})*{g}"


def _gauge_roots(f=None, df=None, d2f=None, log=None):
    """Roots of the gauged oscillator at x0 = 0.3, depth 40 on 101 points over
    [0.37, 12.37], where the oscillator's levels are 2k + 1."""
    spec = ProblemSpec.from_strings(
        *_gauge("2*x", "1 - E", f, df, d2f, log), "E", x0=0.3, order=42, n_max=40
    )
    return find_eigenvalues(spec, 0.37, 12.37, 101)


OSCILLATOR_LEVELS = [2.0 * k + 1.0 for k in range(6)]


def test_gauge_by_one_reproduces_the_oscillator():
    base = ProblemSpec.from_strings("2*x", "1 - E", "E", x0=0.3, order=42, n_max=40)
    roots = _gauge_roots("1", "0", "0")
    assert roots == find_eigenvalues(base, 0.37, 12.37, 101)
    np.testing.assert_allclose([r.value for r in roots], OSCILLATOR_LEVELS, rtol=0, atol=1e-6)


# f = 1 + x^2 has no real zero, so the gauged problem keeps the levels 2k + 1;
# its inputs are rational with poles at +-i.  The search returns 47 roots, 21
# of them with residuals below 1e-6, none within 1e-2 of a level (the FOUND
# line on the oscillator gauged by 1 + x^2 in CHANGES.md)
@pytest.mark.xfail(strict=True, reason="FOUND: the delta route misses every level of "
                   "the oscillator gauged by 1 + x^2 at x0 = 0.3")
def test_gauge_by_one_plus_x_squared_keeps_the_oscillator_levels():
    roots = _gauge_roots("1 + x^2", "2*x", "2")
    assert len(roots) == len(OSCILLATOR_LEVELS)
    np.testing.assert_allclose([r.value for r in roots], OSCILLATOR_LEVELS, rtol=0, atol=1e-6)


# f = exp(0.1 x^3) has no real zero either, so it keeps the levels 2k + 1; by
# its logarithmic derivatives f'/f = 0.3 x^2 and f''/f = 0.6 x + 0.09 x^4 the
# gauged inputs are the polynomials L = 2x + 0.6x^2 and S = 0.6x - 0.09x^4 -
# 0.6x^3 + 1 - E
EXP_GAUGE = ("0.3*x^2", "0.6*x + 0.09*x^4")


def test_exponential_gauge_gives_the_stated_polynomials():
    gauged = _gauge("2*x", "1 - E", log=EXP_GAUGE)
    stated = ("2*x + 0.6*x^2", "0.6*x - 0.09*x^4 - 0.6*x^3 + 1 - E")
    for got, want in zip(gauged, stated):
        for e in (0.0, 3.0):
            a, b = (series_from_expr(parse_expression(t), e, 0.3, 8).coeffs for t in (got, want))
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=1e-15)


# at x0 = 0.3 the search returns no root and no warning (the FOUND line on the
# oscillator gauged by exp(0.1 x^3) in CHANGES.md)
@pytest.mark.xfail(strict=True, reason="FOUND: the delta route returns no root and no "
                   "warning on the oscillator gauged by exp(0.1 x^3) at x0 = 0.3")
def test_gauge_by_exponential_keeps_the_oscillator_levels():
    roots = _gauge_roots(log=EXP_GAUGE)
    assert len(roots) == len(OSCILLATOR_LEVELS)
    np.testing.assert_allclose([r.value for r in roots], OSCILLATOR_LEVELS, rtol=0, atol=1e-6)


# ----------------------------------------------------------------------
# an independent spectral reference over a seeded family of potentials


def _spectral_levels(coeffs, n, omega):
    """Eigenvalues of -psi'' + V psi, V = sum of coeffs[k] x^k, in the first n
    harmonic-oscillator functions of frequency omega, ascending.  With the
    ladder operator a, X = (a + a^T)/sqrt(2 omega) and P^2 = -(omega/2)(a -
    a^T)^2; V(X) is built on a basis padded by deg V, so that its leading n x n
    block is exact, and the truncated matrix goes to ``numpy.linalg.eigvalsh``.
    It shares no code with the library."""
    m = n + len(coeffs) - 1
    a = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    x = (a + a.T) / math.sqrt(2.0 * omega)
    h, power = -(omega / 2.0) * (a - a.T) @ (a - a.T), np.eye(m)
    for c in coeffs:
        h += c * power
        power = power @ x
    return np.linalg.eigvalsh(h[:n, :n])


# lowest levels of -psi'' + x^4 psi = E psi (Hioe & Montroll, J. Math. Phys.
# 16 (1975) 1945), as the benchmark's solve-quartic checks them
HIOE_MONTROLL_QUARTIC = (1.0603620904841829, 3.7996730298013941, 7.4556979379867383,
                         11.644745511378162)


@pytest.mark.parametrize("n, omega", [(300, 3.0), (500, 4.0)])
def test_spectral_reference_matches_hioe_montroll(n, omega):
    levels = _spectral_levels([0.0, 0.0, 0.0, 0.0, 1.0], n, omega)
    np.testing.assert_allclose(levels[:4], HIOE_MONTROLL_QUARTIC, rtol=0, atol=1e-11)


# The family V = c2 x^2 + c3 x^3 + c4 x^4 + c6 x^6, c4 > 0 or c6 > 0, in the AIM
# form psi = exp(-beta x^2 / 2) y: L = 2 beta x, S = V - beta^2 x^2 + beta - E
# (beta = 3 and V = x^4 is the benchmark's quartic).  Seed 5 draws 12 problems,
# searched with beta = 2 at x0 = 0, depth 40, on 101 points over [0.3, 12.3]
FAMILY_SEED, FAMILY_SIZE, FAMILY_BETA = 5, 12, 2.0
FAMILY_RANGE = (0.3, 12.3)


def _potential_family(seed=FAMILY_SEED, count=FAMILY_SIZE):
    """``count`` coefficient lists ``[0, 0, c2, c3, c4, 0, c6]`` drawn from
    ``seed``: c2 in [-1, 2] and c3 in [-0.5, 0.5]; then, at even odds, a
    quartic (c4 in [0.2, 1.5], c6 = 0) or a sextic (c4 in [-0.2, 1], c6 in
    [0.05, 0.3]); each rounded to three decimals."""
    rng, family = random.Random(seed), []
    for _ in range(count):
        c2, c3 = round(rng.uniform(-1.0, 2.0), 3), round(rng.uniform(-0.5, 0.5), 3)
        if rng.random() < 0.5:
            c4, c6 = round(rng.uniform(0.2, 1.5), 3), 0.0
        else:
            c4, c6 = round(rng.uniform(-0.2, 1.0), 3), round(rng.uniform(0.05, 0.3), 3)
        family.append([0.0, 0.0, c2, c3, c4, 0.0, c6])
    return family


def _family_spec(coeffs, beta=FAMILY_BETA, n_max=40):
    v = " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(coeffs) if c)
    return ProblemSpec.from_strings(
        f"{2 * beta!r}*x", f"{v} - {beta * beta!r}*x^2 + {beta!r} - E", "E",
        x0=0.0, order=n_max + 2, n_max=n_max,
    )


@functools.cache
def _family_outcomes():
    """Per drawn problem: the reference levels of two bases, and the roots
    ``find_eigenvalues`` returns over FAMILY_RANGE."""
    outcomes = []
    for coeffs in _potential_family():
        bases = [_spectral_levels(coeffs, n, omega) for n, omega in ((300, 3.0), (500, 4.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AimWarning)
            roots = find_eigenvalues(_family_spec(coeffs), *FAMILY_RANGE, 101)
        outcomes.append((coeffs, bases, roots))
    return tuple(outcomes)


def test_potential_family_is_fixed_by_its_seed():
    family = _potential_family()
    assert family == _potential_family() and len(family) == FAMILY_SIZE
    assert all(c[4] > 0.0 or c[6] > 0.0 for c in family)
    # beta = 3 and V = x^4 is the benchmark's quartic
    quartic = _family_spec([0.0, 0.0, 0.0, 0.0, 1.0], beta=3.0)
    roots = find_eigenvalues(quartic, *FAMILY_RANGE, 101)
    np.testing.assert_allclose([r.value for r in roots], HIOE_MONTROLL_QUARTIC, rtol=0, atol=1e-4)


def test_spectral_reference_bases_agree_on_the_family():
    for coeffs, (small, large), _ in _family_outcomes():
        top = int(np.searchsorted(small, FAMILY_RANGE[1])) + 1
        np.testing.assert_allclose(small[:top], large[:top], rtol=0, atol=1e-9, err_msg=str(coeffs))


FAMILY_FOUND = ("FOUND: on the seeded potential family the delta route reports roots "
                "whose error exceeds their residual, and a spurious root on problem 10")


# problem 10 (a double well, V = -0.805 x^2 - 0.199 x^3 - 0.196 x^4 + 0.219
# x^6) gives 4 roots where 3 levels lie in range, the last 2.06 from any level
# (the FOUND line on the seeded potential family in CHANGES.md)
@pytest.mark.parametrize("index", [
    pytest.param(i, marks=pytest.mark.xfail(strict=True, reason=FAMILY_FOUND)) if i == 10 else i
    for i in range(FAMILY_SIZE)
])
def test_search_finds_the_reference_count_on_the_family(index):
    coeffs, (levels, _), roots = _family_outcomes()[index]
    lo, hi = FAMILY_RANGE
    assert len(roots) == int(((levels >= lo) & (levels <= hi)).sum()), coeffs


# a residual is the distance to the root re-located at depth n + 2; as an
# error estimate it falls short of the true error at 18 of the 45 roots, on 8
# of the 12 problems, up to 37 times (the same FOUND line): the measured gate
# of a depth trail
@pytest.mark.xfail(strict=True, reason=FAMILY_FOUND)
def test_search_residual_bounds_the_error_on_the_family():
    for coeffs, (levels, _), roots in _family_outcomes():
        for root in roots:
            assert np.min(np.abs(levels - root.value)) <= root.residual, (coeffs, root)
