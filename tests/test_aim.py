"""Iteration ladder against a symbolic oracle and a reference ladder, spectrum checks."""

import dataclasses
import warnings

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from aimcf.aim import (
    ProblemSpec,
    _delta_vector,
    aim_iterate,
    aim_matrix_iterate,
    alpha_at,
    delta_n,
    find_eigenvalues,
)
from aimcf.errors import (
    ConditioningWarning,
    DegenerateDeltaWarning,
    IndexOutOfRange,
    OrderExhausted,
    Overflow,
    SingularPivot,
    ValidationError,
)

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


# every view of the ladder kernel reproduces the reference bit for bit,
# including the solver's deltas from inputs trimmed to depth + 1 coefficients
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
    assert np.array_equal(_delta_vector(spec, energy, depth), ref_delta)


# [DERIVED] exact spectrum E = 2k+1 of the transformed oscillator equation
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


# the inputs are finite series, so a non-finite ladder value at x0 can only
# be arithmetic overflow, a numeric failure rather than an input error
def test_find_eigenvalues_raises_overflow_when_ladder_overflows():
    spec = ProblemSpec.from_strings("1e200*x", "1 - E", "E", x0=0.5, order=20, n_max=10)
    with pytest.raises(Overflow):
        find_eigenvalues(spec, 0.0, 4.0, 11, tol=1e-10)
