"""Residual certificates and series solution rebuild."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimcf.aim import ProblemSpec
from aimcf.cf import pq_iterate, terminated_alpha
from aimcf.errors import OrderExhausted
from aimcf.reconstruct import (
    build_solution,
    factorization_residual,
    ode_residual,
    riccati_residual,
)
from aimcf.series import TaylorSeries


def _alpha(coeffs, center=0.0):
    return TaylorSeries(center, np.asarray(coeffs, dtype=float))


def _const_spec(order=20):
    return ProblemSpec.from_strings(
        "3", "4 + 0*E", "E", x0=0.0, order=order, n_max=max(1, order // 2 - 1)
    )


# [DERIVED] alpha = 1, L = 3, S = 4: 0 - 1 - 3 + 4 = 0
def test_riccati_zero_for_constant_solution():
    alpha = _alpha([1.0] + [0.0] * 19)
    res = riccati_residual(alpha, _const_spec(), 0.0)
    assert float(np.max(np.abs(res.coeffs))) == 0.0


def test_riccati_zero_alpha_zero_potential():
    spec = ProblemSpec.from_strings("0", "0*E", "E", x0=0.0, order=10, n_max=5)
    alpha = _alpha([0.0] * 11)
    res = riccati_residual(alpha, spec, 0.0)
    assert float(np.max(np.abs(res.coeffs))) == 0.0


# [DERIVED] terminated ladder at the first excited level solves the equation
def test_terminated_alpha_is_exact_riccati_solution():
    spec = ProblemSpec.from_strings("2*x", "1 - E", "E", x0=1.0, order=40, n_max=10)
    pq = pq_iterate(spec, 3.0)
    alpha = terminated_alpha(pq, pq.stop_level)
    res = riccati_residual(alpha, spec, 3.0)
    assert float(np.max(np.abs(res.coeffs))) <= 1e-13
    fact = factorization_residual(alpha, spec, 3.0)
    both = fact.coeffs + res.coeffs
    assert float(np.max(np.abs(both))) <= 1e-13


@settings(max_examples=50, deadline=None)
@given(
    acoef=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=2,
        max_size=16,
    ),
    lcoef=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    scoef=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
)
def test_factorization_is_negated_riccati(acoef, lcoef, scoef):
    lam_text = " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(lcoef))
    s_text = " + ".join(f"({c!r})*x^{k}" for k, c in enumerate(scoef)) + " + 0*E"
    spec = ProblemSpec.from_strings(lam_text, s_text, "E", x0=0.0, order=18, n_max=10)
    alpha = _alpha(acoef + [0.0] * (19 - len(acoef)))
    res = riccati_residual(alpha, spec, 0.0)
    fact = factorization_residual(alpha, spec, 0.0)
    scale = float(np.max(np.abs(res.coeffs))) + 1.0
    np.testing.assert_allclose(fact.coeffs, -res.coeffs, rtol=0, atol=1e-12 * scale)


# [DERIVED] alpha = -1/x about 1 with C1 = 0 reproduces y = x
def test_build_solution_first_excited_state():
    spec = ProblemSpec.from_strings("2*x", "1 - E", "E", x0=1.0, order=30, n_max=10)
    pq = pq_iterate(spec, 3.0)
    alpha = terminated_alpha(pq, 1)
    y = build_solution(alpha, spec, 3.0, C1=0.0, C2=1.0)
    want = np.zeros(y.order + 1)
    want[0], want[1] = 1.0, 1.0
    np.testing.assert_allclose(y.coeffs, want, atol=1e-13)
    res = ode_residual(y, spec, 3.0)
    assert float(np.max(np.abs(res.coeffs))) <= 1e-12
    # the C1 branch is an independent second solution
    y2 = build_solution(alpha, spec, 3.0, C1=1.0, C2=0.0)
    res2 = ode_residual(y2, spec, 3.0)
    assert float(np.max(np.abs(res2.coeffs[: res2.order - 1]))) <= 1e-10


# [DERIVED] zero alpha, zero potential: y = C1 (x - x0) + C2
def test_build_solution_free_particle_basis():
    spec = ProblemSpec.from_strings("0", "0*E", "E", x0=0.0, order=10, n_max=5)
    alpha = _alpha([0.0] * 11)
    y1 = build_solution(alpha, spec, 0.0, C1=1.0, C2=0.0)
    np.testing.assert_allclose(y1.coeffs[:3], [0.0, 1.0, 0.0], atol=1e-15)
    y2 = build_solution(alpha, spec, 0.0, C1=0.0, C2=5.0)
    np.testing.assert_allclose(y2.coeffs[:3], [5.0, 0.0, 0.0], atol=1e-15)


def test_build_solution_ground_state_is_constant():
    spec = ProblemSpec.from_strings("2*x", "1 - E", "E", x0=0.5, order=30, n_max=10)
    pq = pq_iterate(spec, 1.0)
    alpha = terminated_alpha(pq, 0)
    y = build_solution(alpha, spec, 1.0, C1=0.0, C2=1.0)
    want = np.zeros(y.order + 1)
    want[0] = 1.0
    np.testing.assert_allclose(y.coeffs, want, atol=1e-15)
    res = ode_residual(y, spec, 1.0)
    assert float(np.max(np.abs(res.coeffs))) == 0.0


def test_build_solution_affine_in_constants():
    spec = ProblemSpec.from_strings(
        "1 + x", "x - 0.5 + 0*E", "E", x0=0.0, order=16, n_max=10
    )
    alpha = _alpha([0.3, -0.2, 0.11, 0.05] + [0.0] * 13)
    basis1 = build_solution(alpha, spec, 0.0, C1=1.0, C2=0.0)
    basis2 = build_solution(alpha, spec, 0.0, C1=0.0, C2=1.0)
    combo = build_solution(alpha, spec, 0.0, C1=2.5, C2=-1.25)
    want = 2.5 * np.asarray(basis1.coeffs) - 1.25 * np.asarray(basis2.coeffs)
    scale = float(np.max(np.abs(want))) + 1.0
    np.testing.assert_allclose(combo.coeffs, want, rtol=0, atol=1e-13 * scale)


# [TRIVIAL] y = 1 leaves -S; y = 0 leaves nothing
def test_ode_residual_degenerate_inputs():
    spec = _const_spec(order=10)
    one = TaylorSeries(0.0, np.array([1.0] + [0.0] * 10))
    res = ode_residual(one, spec, 0.0)
    _, s0 = spec.series_pair(0.0)
    np.testing.assert_allclose(res.coeffs, -s0.coeffs[: res.order + 1])
    zero = TaylorSeries(0.0, np.zeros(11))
    res0 = ode_residual(zero, spec, 0.0)
    assert float(np.max(np.abs(res0.coeffs))) == 0.0


def test_order_exhausted_paths():
    spec = _const_spec()
    stub = _alpha([1.0])  # order 0, cannot differentiate
    with pytest.raises(OrderExhausted):
        riccati_residual(stub, spec, 0.0)
    with pytest.raises(OrderExhausted):
        factorization_residual(stub, spec, 0.0)
    short = _alpha([1.0, 0.0, 0.0])  # order 2 < 4 budget for the rebuild
    with pytest.raises(OrderExhausted):
        build_solution(short, spec, 0.0, C1=1.0, C2=1.0)
    flat = TaylorSeries(0.0, np.array([1.0, 2.0]))
    with pytest.raises(OrderExhausted):
        ode_residual(flat, spec, 0.0)
