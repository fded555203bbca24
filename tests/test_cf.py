"""Approximant recurrence, determinant identity, termination, unit rescaling."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps

from aimcf.aim import ProblemSpec
from aimcf.cf import (
    aim_limit_terms,
    alpha_partial_sums,
    cf_approximants,
    cf_determinants,
    cf_equiv_unit,
    detect_termination,
    pq_iterate,
    terminated_alpha,
)
from aimcf.errors import (
    DeterminantMismatchWarning,
    ValidationError,
    ZeroDenominator,
    ZeroPartialNumerator,
)


def _const(p, q, n):
    return [p] * n, [q] * n


# [DERIVED] hand recurrence for constant terms 4/(3 + 4/(3 + ...))
def test_constant_fraction_hand_values():
    state = cf_approximants(*_const(3.0, 4.0, 3))
    assert (state.A(-2), state.A(-1)) == (1.0, 0.0)
    assert (state.B(-2), state.B(-1)) == (0.0, 1.0)
    assert [state.A(n) for n in range(3)] == [4.0, 12.0, 52.0]
    assert [state.B(n) for n in range(3)] == [3.0, 13.0, 51.0]
    np.testing.assert_allclose(state.C, [4 / 3, 12 / 13, 52 / 51], rtol=0, atol=0)
    assert state.v(-1) == -1.0
    assert [state.v(n) for n in range(3)] == [4.0, -16.0, 64.0]


# [DERIVED] fixed point x = 4/(3+x) -> x = 1; golden ratio for all-ones
def test_constant_fraction_limits():
    state = cf_approximants(*_const(3.0, 4.0, 41))
    assert abs(state.C[40] - 1.0) < 1e-12
    golden = cf_approximants(*_const(1.0, 1.0, 51))
    assert abs(golden.C[50] - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-10


def _exact_determinants(p, q):
    """Oracle: A, B in exact rational arithmetic, then the cross difference."""
    a2, a1 = Fraction(1), Fraction(0)
    b2, b1 = Fraction(0), Fraction(1)
    out = []
    for pn, qn in zip(p, q):
        pf, qf = Fraction(pn), Fraction(qn)
        a_new = pf * a1 + qf * a2
        b_new = pf * b1 + qf * b2
        out.append(a_new * b1 - a1 * b_new)
        a2, a1, b2, b1 = a1, a_new, b1, b_new
    return out


def test_determinant_identity_random_corpus():
    # the identity is exact, so verify it in exact arithmetic; the float
    # cross difference only has to agree up to its cancellation noise
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(5, 31))
        p = rng.uniform(0.5, 2.0, n)
        q = rng.uniform(0.5, 2.0, n)
        exact = _exact_determinants(p, q)
        prods = []
        acc = Fraction(1)
        for k in range(n):
            acc *= Fraction(q[k])
            prods.append(acc if k % 2 == 0 else -acc)
        assert exact == prods
        state = cf_approximants(p, q)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeterminantMismatchWarning)
            v = cf_determinants(state)
        assert v[0] == -1.0
        # float route drifts by at most eps times the cross-product scale
        for k in range(n):
            scale = abs(state.A(k) * state.B(k - 1)) + abs(state.A(k - 1) * state.B(k))
            assert abs(v[k + 1] - float(prods[k])) <= 64 * (k + 2) * 2.3e-16 * scale


# [TRIVIAL] product formula: a zero numerator kills all later determinants
def test_determinant_zero_numerator_propagates():
    p = [1.5, 1.5, 1.5, 1.5, 1.5]
    q = [2.0, 2.0, 0.0, 2.0, 2.0]
    state = cf_approximants(p, q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeterminantMismatchWarning)
        v = cf_determinants(state)
    for n in range(2, 5):
        scale = abs(state.A(n) * state.B(n - 1)) + abs(state.A(n - 1) * state.B(n))
        assert abs(v[n + 1]) <= 1e-12 * scale


def test_partial_sums_reproduce_approximants():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(5, 31))
        p = rng.uniform(0.5, 2.0, n)
        q = rng.uniform(0.5, 2.0, n)
        state = cf_approximants(p, q)
        sums = alpha_partial_sums(state)
        np.testing.assert_allclose(sums, state.C, rtol=1e-12)


def test_limit_terms_telescope():
    rng = np.random.default_rng(13)
    p = rng.uniform(0.5, 2.0, 30)
    q = rng.uniform(0.5, 2.0, 30)
    state = cf_approximants(p, q)
    terms = aim_limit_terms(state)
    np.testing.assert_allclose(np.cumsum(terms), state.C, rtol=1e-12)
    # each term is the approximant increment
    np.testing.assert_allclose(terms[1:], np.diff(state.C), rtol=1e-9, atol=1e-15)


# [DERIVED] unit rescaling of the constant fraction alternates 3, 3/4
def test_equiv_unit_constant_pattern():
    p, q = _const(3.0, 4.0, 6)
    ptilde = cf_equiv_unit(p, q)
    np.testing.assert_allclose(ptilde, [3.0, 0.75, 3.0, 0.75, 3.0, 0.75])


def test_equiv_unit_preserves_approximants():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.5, 2.0, 20)
    q = rng.uniform(0.5, 2.0, 20)
    ptilde = cf_equiv_unit(p, q)
    numerators = np.ones(20)
    numerators[0] = q[0]
    unit = cf_approximants(ptilde, numerators)
    orig = cf_approximants(p, q)
    np.testing.assert_allclose(unit.C, orig.C, rtol=1e-12)


def test_equiv_unit_rejects_zero_numerator():
    with pytest.raises(ZeroPartialNumerator):
        cf_equiv_unit([1.0, 1.0, 1.0], [1.0, 0.0, 1.0])


def test_zero_denominator_paths():
    # p = 0 everywhere makes B[0] = 0
    state = cf_approximants([0.0, 0.0], [1.0, 1.0])
    assert math.isnan(state.C[0])
    with pytest.raises(ZeroDenominator):
        alpha_partial_sums(state)
    with pytest.raises(ZeroDenominator):
        aim_limit_terms(state)


def test_inputs_are_copied_and_validated():
    p = [3.0, 3.0]
    q = [4.0, 4.0]
    state = cf_approximants(p, q)
    p[0] = 999.0
    assert state.pvals[0] == 3.0
    with pytest.raises(ValidationError):
        cf_approximants([1.0, 2.0], [1.0])
    with pytest.raises(ValidationError):
        cf_approximants([1.0], [1.0], N=3)
    with pytest.raises(ValidationError):
        state.A(5)
    with pytest.raises(ValidationError):
        state.v(-2)


# [DERIVED] ratio of cylinder functions at 1: -1/(2 - 1/(4 - 1/(6 - ...)))
def test_bessel_ratio_deep_fraction_stays_finite():
    n = 201
    p = 2.0 * np.arange(1, n + 1)
    q = -np.ones(n)
    state = cf_approximants(p, q)
    assert np.all(np.isfinite(state.C))
    # raw denominators overflow doubles long before level 200
    assert math.isinf(state.B(200))
    want = -sps.jv(1, 1.0) / sps.jv(0, 1.0)
    assert abs(state.C[-1] - want) < 1e-14


def test_determinant_warning_on_forced_mismatch():
    state = cf_approximants([3.0, 3.0, 3.0], [4.0, 4.0, 4.0])
    # sabotage: rebuild with inconsistent stored q so the check must trip
    bad = type(state)(
        pvals=state.pvals,
        qvals=np.array([4.0, 4.0, 7.0]),
        C=state.C,
        _mant_a=state._mant_a,
        _mant_b=state._mant_b,
        _exp2=state._exp2,
    )
    with pytest.warns(DeterminantMismatchWarning):
        cf_determinants(bad)


# ----------------------------------------------------------------------
# series-level ladder and termination

HO = ("2*x", "1 - E", "E")


def _ho_pq(energy, x0=1.0, order=40, depth=12):
    spec = ProblemSpec.from_strings(*HO, x0=x0, order=order, n_max=depth)
    return pq_iterate(spec, energy)


# [DERIVED] closed ladder: at E = 2k+1 the level-k numerator dies identically
def test_ho_termination_levels():
    for k, energy in ((0, 1.0), (1, 3.0), (2, 5.0)):
        pq = _ho_pq(energy)
        assert detect_termination(pq) == k
        assert pq.stop_level == k
        assert pq.stop_reason == "termination"


# [DERIVED] E=3 fold gives q0/p0 = -2/(2x) = -1/x, alternating about x0 = 1
def test_terminated_alpha_first_excited():
    pq = _ho_pq(3.0)
    alpha = terminated_alpha(pq, 1)
    want = [(-1.0) ** (k + 1) for k in range(alpha.order + 1)]
    np.testing.assert_allclose(alpha.coeffs, want, rtol=1e-13)


def test_terminated_alpha_level_zero_is_zero_series():
    pq = _ho_pq(1.0)
    assert detect_termination(pq) == 0
    alpha = terminated_alpha(pq, 0)
    assert np.all(alpha.coeffs == 0.0)


def test_terminated_alpha_level_validation():
    pq = _ho_pq(3.0)
    with pytest.raises(ValidationError):
        terminated_alpha(pq, pq.depth + 1)


def test_no_termination_off_eigenvalue():
    pq = _ho_pq(2.5, depth=8)
    assert detect_termination(pq) is None
    assert pq.stop_level is None
    assert pq.depth == 8
    assert pq.p_at_center().shape == (9,)


def test_detect_termination_custom_tolerance():
    pq = _ho_pq(3.0 + 1e-9, depth=6)
    assert detect_termination(pq) is None
    assert detect_termination(pq, tol=1e-6) == 1


def test_pole_stop_reason():
    # numerator vanishes at the center without vanishing identically
    spec = ProblemSpec.from_strings("2 + x", "x - E", "E", x0=0.5, order=20, n_max=6)
    pq = pq_iterate(spec, 0.5)
    assert pq.stop_reason == "pole"
    assert pq.stop_level == 0
