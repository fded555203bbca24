"""Approximant recurrence, determinant identity, termination, unit rescaling."""

import contextlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimcf.aim import ProblemSpec, _ladder, aim_iterate
from aimcf.cf import (
    alpha_partial_sums,
    cf_approximants,
    cf_determinants,
    cf_equiv_unit,
    detect_termination,
    pq_iterate,
    terminated_alpha,
)
from aimcf.errors import (
    ConditioningWarning,
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
    terms = np.array([state.v(n) / (state.B(n) * state.B(n - 1)) for n in range(30)])
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


def test_inputs_are_copied_and_validated():
    p = [3.0, 3.0]
    q = [4.0, 4.0]
    state = cf_approximants(p, q)
    p[0] = 999.0
    assert state.pvals[0] == 3.0
    with pytest.raises(ValidationError):
        cf_approximants([1.0, 2.0], [1.0])
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


def _ho_aim(energy):
    return aim_iterate(ProblemSpec.from_strings(*HO, x0=1.0, order=40, n_max=12), energy)


# [DERIVED] closed ladder: at E = 2k+1 the level-k numerator dies identically
def test_ho_termination_levels():
    for k, energy in ((0, 1.0), (1, 3.0), (2, 5.0)):
        pq = _ho_pq(energy)
        assert detect_termination(pq) == k
        assert pq.stop_level == k
        assert pq.stop_reason == "termination"


# [DERIVED] E=3 ratio gives S0/L0 = -2/(2x) = -1/x, alternating about x0 = 1
def test_terminated_alpha_first_excited():
    alpha = terminated_alpha(_ho_aim(3.0), 1)
    want = [(-1.0) ** (k + 1) for k in range(alpha.order + 1)]
    np.testing.assert_allclose(alpha.coeffs, want, rtol=1e-13)


def _hermite_log_derivative(k, x0, order):
    """Exact Taylor coefficients 0..order of -H_k'/H_k about x0 (physicists' H_k)."""
    h_prev, h = [Fraction(0)], [Fraction(1)]
    for n in range(k):  # H[n+1] = 2x H[n] - 2n H[n-1]
        h_next = [Fraction(0)] + [2 * c for c in h]
        for j, c in enumerate(h_prev):
            h_next[j] -= 2 * n * c
        h_prev, h = h, h_next
    t = Fraction(x0)
    shifted = [
        sum(c * math.comb(i, j) * t ** (i - j) for i, c in enumerate(h) if i >= j)
        for j in range(k + 1)
    ]
    num = [-(j + 1) * shifted[j + 1] for j in range(k)] + [Fraction(0)] * (order + 1)
    den = shifted + [Fraction(0)] * (order + 1)
    out = []
    for m in range(order + 1):
        out.append((num[m] - sum(den[j] * out[m - j] for j in range(1, m + 1))) / den[0])
    return out


# [DERIVED] at E = 2k+1 the oscillator's alpha = -y'/y is -H_k'/H_k; the
# ladder ratio divides only by L[k-1](x0), which does not vanish at the
# symmetric centre x0 = 0 for even k
@pytest.mark.parametrize(
    "energy, x0", [(7, 0.5), (9, 1.3), (11, -1.2), (11, 0.3), (5, 0.0), (9, 0.0)]
)
def test_terminated_alpha_matches_hermite_log_derivative(energy, x0):
    spec = ProblemSpec.from_strings(*HO, x0=x0, order=40, n_max=12)
    k = (energy - 1) // 2
    assert detect_termination(pq_iterate(spec, energy)) == k
    # L(x0) = 2 x0 vanishes at the symmetric centre
    centre = pytest.warns(ConditioningWarning) if x0 == 0.0 else contextlib.nullcontext()
    with centre:
        seqs = aim_iterate(spec, energy)
    alpha = terminated_alpha(seqs, k)
    want = [float(c) for c in _hermite_log_derivative(k, x0, 30)]
    np.testing.assert_allclose(alpha.coeffs[:31], want, rtol=1e-13, atol=0)


# [DERIVED] the fraction's approximants are the iteration ladder's values:
# B[n] = L[n](x0) and A[n] = S[n](x0).  Each gap is measured against the
# larger rounding scale of the two routes: the iteration ladder run on
# absolute input coefficients, and the recurrence step |p[n] B[n-1]| +
# |q[n] B[n-2]| (likewise for A); 1500 random draws stayed below 6e-15 of
# that scale and below 1.5e-12 of the value itself.  Subnormal values carry
# only absolute precision, hence the floor at the smallest normal double.
# At a subnormal x0, B[n] is subnormal for even n and A[n] / B[n] leaves
# double range; at E = 3 and x0 = 6.6e-118, L[1](x0) = 4 x0^2 cancels to 0
# in the ladder, not in the recurrence
@pytest.mark.filterwarnings("ignore::aimcf.errors.ConditioningWarning")
@example(problem=HO[:2], x0=2.2250738585e-313, energy=2.0)
@example(problem=HO[:2], x0=5e-324, energy=1.5)
@example(problem=HO[:2], x0=6.560974342087148e-118, energy=3.0)
@given(
    problem=st.sampled_from([HO[:2], ("6*x", "x^4 - 9*x^2 + 3 - E"), ("2 + x", "x - E")]),
    x0=st.floats(min_value=-1.5, max_value=1.5),
    energy=st.floats(min_value=0.5, max_value=11.5),
)
@settings(max_examples=40, deadline=None)
def test_approximants_are_ladder_values(problem, x0, energy):
    spec = ProblemSpec.from_strings(*problem, "E", x0=x0, order=40, n_max=12)
    pq = pq_iterate(spec, energy)
    seqs = aim_iterate(spec, energy)
    state = cf_approximants(pq.p, pq.q)
    lam0, s0 = spec.series_pair(energy)
    magnitude = _ladder(np.abs(lam0.coeffs), np.abs(s0.coeffs), spec.n_max)[2]
    tiny = np.finfo(float).tiny
    for n in range(min(pq.depth, 12) + 1):
        for row, value, ladder in ((0, state.B, seqs.lam[n]), (1, state.A, seqs.s[n])):
            step = abs(pq.p[n] * value(n - 1)) + abs(pq.q[n] * value(n - 2))
            scale = max(magnitude[row, n], step)
            assert abs(value(n) - ladder.at_center) <= 1e-12 * scale + tiny


def test_terminated_alpha_level_zero_is_zero_series():
    assert detect_termination(_ho_pq(1.0)) == 0
    alpha = terminated_alpha(_ho_aim(1.0), 0)
    assert np.all(alpha.coeffs == 0.0)


def test_terminated_alpha_level_validation():
    seqs = _ho_aim(3.0)
    with pytest.raises(ValidationError):
        terminated_alpha(seqs, seqs.depth + 2)


def test_no_termination_off_eigenvalue():
    pq = _ho_pq(2.5, depth=8)
    assert detect_termination(pq) is None
    assert pq.stop_level is None
    assert pq.depth == 8
    assert pq.p.shape == (9,)


# q[1] is of order 1e-9 there, far above the relative zero test
def test_detect_termination_near_eigenvalue_is_none():
    pq = _ho_pq(3.0 + 1e-9, depth=6)
    assert detect_termination(pq) is None


def test_pole_stop_reason():
    # numerator vanishes at the center without vanishing identically
    spec = ProblemSpec.from_strings("2 + x", "x - E", "E", x0=0.5, order=20, n_max=6)
    pq = pq_iterate(spec, 0.5)
    assert pq.stop_reason == "pole"
    assert pq.stop_level == 0


# a huge L does not make the O(1) input S count as zero at level 0
def test_level_zero_is_judged_on_its_own_scale():
    spec = ProblemSpec.from_strings("1e200*x", "1 - E", "E", x0=0.5, order=20, n_max=10)
    pq = pq_iterate(spec, 2.0)
    assert (pq.stop_level, pq.stop_reason) == (None, None)
    assert pq.depth == 10
    assert pq.q[0] == -1.0


# on the quartic the ladder stops on a vanishing q[3](x0), not on
# an identically zero q, so the fraction does not terminate
def test_quartic_pole_is_not_termination():
    spec = ProblemSpec.from_strings(
        "6*x", "x^4 - 9*x^2 + 3 - E", "E", x0=-1.5, order=80, n_max=40
    )
    pq = pq_iterate(spec, 1.0)
    assert (pq.stop_level, pq.stop_reason) == (3, "pole")
    assert detect_termination(pq) is None
