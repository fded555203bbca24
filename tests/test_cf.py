"""Approximant recurrence, determinant identity, termination, unit rescaling."""

import contextlib
import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimcf import cf
from aimcf.aim import ProblemSpec, _ladder, aim_iterate
from aimcf.cf import (
    TERMINATION_REL,
    PQSequences,
    alpha_partial_sums,
    cf_approximants,
    cf_determinants,
    cf_equiv_unit,
    detect_termination,
    pq_iterate,
    terminated_alpha,
)
from aimcf.errors import (
    AimError,
    ConditioningWarning,
    DeterminantMismatchWarning,
    Overflow,
    SingularPivot,
    ValidationError,
    ZeroDenominator,
    ZeroPartialNumerator,
)
from aimcf.series import series_div


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


# only the larger of |A_n| and |B_n| is kept in the band: B_0 = 1e-200 and
# B_1 = 2e-200 are stored as themselves, and their product underflows to 0
def test_partial_sums_survive_tiny_denominators():
    state = cf_approximants([1e-200, 1.0], [1.0, 1e-200])
    assert state.C.tolist() == [1e200, 5e199]
    assert alpha_partial_sums(state).tolist() == [1e200, 5e199]


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


# the running scale d = 1 / (q[n] d) leaves double range: q[2] d = 1e300 *
# 1e300 overflows, so d reaches 0 (and 1 / 0 follows); q[2] d = 1e-200 *
# 1e-200 underflows to 0, so d would be 1 / 0.  Each raises Overflow, which
# the diagnose command reports as skipped unit-form diagnostics, and emits no
# numpy warning (the suite turns a RuntimeWarning into a failure)
@pytest.mark.parametrize(
    "qvals",
    [[1.0, 1e-300, 1e300, 1.0], [1.0, 1e200, 1e-200, 1e-200]],
    ids=["scale-to-zero", "scale-to-inf"],
)
def test_equiv_unit_scale_out_of_range_raises_overflow(qvals):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Overflow):
            cf_equiv_unit([1.0] * 4, qvals)


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


_COEF = st.one_of(st.just(0.0), st.floats(1 / 16, 16), st.floats(-16, -1 / 16))


# [DERIVED] scaling p by c and q by c^2 scales A[n] by c^(n+2) and B[n] by
# c^(n+1), so C by c; with c = 2^k the power-of-two mantissas make it exact
@settings(max_examples=60, deadline=None)
@given(k=st.integers(-120, 120), pq=st.lists(st.tuples(_COEF, _COEF), min_size=1, max_size=30))
@example(k=120, pq=[(3.0, 4.0)] * 30)
@example(k=-120, pq=[(3.0, 4.0)] * 30)
def test_equivalence_transform_scales_approximants_exactly(k, pq):
    p, q = (list(v) for v in zip(*pq))
    base = cf_approximants(p, q)
    scaled = cf_approximants([math.ldexp(v, k) for v in p], [math.ldexp(v, 2 * k) for v in q])
    np.testing.assert_array_equal(scaled.C, np.ldexp(base.C, k))


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


def _run_recurrence(p, q, x2, x1):
    """Reference runner: solutions of x[n] = p[n] x[n-1] + q[n] x[n-2] on
    shared power-of-two exponents, one list per step; solution k at step i is
    ``rows[i][k] * 2**exps[i]``, so step i holds x[i - 2]."""
    lo, hi = 1.0 / cf._BAND, cf._BAND
    rows, exps, e = [x2, x1], [0, 0], 0
    for pn, qn in zip(p, q):
        new = [pn * a + qn * b for a, b in zip(x1, x2)]
        big = max(map(abs, new))
        if not lo <= big <= hi:
            shift = -math.frexp(big)[1]
            x1 = [cf._ldexp_safe(v, shift) for v in x1]
            new = [math.ldexp(v, shift) for v in new]
            e -= shift
        x2, x1 = x1, new
        rows.append(new)
        exps.append(e)
    return rows, exps


def _reference_run(p, q):
    """A and B mantissas, their exponents, the q products' mantissas and
    exponents, C, v, the determinant warnings and the partial sums' outcome,
    from the reference runner."""
    rows, exps = _run_recurrence(p, q, [1.0, 0.0], [0.0, 1.0])
    a, b = (list(col) for col in zip(*rows))
    prods, prod_exps = _run_recurrence(q, [0.0] * len(q), [0.0], [1.0])
    c = [x / y if y != 0.0 else math.nan for x, y in zip(a[2:], b[2:])]
    v, worst, sums, acc, failed = [], 0.0, [], 0.0, None
    for i in range(1, len(rows)):
        left, right, e2 = a[i] * b[i - 1], a[i - 1] * b[i], exps[i] + exps[i - 1]
        v.append(cf._ldexp_safe(left - right, e2))
        if i == 1:
            continue
        n = i - 2
        expected = prods[i][0] if n % 2 == 0 else -prods[i][0]
        got = cf._ldexp_safe(left - right, e2 - prod_exps[i])
        noise = 64.0 * (n + 2) * np.finfo(float).eps * cf._ldexp_safe(
            abs(left) + abs(right), e2 - prod_exps[i]
        )
        denom = max(abs(expected), 1e-300)
        err = abs(got - expected)
        if err > cf.DETERMINANT_RTOL * denom + noise:
            worst = max(worst, err / denom)
        if failed:
            continue
        if b[i] == 0.0 or b[i - 1] == 0.0:
            failed = ("ZeroDenominator", f"B[{n if b[i] == 0.0 else n - 1}] = 0")
            continue
        # split each B mantissa, whose product may underflow though neither is 0
        (m1, x1), (m2, x2) = math.frexp(b[i]), math.frexp(b[i - 1])
        term = prods[i][0] / (m1 * m2)
        acc += (1.0 if n % 2 == 0 else -1.0) * cf._ldexp_safe(term, prod_exps[i] - e2 - x1 - x2)
        sums.append(acc)
    warned = [f"determinant product identity off by relative {worst:.3e}"] if worst else []
    products = [r[0] for r in prods[2:]], prod_exps[2:]
    return a, b, exps, products, c, v, warned, failed or ("sums", _bits(sums))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


_SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])


@st.composite
def _wild_pq(draw):
    """p and q of length 1..300 with |entries| from 1e-200 to 1e200, so the
    band rescale fires both ways, and a few zero, inf and NaN entries."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, q = (
        (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-200, 200, n)).tolist()
        for _ in range(2)
    )
    for seq in (p, q):
        for k in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            seq[k] = draw(_SPECIALS)
    return p, q


# the approximant and q-product loops run the reference three-term runner's
# operations in its order, so every mantissa, exponent, C, v, warning and
# partial sum is the same double
@settings(max_examples=150, deadline=None)
@given(pq=_wild_pq())
@example(pq=([3.0] * 300, [4.0] * 300))
@example(pq=([1e200, 1e-200, math.nan], [1e-200, math.inf, 0.0]))
# a rescale that overflows the pair before the newest one: B[0] = 2^299 goes
# to inf, and so does the q product q[0] = 2^300 past a subnormal q[1]
@example(pq=([2.0**299, 1e-300, 1.0], [1.0, -1e-300 * 2.0**299, 1.0]))
@example(pq=([1.0, 1.0, 1.0], [2.0**300, 5e-324, 1.0]))
def test_approximant_loops_match_reference_runner(pq):
    a, b, exps, (prods, prod_exps), c, v, warned, sums = _reference_run(*pq)
    state = cf_approximants(*pq)
    assert (_bits(state._mant_a), _bits(state._mant_b)) == (_bits(a), _bits(b))
    assert state._exp2 == tuple(exps)
    got_prods, got_prod_exps = cf._q_products(state)
    assert (_bits(got_prods), got_prod_exps) == (_bits(prods), prod_exps)
    assert _bits(state.C) == _bits(c)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got_v = cf_determinants(state)
    assert _bits(got_v) == _bits(v)
    assert [str(w.message) for w in caught if w.category is DeterminantMismatchWarning] == warned
    try:
        got_sums = ("sums", _bits(alpha_partial_sums(state)))
    except ZeroDenominator as exc:
        got_sums = (type(exc).__name__, str(exc))
    assert got_sums == sums


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
# in the ladder, not in the recurrence.  Near E = 2 and x0 = 0 the linear
# problem's q_1(x0) nearly vanishes, q_1'/q_1 has a pole beside x0 and the
# coefficients leave double range: both ladders raise the same Overflow there
@pytest.mark.filterwarnings("ignore::aimcf.errors.ConditioningWarning")
@example(problem=HO[:2], x0=2.2250738585e-313, energy=2.0)
@example(problem=HO[:2], x0=5e-324, energy=1.5)
@example(problem=HO[:2], x0=6.560974342087148e-118, energy=3.0)
@example(problem=("2 + x", "x - E"), x0=1e-09, energy=2.0)
@given(
    problem=st.sampled_from([HO[:2], ("6*x", "x^4 - 9*x^2 + 3 - E"), ("2 + x", "x - E")]),
    x0=st.floats(min_value=-1.5, max_value=1.5),
    energy=st.floats(min_value=0.5, max_value=11.5),
)
@settings(max_examples=40, deadline=None)
def test_approximants_are_ladder_values(problem, x0, energy):
    spec = ProblemSpec.from_strings(*problem, "E", x0=x0, order=40, n_max=12)
    try:
        pq = pq_iterate(spec, energy)
    except AimError:
        args = (problem, x0, energy, 12, 40)
        got = _pq_outcome(pq_iterate, *args)
        assert got == _pq_outcome(reference_pq_iterate, *args)
        assert got[0] is Overflow
        return
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


# ----------------------------------------------------------------------
# the raw-array ladder against its series-arithmetic form


def reference_pq_iterate(spec, param_value):
    """The ladder in TaylorSeries arithmetic, level by level, as an oracle."""
    p_ser, q_ser = spec.series_pair(param_value)
    p, q = [p_ser.at_center], [q_ser.at_center]
    scale = 1e-300
    stop = (None, None)
    for level in range(spec.n_max + 1):
        q_max = float(np.max(np.abs(q_ser.coeffs)))
        scale = max(scale, float(np.max(np.abs(p_ser.coeffs))), q_max)
        tiny = TERMINATION_REL * (scale if level else q_max)
        if q_max <= (tiny if level else 0.0):
            stop = (level, "termination")
            break
        if level == spec.n_max:
            break
        if abs(q_ser.at_center) <= tiny:
            stop = (level, "pole")
            break
        ratio = series_div(q_ser.diff(), q_ser)
        p_ser, q_ser = p_ser + ratio, (q_ser + p_ser.diff()) - p_ser * ratio
        p.append(p_ser.at_center)
        q.append(q_ser.at_center)
    return PQSequences(np.array(p), np.array(q), *stop)


def _pq_outcome(fn, problem, x0, energy, n_max, order):
    """Value bytes and stop, or the error type, and the warning types of one run."""
    spec = ProblemSpec.from_strings(*problem, "E", x0=x0, order=order, n_max=n_max)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            pq = fn(spec, energy)
        except AimError as exc:
            value = type(exc)
        else:
            value = (pq.p.tobytes(), pq.q.tobytes(), pq.stop_level, pq.stop_reason)
    return value, [w.category for w in caught]


PIN_PROBLEMS = {
    "oscillator": HO[:2],
    "quartic": ("6*x", "x^4 - 9*x^2 + 3 - E"),
    "constant": ("3", "4 + 0*E"),
    "linear": ("2 + x", "x - E"),
    "rational": ("1/(10 + x)", "x - E"),
    "huge-lambda": ("1e200*x", "1 - E"),
    # at x0 = 0, E = 0.5: p[0] = -0.0, and p[1] = -0.0 + 0.0 / 0.5 = +0.0
    "negx": ("-x", "1 - E"),
    # q flat at level 0 but p not linear: that level divides, and q is not
    # flat after it
    "flat-q-quadratic-p": ("2*x + x^2", "1 - E"),
    "flat-q-square-p": ("x^2", "2 - E"),
    # p identically +-0.0
    "zero-p": ("0*x", "1 - E"),
}


@pytest.mark.parametrize("problem", PIN_PROBLEMS.values(), ids=PIN_PROBLEMS.keys())
def test_pq_iterate_matches_series_ladder(problem):
    grid = itertools.product(
        (0.0, 0.5, -1.3), (0.5, 3.0, 7.25), ((5, 7), (12, 40), (40, 80))
    )
    for x0, energy, (n_max, order) in grid:
        args = (problem, x0, energy, n_max, order)
        assert _pq_outcome(pq_iterate, *args) == _pq_outcome(reference_pq_iterate, *args), args


# L = a + b x and S = c - E keep q constant in x and p linear at every level,
# so after level 0 the ladder runs on p[0], p[1] and q[0] alone; signed zeros,
# subnormal and near-overflow coefficients must give the series ladder's bytes,
# stops, warnings and errors
_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e300, -1e300, 1.7e308]),
    st.floats(min_value=-3.0, max_value=3.0),
)


@given(
    a=_EDGE_FLOATS,
    b=_EDGE_FLOATS,
    c=_EDGE_FLOATS,
    x0=_EDGE_FLOATS,
    energy=st.sampled_from([0.0, -0.0, 0.5, 3.0, 1e300]),
    depth=st.sampled_from([(5, 7), (12, 40), (40, 80)]),
)
@settings(max_examples=60, deadline=None)
def test_pq_iterate_matches_series_ladder_on_linear_p_flat_q(a, b, c, x0, energy, depth):
    args = ((f"{a!r} + {b!r}*x", f"{c!r} - E"), x0, energy, *depth)
    assert _pq_outcome(pq_iterate, *args) == _pq_outcome(reference_pq_iterate, *args)


# each case reaches the edge it is listed for: an overflow (of a sum or
# product, of the quotient, of q' before the division could warn, or of q[0]
# where q is constant in x and p linear), a pole, a false or a true
# termination, a level just above the zero test, a conditioning warning, a
# pivot below EPS_PIVOT on a level whose q is constant in x
@pytest.mark.parametrize(
    "problem, x0, energy, n_max, order, edge",
    [
        (("2 + x", "x - E"), 1.000000001, 1.0, 12, 40, (Overflow, [])),
        (("1e300*x", "x - E"), 0.5, 0.4999999999, 10, 20, (Overflow, [])),
        (("x", "1e306 + 1e307*x^40"), 0.0, 1.0, 40, 44, (Overflow, [])),
        (("2 + x", "x - E"), 0.5, 0.5, 6, 20, ("pole", [])),
        (PIN_PROBLEMS["quartic"], 0.5, 3.0, 40, 80, ("termination", [])),
        (PIN_PROBLEMS["quartic"], 0.3, 7.25, 40, 80, ("pole", [ConditioningWarning])),
        (PIN_PROBLEMS["rational"], 0.0, 2.0, 40, 80, ("pole", [ConditioningWarning])),
        (HO[:2], 6.560974342087148e-118, 3.0, 12, 40, ("termination", [])),
        (("-2.5e-300*x", "3e-300 - E"), 0.0, 0.0, 10, 20, (SingularPivot, [])),
        # q[0] grows by 1e307 a level while q stays flat and p linear
        (("1e307*x", "1 - E"), 0.3, 2.0, 30, 40, (Overflow, [])),
        # q[1] = 1.5e-12 of the scale, constant in x: just above the zero test
        (("1e300*x", "-9.999999999985e299 - E"), 0.0, 0.0, 12, 40, (None, [])),
    ],
)
def test_pq_iterate_matches_series_ladder_at_edges(problem, x0, energy, n_max, order, edge):
    args = (problem, x0, energy, n_max, order)
    got = _pq_outcome(pq_iterate, *args)
    assert got == _pq_outcome(reference_pq_iterate, *args)
    value, caught = got
    assert (value if isinstance(value, type) else value[3], caught) == edge


# once q is constant in x and p linear, every later level is too and runs
# no division and no Cauchy product; a level whose q is constant but whose p
# is not linear runs one of each, as any other level does
@pytest.mark.parametrize(
    "problem, calls_per_level",
    [(HO[:2], 0), (PIN_PROBLEMS["linear"], 1), (PIN_PROBLEMS["flat-q-quadratic-p"], 1)],
    ids=["oscillator", "linear", "flat-q-quadratic-p"],
)
def test_pq_iterate_skips_division_where_q_is_constant(monkeypatch, problem, calls_per_level):
    calls = {"_divide": 0, "_mul": 0}

    def counted(name, kernel):
        def call(a, b):
            calls[name] += 1
            return kernel(a, b)

        return call

    for name in calls:
        monkeypatch.setattr(cf, name, counted(name, getattr(cf, name)))
    spec = ProblemSpec.from_strings(*problem, "E", x0=0.3, order=80, n_max=40)
    levels = pq_iterate(spec, 7.25).depth
    assert levels > 0
    assert calls == {"_divide": calls_per_level * levels, "_mul": calls_per_level * levels}


# [DERIVED] on the oscillator p[n] = 2 x0 and q[n] = q[n-1] + 2 exactly: q is
# constant in x at every level and p' = 2
@pytest.mark.parametrize(
    "x0, energy", [(0.3, 7.25), (-1.3, 2.0), (0.0, 0.5), (1.5, 40.5), (2.5e-310, 1e6)]
)
def test_oscillator_ladder_is_closed_form(x0, energy):
    spec = ProblemSpec.from_strings(*HO, x0=x0, order=80, n_max=40)
    pq = pq_iterate(spec, energy)
    assert (pq.stop_reason, pq.depth) == (None, 40)
    assert pq.q[0] == 1.0 - energy
    for n in range(pq.depth + 1):
        assert pq.p[n] == 2.0 * x0
        assert n == 0 or pq.q[n] == pq.q[n - 1] + 2.0


def _hermite_alpha(energy, x0):
    """-y'/y at x0 of the oscillator solution recessive toward sign(x0) * inf,
    with nu = (E - 1) / 2 not an integer: -2 nu H_{nu-1}(x0) / H_nu(x0) for
    x0 > 0, and the mirror image +2 nu H_{nu-1}(-x0) / H_nu(-x0) for x0 < 0."""
    nu = (energy - 1) / 2
    ratio = float(2 * nu * mpmath.hermite(nu - 1, abs(x0)) / mpmath.hermite(nu, abs(x0)))
    return -ratio if x0 > 0 else ratio


def _ho_approximants(energy, x0, depth=40):
    return cf_approximants(*_ho_pq(energy, x0, max(80, depth + 2), depth)[:2]).C


# [DERIVED] at a non-eigenvalue E the oscillator's fraction never terminates,
# and its approximants converge pointwise to the recessive solution's alpha.
# The error falls like exp(-2 sqrt(2) |x0| sqrt(n)): measured over this grid
# at n = 10, 20 and 40, error / exp(...) lies in 1.05..10.3, pinned as 1..11.
# (E, x0) = (4.4, 0.5) is left out: it lies next to a zero of H_nu, where the
# limit is 42.76 and the ratio about 750.  At E = 7.25 and n = 40 the error is
# 1.6e-2 at |x0| = 0.3, 1.9e-4 at 0.5, 5.6e-8 at 1.0 and 1.2e-11 at 1.5.
@pytest.mark.parametrize(
    "energy, x0",
    [(e, x) for e in (2.0, 4.4, 7.25) for x in (0.3, -0.3, 1.0, 1.5, -1.5)] + [(7.25, 0.5)],
)
def test_approximants_converge_to_recessive_hermite_ratio(energy, x0):
    c, want = _ho_approximants(energy, x0), _hermite_alpha(energy, x0)
    for n in (10, 20, 40):
        error = abs(c[n] - want)
        assert 1.0 <= error / math.exp(-2.0 * math.sqrt(2.0) * abs(x0) * math.sqrt(n)) <= 11.0
    assert np.array_equal(_ho_approximants(energy, -x0), -c)


# near the symmetric centre that rate is too slow to show: at x0 = 0.05 and
# E = 7.25 the approximants still swing far from the limit 44.14 at n = 200
def test_approximants_near_symmetric_centre_have_not_converged():
    c, want = _ho_approximants(7.25, 0.05, depth=200), _hermite_alpha(7.25, 0.05)
    assert want == pytest.approx(44.1446, abs=1e-4)
    for n, got in ((50, -60.317), (100, -175.340), (200, 182.944)):
        assert c[n] == pytest.approx(got, abs=1e-3)
        assert abs(c[n] - want) > 100.0


# [DERIVED] constant p = 3, q = 4: q' = 0, so every level repeats them exactly
def test_constant_fraction_ladder_is_exact():
    for x0 in (0.0, 0.7, -1.9):
        spec = ProblemSpec.from_strings("3", "4 + 0*E", "E", x0=x0, order=64, n_max=60)
        pq = pq_iterate(spec, 1.0)
        assert pq.depth == 60
        assert np.all(pq.p == 3.0) and np.all(pq.q == 4.0)
