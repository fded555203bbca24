"""Convergence verdicts, backward-recurrence probes, asymptotic classification."""

import cmath
import math
import re

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aimcf import analysis as analysis_module
from aimcf import cf as cf_module
from aimcf.aim import ProblemSpec
from aimcf.analysis import (
    CaseLabel,
    Verdict,
    _default_schedule,
    birkhoff_adams,
    bound_check,
    characteristic_roots,
    classify,
    miller_minimal_ratio,
    monic_transform,
    parse_declared,
    pincherle_check,
    stern_seidel,
)
from aimcf.cf import cf_approximants, cf_equiv_unit
from aimcf.errors import (
    HypothesisViolated,
    InsufficientData,
    NoConvergence,
    NonPositiveP,
    ValidationError,
    ZeroB0,
    ZeroP,
    ZeroQ,
)

BESSEL_N = 240


def _bessel_pq(n=BESSEL_N):
    # recurrence of cylinder-function ratios at argument 1
    return 2.0 * np.arange(1, n + 1), -np.ones(n)


# ----------------------------------------------------------------------
# sum-based convergence verdicts


def test_verdict_converges_on_divergent_sum():
    rep = stern_seidel([1.0] * 60)
    assert rep.verdict is Verdict.CONVERGES
    assert rep.partial_sum == 60.0
    assert rep.mu == 1.0
    assert rep.product_bound == 60.0
    assert math.isinf(rep.exp_bound)


# [DERIVED] sum of 2^-n is 2, so the growth cap is e^4 ~ 54.598
def test_verdict_diverges_on_summable_terms():
    p = [2.0 ** (-n) for n in range(60)]
    rep = stern_seidel(p)
    assert rep.verdict is Verdict.DIVERGES
    assert rep.exp_bound == pytest.approx(math.exp(2.0 * rep.partial_sum))
    assert rep.exp_bound == pytest.approx(54.598, rel=1e-3)


# 2 * 400 is beyond math.exp's range; the bound is infinite, as in the other
# verdict branches, instead of an OverflowError
def test_diverges_verdict_on_huge_sum_has_infinite_bound():
    rep = stern_seidel([400.0] + [1e-14] * 20)
    assert rep.verdict is Verdict.DIVERGES
    assert rep.exp_bound == math.inf


def test_cauchy_tail_beats_threshold_crossing():
    # partial sum 62 exceeds the threshold 50, but the tail has converged
    p = [60.0] + [2.0 ** (-n) for n in range(60)]
    rep = stern_seidel(p)
    assert rep.partial_sum > 50.0
    assert rep.verdict is Verdict.DIVERGES


def test_verdict_inconclusive_between_regions():
    p = [1.0 / (n + 1) for n in range(60)]
    rep = stern_seidel(p)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert 4.6 < rep.partial_sum < 4.8


def test_verdict_input_guards():
    with pytest.raises(NonPositiveP):
        stern_seidel([1.0, 0.0, 1.0])
    with pytest.raises(ValidationError):
        stern_seidel([])


# NaN is neither > 0 nor <= 0, so the hypothesis check is written as the
# negation of p_n > 0; a NaN sample once came back as an Inconclusive verdict
def test_verdict_rejects_nan_p():
    with pytest.raises(NonPositiveP, match=r"^p\[1\] = nan violates p_n > 0$"):
        stern_seidel([1.0, math.nan, 2.0])


# soundness: a Converges verdict must come with Cauchy approximants
def test_converges_verdict_implies_cauchy_approximants():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = rng.uniform(1.0, 2.0, 201)
        rep = stern_seidel(p)
        assert rep.verdict is Verdict.CONVERGES
        state = cf_approximants(p, np.ones(201))
        assert abs(state.C[200] - state.C[190]) < 1e-8


# soundness: a Diverges verdict must show split even/odd limits
def test_diverges_verdict_implies_even_odd_gap():
    p = np.array([2.0 ** (-n) for n in range(51)])
    rep = stern_seidel(p)
    assert rep.verdict is Verdict.DIVERGES
    state = cf_approximants(p, np.ones(51))
    assert abs(state.C[50] - state.C[49]) > 1e-3
    # both subsequences settle while staying apart
    assert abs(state.C[50] - state.C[48]) < 1e-6
    assert abs(state.C[49] - state.C[47]) < 1e-6


# ----------------------------------------------------------------------
# unit-fraction increment bound


def test_bound_check_golden_row_equality():
    state = cf_approximants([1.0] * 52, [1.0] * 52)
    rows = bound_check(state)
    n, lhs, rhs, ok = rows[0]
    assert (n, lhs, rhs, ok) == (1, 0.5, 0.5, True)
    assert all(r[3] for r in rows)


def test_bound_check_random_corpus():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = rng.uniform(1.0, 3.0, 51)
        state = cf_approximants(p, np.ones(51))
        assert all(r[3] for r in bound_check(state))


def test_bound_check_hypothesis_guards():
    with pytest.raises(HypothesisViolated):
        bound_check(cf_approximants([1.0, 1.0], [1.0, 1.01]))
    with pytest.raises(HypothesisViolated):
        bound_check(cf_approximants([0.5, 1.0], [1.0, 1.0]))


# a NaN p_n or q_n fails its hypothesis check and is named there, instead of
# surfacing later as ZeroDenominator at level 1
@pytest.mark.parametrize(
    "pvals, qvals, where",
    [([1.0, math.nan, 2.0], [1.0] * 3, "p[1]"), ([1.0] * 3, [1.0, math.nan, 1.0], "q[1]")],
)
def test_bound_check_rejects_nan(pvals, qvals, where):
    with pytest.raises(HypothesisViolated) as info:
        bound_check(cf_approximants(pvals, qvals))
    assert str(info.value).startswith(f"{where} = nan")


# [DERIVED] denominator product lower bound, equality chain for p = 1
def test_denominator_product_lower_bound():
    state = cf_approximants([1.0] * 30, [1.0] * 30)
    mu = 1.0
    psum = 0.0
    for n in range(30):
        psum += 1.0
        assert state.B(n) * state.B(n - 1) >= mu * mu * psum


# ----------------------------------------------------------------------
# backward recurrence and the limit/minimal-ratio link


def test_minimal_ratio_constant_recurrences():
    n = 60
    got = miller_minimal_ratio([3.0] * n, [4.0] * n)
    assert got == pytest.approx(-1.0, abs=1e-12)
    golden = miller_minimal_ratio([1.0] * n, [1.0] * n)
    assert golden == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-12)


def test_minimal_ratio_rejects_periodic_recurrence():
    # t = 4, a period-6 rotation, has no minimal solution: the conjugate pair
    # stops Miller before an estimate a multiple of the period apart can fake
    # a settled one.  t = 1, a double root, has none either, and its
    # estimates drift without settling over successive depths
    n = 150
    with pytest.raises(NoConvergence, match=r"^the roots are a conjugate pair$"):
        miller_minimal_ratio([1.0] * n, [-1.0] * n)
    with pytest.raises(
        NoConvergence,
        match=r"^Miller's estimates -C_N did not settle over depths "
        r"\[37, 38, 74, 75, 111, 112, 148, 149\]$",
    ):
        miller_minimal_ratio([2.0] * n, [-1.0] * n)


def test_minimal_ratio_schedule_validation():
    # three levels leave one depth in 2..N, and Miller compares two
    with pytest.raises(ValidationError, match="at least 4 levels"):
        miller_minimal_ratio([3.0] * 3, [4.0] * 3)
    with pytest.raises(NoConvergence, match=r"over depths \[2, 3\]$"):
        miller_minimal_ratio([3.0] * 4, [4.0] * 4)
    with pytest.raises(ValidationError):
        miller_minimal_ratio([3.0] * 10, [4.0] * 9)


# [DERIVED] p = 2.1 c, q = -c^2 is the c = 1 recurrence under an equivalence
# transform, so its characteristic roots (2.1 +- sqrt(0.41)) / 2 scale by c
_ROOT_MIN, _ROOT_DOM = (2.1 - math.sqrt(0.41)) / 2.0, (2.1 + math.sqrt(0.41)) / 2.0


def test_minimal_ratio_survives_backward_underflow():
    # the backward values shrink by about 1e-10 a step and used to vanish at depth 49
    n = 200
    got = miller_minimal_ratio([2.1e10] * n, [-1e20] * n)
    assert got == pytest.approx(1e10 * 0.7298437881283536, rel=1e-14)


def test_dominant_ratio_survives_forward_underflow():
    # the forward values shrink by about 1e-10 a step and used to give nan
    rep = classify([2.1e-10] * 200, [-1e-20] * 200)
    assert rep.numeric_dominant_ratio == pytest.approx(1e-10 * _ROOT_DOM, rel=1e-14, abs=0.0)


# the monic samples leave double range: every level past it (-inf, so the
# perturbations inf - inf are NaN), or one level (a perturbation -inf)
def test_classify_monic_limit_past_double_range_runs_clean():
    rep = classify([1e-200] * 32, [1e200] * 32)
    assert rep.q_limit == -math.inf
    assert all(math.isnan(a) for a in rep.a_n_samples)
    p, q = [1.0] * 40, [1.0] * 40
    p[10] = p[11] = 1e-200
    q[11] = 1e200
    rep = classify(p, q)
    assert rep.q_limit == -4.0
    assert rep.a_n_samples[10] == -math.inf


@settings(max_examples=30, deadline=None)
@given(k=st.integers(-120, 120))
@example(k=-120)
@example(k=120)
def test_equivalence_transform_scales_probe_ratios(k):
    n, c = 200, math.ldexp(1.0, k)
    p, q = [2.1 * c] * n, [-c * c] * n
    assert miller_minimal_ratio(p, q) == pytest.approx(
        c * _ROOT_MIN, rel=1e-14, abs=0.0
    )
    assert classify(p, q).numeric_dominant_ratio == pytest.approx(
        c * _ROOT_DOM, rel=1e-14, abs=0.0
    )


def test_backward_pass_zero_q_blocks():
    q = [4.0] * 20
    q[7] = 0.0
    with pytest.raises(ZeroQ):
        miller_minimal_ratio([3.0] * 20, q)


# [DERIVED] B_0..B_3 = 1, 2, 4, 4 - 2 * 2 = 0: the backward pass planted at
# depth 3 ends on x_{-2} = 0, so its estimate has no value
def test_minimal_ratio_base_value_vanishes():
    with pytest.raises(NoConvergence, match=r"^base value vanished at depth 3$"):
        miller_minimal_ratio([1.0] * 8, [1, 1, 2, -2, 1, 1, 1, 1])


def _seeded_pq(n, seed):
    rng = np.random.default_rng(seed)
    return np.arange(1, n + 1) * rng.uniform(0.5, 2.0, n), rng.uniform(-2.0, 2.0, n)


_MILLER_CASES = {
    **{f"cylinder-z{z}": (2.0 * np.arange(1, 241) / z, -np.ones(240)) for z in (0.5, 1, 2)},
    "3-4": ([3.0] * 60, [4.0] * 60),
    "1-1": ([1.0] * 60, [1.0] * 60),
    "scaled": ([2.1e10] * 200, [-1e20] * 200),
    **{f"random-{seed}": _seeded_pq(240, seed) for seed in range(3)},
}


# Miller's backward pass planted at depth N with x_N = 0, x_{N-1} = 1 is the
# solution B_N A_n - A_N B_n up to a factor, so its estimate x_{-1}/x_{-2}
# is -A_N/B_N = -C_N; the reference runs that backward pass on the ratios
# rho_n = x_n / x_{n-1}, rho_{n-1} = q_n / (rho_n - p_n) from rho_N = 0
@pytest.mark.parametrize("name", list(_MILLER_CASES))
def test_miller_estimate_is_minus_approximant(name):
    p, q = (list(map(float, v)) for v in _MILLER_CASES[name])
    state = cf_approximants(p, q)
    for top in _default_schedule(len(p)):
        rho = 0.0
        for n in range(top, -1, -1):
            rho = q[n] / (rho - p[n])
        assert -state.C[top] == pytest.approx(rho, rel=4e-15, abs=0.0)
    res = pincherle_check(p, q)
    assert res.backward_ratio in [-state.C[top] for top in _default_schedule(len(p))]
    assert res.agreement == abs(res.cf_limit + res.backward_ratio)


# [DERIVED] limit 1, minimal ratio -1, so limit = -ratio with zero residual
def test_limit_ratio_link_constants():
    res = pincherle_check([3.0] * 60, [4.0] * 60)
    assert res.cf_limit == pytest.approx(1.0, abs=1e-12)
    assert res.backward_ratio == pytest.approx(-1.0, abs=1e-12)
    assert res.agreement < 1e-12
    assert type(res.backward_ratio) is float and type(res.agreement) is float


# [DERIVED] scipy oracle: fraction limit equals -J1(1)/J0(1)
def test_limit_ratio_link_cylinder_recurrence():
    p, q = _bessel_pq()
    res = pincherle_check(p, q)
    want = -sps.jv(1, 1.0) / sps.jv(0, 1.0)
    assert res.cf_limit == pytest.approx(want, abs=1e-10)
    assert res.agreement < 1e-10


# ----------------------------------------------------------------------
# monic normal form


def test_monic_transform_values():
    t, q_lim = monic_transform([3.0] * 10, [4.0] * 10)
    assert t == pytest.approx([-16.0 / 9.0] * 9)
    assert q_lim == pytest.approx(-16.0 / 9.0)
    p, q = _bessel_pq(10)
    t_b, q_b = monic_transform(p, q)
    assert t_b[0] == pytest.approx(0.5)
    assert abs(q_b) < abs(t_b[0])


def test_monic_transform_underflowing_product_is_not_zero_p():
    # p[0] * p[1] = 2e-400 underflows, yet t_1 = -4 q / (p[0] p[1]) = 2e100
    t, _ = monic_transform([1e-200 * (n + 1) for n in range(40)], [-1e-300] * 40)
    assert t[0] == pytest.approx(2e100, rel=1e-15)
    assert t[-1] == pytest.approx(4e100 / (39 * 40), rel=1e-15)
    # a normal product keeps the plain quotient
    t, _ = monic_transform([3.0, 0.7, 1e-3], [4.0, 5.0, 6.0])
    assert t == [-4.0 * 5.0 / (3.0 * 0.7), -4.0 * 6.0 / (0.7 * 1e-3)]


def test_monic_transform_guards():
    with pytest.raises(ZeroP, match="p\\[1\\] = 0"):
        monic_transform([3.0, 0.0, 3.0], [4.0, 4.0, 4.0])
    # every p_n zero: L(x0) = 0, where the fraction has no value
    with pytest.raises(ZeroP, match="symmetric centre"):
        monic_transform([0.0, -0.0, 0.0], [4.0, 4.0, 4.0])
    with pytest.raises(ValidationError):
        monic_transform([3.0], [4.0])


def test_characteristic_roots_branches():
    assert characteristic_roots(0.0) == (2.0 + 0.0j, 0.0 + 0.0j)
    r = characteristic_roots(0.75)
    assert r[0] == pytest.approx(1.5)
    assert r[1] == pytest.approx(0.5)
    pair = characteristic_roots(2.0)
    assert pair[0] == pytest.approx(1.0 + 1.0j)
    assert pair[1] == pytest.approx(1.0 - 1.0j)


# ----------------------------------------------------------------------
# classification


def test_classify_constants_is_growth_case():
    # t = -16/9 gives roots 1 +- 5/3, which times p/2 = 3/2 are 4 and -1
    rep = classify([3.0] * 60, [4.0] * 60)
    assert rep.case_label is CaseLabel.CASE_1A
    assert rep.q_limit == pytest.approx(-16.0 / 9.0)
    assert rep.numeric_dominant_ratio == pytest.approx(4.0, abs=1e-8)
    assert rep.numeric_minimal_ratio == pytest.approx(-1.0, abs=1e-8)
    assert rep.minimal_exists
    assert rep.consistency
    assert not any("authoritative" in note for note in rep.notes)


def _by_position(roots):
    return sorted(roots, key=lambda z: (round(z.real, 6), z.imag))


# [DERIVED] constant ratios r solve r^2 = p r + q; the monic roots
# 1 +- sqrt(1 - t) with t = -4 q / p^2, times p / 2, are exactly those.  A
# modulus gap of 1.5x lets Miller's algorithm settle within 200 levels; a
# complex pair has equal moduli and no minimal solution
@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.5, 4.0) | st.floats(-4.0, -0.5),
    q=st.floats(-4.0, -0.01) | st.floats(0.01, 4.0),
)
@example(p=3.0, q=4.0)
@example(p=2.1, q=-1.0)
@example(p=1.0, q=-1.0)
@example(p=2.0, q=-0.05)
@example(p=2.0, q=-3.0)
@example(p=2.5, q=-1.5)  # roots 1.5 and 1: a gap of exactly 1.5x
@example(p=1.0, q=6.0)  # roots 3 and -2
@example(p=-1.0, q=-1 / 3)  # t = 4/3: C_n has period 6, as do Miller's estimates
def test_constant_recurrence_roots_match_numpy(p, q):
    rep = classify([p] * 200, [q] * 200)
    want = _by_position(complex(z) for z in np.roots([1.0, -p, -q]))
    got = _by_position(r * p / 2.0 for r in rep.roots)
    assert got == pytest.approx(want, abs=1e-6 * max(1.0, abs(p)))
    small, big = sorted(abs(z) for z in want)
    if big >= 1.5 * small:
        assert rep.minimal_exists
        root_min = min(want, key=abs).real
        assert rep.numeric_minimal_ratio == pytest.approx(root_min, rel=1e-9, abs=1e-12)
    if rep.q_limit >= 1.1:
        assert not rep.minimal_exists
        assert rep.pincherle is None


# one rule decides the minimal solution: the public Miller functions return
# exactly where classify finds one and raise NoConvergence elsewhere, a
# conjugate pair included, whose period-6 estimates at t = 4/3 would settle
@pytest.mark.parametrize("t", [0.5, 0.99, 1.05, 1.2, 4 / 3, 1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, -1.0, -2.0])
def test_miller_functions_follow_classify_minimal_existence(p, t):
    pvals, qvals = [p] * 200, [-t * p * p / 4.0] * 200
    rep = classify(pvals, qvals)
    if rep.minimal_exists:
        assert pincherle_check(pvals, qvals) == rep.pincherle
        assert miller_minimal_ratio(pvals, qvals) == rep.numeric_minimal_ratio
    else:
        with pytest.raises(NoConvergence):
            pincherle_check(pvals, qvals)
        with pytest.raises(NoConvergence):
            miller_minimal_ratio(pvals, qvals)
    if t > 1.0:
        assert not rep.minimal_exists
        assert rep.notes[0] == "no minimal solution found: the roots are a conjugate pair"


def test_classify_small_perturbation_case():
    n = 220
    rep = classify([2.0] * n, [-0.05] * n)
    assert type(rep.numeric_dominant_ratio) is float
    assert type(rep.numeric_minimal_ratio) is float
    assert rep.case_label is CaseLabel.CASE_1A
    assert rep.numeric_dominant_ratio == pytest.approx(1.0 + math.sqrt(0.95), rel=1e-9)
    assert rep.numeric_minimal_ratio == pytest.approx(1.0 - math.sqrt(0.95), rel=1e-7)
    assert rep.minimal_exists
    assert rep.consistency


def test_classify_periodic_recurrence_lacks_minimal_solution():
    # t = 4 gives the conjugate pair 1 +- i sqrt(3) of equal modulus; the
    # growth modulus sqrt(|t|) p/2 = 1 matches the numeric one
    rep = classify([1.0] * 150, [-1.0] * 150)
    assert rep.case_label is CaseLabel.CASE_3
    assert not rep.minimal_exists
    assert math.isnan(rep.numeric_minimal_ratio)
    assert rep.consistency
    assert any("no minimal solution found" in note for note in rep.notes)


# no backward recurrence runs: the notes name what was checked, Pincherle's
# q_n != 0 and Miller's estimates -C_N over the listed depths
def test_classify_notes_name_the_checks():
    q = [4.0] * 40
    q[5] = 0.0
    assert classify([3.0] * 40, q).notes == (
        "no minimal solution found: q[5] = 0, but Pincherle's theorem needs every q_n != 0",
    )
    assert classify([0.5] * 100, [-1.0] * 100).notes == (
        "no minimal solution found: the roots are a conjugate pair",
    )


# a conjugate pair (t > 1) or a double root (t = 1) has no dominant solution:
# x_N / x_{N-1} of whichever column is larger would depend on the start, so
# the report carries NaN there and checks the growth modulus instead
@pytest.mark.parametrize(
    "p, q, n",
    [(-1.4731, -1.7126, 200), (0.5, -1.0, 100), (1.0, -1.0, 150), (2.0, -1.0, 100)],
)
def test_equal_root_moduli_report_no_dominant_ratio(p, q, n):
    rep = classify([p] * n, [q] * n)
    assert rep.roots[0] == rep.roots[1].conjugate()
    assert math.isnan(rep.numeric_dominant_ratio)
    assert rep.consistency


# a conjugate pair's solution x_n ~ |r|^n cos(n theta + phi): a growth modulus
# taken from x_{N/2} and x_N carried log |cos| of both into it and read
# 1.38724 here against |q|^(1/2) = 1.30866; the Casoratian
# x_n x_{n-2} - x_{n-1}^2 = -q (its value one step down) has no cosine in it
def test_classify_conjugate_pair_growth_from_casoratian():
    rep = classify([-1.4731] * 200, [-1.7126] * 200)
    assert rep.case_label is CaseLabel.CASE_3
    assert rep.consistency
    assert not any(note.startswith("equal root moduli") for note in rep.notes)


# a seeded scan of 150 constant conjugate pairs; a growth modulus read from
# two samples of x_n fails 2 of them
def test_classify_conjugate_pairs_are_consistent():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 150:
        p = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 4.0)
        q = -rng.uniform(0.01, 4.0)
        if p * p + 4.0 * q >= 0.0:
            continue
        checked += 1
        rng.integers(100)  # keeps the 150 pairs the scan has always drawn
        rep = classify([p] * 200, [q] * 200)
        assert rep.consistency, (p, q, rep.notes)


def test_classify_unit_limit_case():
    n = 240
    # q -> +1 means t -> -1: distinct real roots 1 +- sqrt(2), case 1
    q = [1.0] + [1.0 + (k + 1.0) ** (-3.0) for k in range(n - 1)]
    rep = classify([2.0] * n, q)
    assert rep.case_label is CaseLabel.CASE_1A
    assert rep.numeric_dominant_ratio == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-6)
    assert rep.minimal_exists
    assert rep.consistency
    # q -> -1 means t -> 1: the double root 1 with summable n |a_n|, case 2.
    # Solutions grow like 1 and n, so backward estimates creep by O(1/depth)
    # and Miller's algorithm does not stabilize; the growth modulus |r| p/2 = 1
    # still matches, as consistency is not minimal existence
    rep = classify([2.0] * n, [-v for v in q])
    assert rep.case_label is CaseLabel.CASE_2
    assert rep.q_limit == pytest.approx(1.0, abs=1e-6)
    assert not rep.minimal_exists
    assert rep.pincherle is None
    assert rep.consistency


# the minimal ratio is read at the backward probe's level, not at Miller's
# x_{-1}/x_{-2}, where a 1/n perturbation is largest: (p, q) from Miller are
# (1.70708, 0.615054) against roots (1.70708, 0.292918) in the first case
@pytest.mark.parametrize(
    "p, q",
    [
        (lambda n: 2.0 + 0.0 * n, lambda n: -0.5 * (1.0 + n**-2.0)),
        (lambda n: 3.0 * (1.0 + 1.0 / n), lambda n: 4.0 + 0.0 * n),
    ],
    ids=["q-perturbed", "p-perturbed"],
)
def test_classify_perturbed_constants_are_consistent(p, q):
    n = np.arange(1, 121, dtype=float)
    rep = classify(p(n), q(n))
    assert rep.case_label is CaseLabel.CASE_1A
    assert rep.consistency
    assert rep.notes == ()


# the cylinder data undeclared: t_n -> 0 as p_n = 2n grows, so the minimal
# root is taken from t at the probe's level, ~ -q/p = 1/(2n) there, not from
# the last level's t, which would predict 1.58e-3 against 2.76e-3
def test_classify_undeclared_growing_p_is_consistent():
    rep = classify(*_bessel_pq())
    assert rep.case_label is CaseLabel.CASE_1A
    assert rep.minimal_exists
    assert rep.consistency
    assert rep.notes == ()


# [DERIVED] p (1 + c/n^k), q (1 + d/n^j) has the ratio limits of (p, q): with
# roots 1.5x apart, both sides match at 240 levels, with no note
@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.5, 4.0) | st.floats(-4.0, -0.5),
    q=st.floats(-4.0, -0.01) | st.floats(0.01, 4.0),
    k=st.sampled_from([2, 3]),
    j=st.sampled_from([2, 3]),
    c=st.floats(-0.9, 2.0),
    d=st.floats(-0.9, 2.0),
)
@example(p=2.5, q=-1.5, k=2, j=2, c=2.0, d=-0.9)  # roots 1.5 and 1
def test_classify_perturbed_constant_recurrence_is_consistent(p, q, k, j, c, d):
    small, big = sorted(np.roots([1.0, -p, -q]), key=abs)
    assume(small.imag == 0.0 and abs(big) >= 1.5 * abs(small))
    n = np.arange(1, 241, dtype=float)
    rep = classify(p * (1.0 + c / n**k), q * (1.0 + d / n**j))
    assert rep.consistency, rep.notes
    assert rep.notes == ()


def test_classify_declared_power_law_cylinder():
    p, q = _bessel_pq()
    rep = classify(p, q, declared={"a": 2.0, "sigma": 1.0, "b": -1.0, "tau": 0.0})
    assert rep.case_label is CaseLabel.CASE_4A
    assert rep.power_law == (2.0, 1.0, -1.0, 0.0)
    assert rep.minimal_exists
    assert rep.consistency
    assert rep.notes == ()
    # a wrong-sign b predicts a minimal ratio of the wrong sign
    rep = classify(p, q, declared={"a": 2.0, "sigma": 1.0, "b": 1.0, "tau": 0.0})
    assert not rep.consistency
    (note,) = rep.notes
    assert "minimal at n=181" in note


def test_classify_declared_equal_exponent_power_law():
    # sigma = tau/2: lambda^2 = 2 lambda - 1 has the double root 1, so only the
    # growth modulus is predicted, and it is half the cylinder's 2n growth
    p, q = _bessel_pq()
    rep = classify(p, q, declared={"a": 2.0, "sigma": 1.0, "b": -1.0, "tau": 2.0})
    assert rep.case_label is CaseLabel.CASE_4B
    assert not rep.consistency
    (note,) = rep.notes
    assert note.startswith("equal root moduli")


# case 4b ratios are lambda n^sigma for both roots of lambda^2 = a lambda + b:
# 2 and -1 for (1, 1, 2, 2), 2 and 1 for (3, 1, -2, 2)
@pytest.mark.parametrize("a, sigma, b, tau", [(1, 1, 2, 2), (3, 1, -2, 2)])
def test_classify_declared_equal_exponent_power_law_consistent(a, sigma, b, tau):
    n = np.arange(1, 241, dtype=float)
    declared = {"a": a, "sigma": sigma, "b": b, "tau": tau}
    rep = classify(a * n**sigma, b * n**tau, declared=declared)
    assert rep.case_label is CaseLabel.CASE_4B
    assert rep.consistency
    assert rep.notes == ()


# [DERIVED] to first order the 4b ratios carry 1 -/+ sigma lambda_- /
# ((lambda_+ - lambda_-) n): roots -2.30 and -1.55, only 32% apart, predict
# -32013 and -13457 against numeric -31794 and -13590 (leading order:
# -33161 and -12870, the minimal side 5.3% off)
def test_classify_declared_close_roots_power_law_to_first_order():
    a, sigma, b, tau = -3.857, 2.0, -3.579, 4.0
    n = np.arange(1, 121, dtype=float)
    declared = {"a": a, "sigma": sigma, "b": b, "tau": tau}
    rep = classify(a * n**sigma, b * n**tau, declared=declared)
    assert rep.case_label is CaseLabel.CASE_4B
    assert rep.consistency
    assert not any("authoritative" in note for note in rep.notes)


@pytest.mark.parametrize(
    "declared",
    [
        {"sigma": 1.0, "tau": 0.0},
        {"a": 2.0, "sigma": 1.0, "tau": 0.0},
        {"sigma": 1.0, "b": -1.0, "tau": 0.0},
        {"a": 2.0, "sigma": 1.0, "b": 0.0, "tau": 0.0},
        {"a": 0.0, "sigma": 1.0, "b": -1.0, "tau": 0.0},
    ],
)
def test_classify_declared_power_law_needs_nonzero_scales(declared):
    with pytest.raises(ValidationError):
        classify(*_bessel_pq(), declared=declared)


# the declaration is checked before the sequences, so a short or all-zero-p
# recurrence cannot turn a malformed one into a numeric failure
@pytest.mark.parametrize("p, q", [([3.0] * 20, [4.0] * 20), ([0.0] * 60, [4.0] * 60)])
def test_classify_checks_declaration_first(p, q):
    with pytest.raises(ValidationError):
        classify(p, q, declared={"sigma": 1.0, "tau": 0.0})


# one declaration holds one kind: a power law beside 1/n-expansion data is
# rejected by the validator classify and the CLI share
def test_parse_declared_rejects_both_kinds():
    declared = {"a": 2.0, "sigma": 1.0, "b": -1.0, "tau": 0.0}
    declared.update(a_coeffs=[-3.0], b_coeffs=[-4.0])
    with pytest.raises(ValidationError, match="both"):
        parse_declared(declared)
    with pytest.raises(ValidationError, match="both"):
        classify(*_bessel_pq(), declared=declared)


# a declared value of the wrong type or a non-finite one is a ValidationError,
# neither truncated nor converted, and no bare ValueError or OverflowError
_POWER_LAW = {"a": 2.0, "sigma": 1.0, "b": -1.0, "tau": 0.0}
_EXPANSION = {"a_coeffs": [-3.0], "b_coeffs": [-4.0]}


@pytest.mark.parametrize(
    "key, value",
    [("k_max", k) for k in (2.5, "3", True, math.nan, math.inf)]
    + [("a", math.nan), ("sigma", "1"), ("b", True), ("tau", math.inf), ("sigma", 10**400)],
    ids=[
        *("k_max-" + k for k in ("2.5", "str", "bool", "nan", "inf")),
        *("a-nan", "sigma-str", "b-bool", "tau-inf", "sigma-10**400"),
    ],
)
def test_parse_declared_rejects_bad_values(key, value):
    declared = {**(_EXPANSION if key == "k_max" else _POWER_LAW), key: value}
    with pytest.raises(ValidationError, match=f"declared {key} must be"):
        parse_declared(declared)
    with pytest.raises(ValidationError, match=f"declared {key} must be"):
        classify(*_bessel_pq(), declared=declared)


def test_parse_declared_takes_numpy_numbers():
    power_law, _ = parse_declared({k: np.float64(v) for k, v in _POWER_LAW.items()})
    assert power_law == (2.0, 1.0, -1.0, 0.0)
    _, data = parse_declared({**_EXPANSION, "k_max": np.int64(3)})
    assert data == parse_declared({**_EXPANSION, "k_max": 3})[1]


# one real-number rule at every entry point: a sequence entry or declared
# coefficient that is not a real number, and a declared coefficient that is
# not finite, is a ValidationError naming it, never a bare ValueError or
# TypeError, a numeric failure, or a silent conversion
_CHECKED_CALLS = {
    "approximants-str": (lambda: cf_approximants(["x"], [1.0]), "'pvals[0]' must be a real"),
    "classify-str": (lambda: classify(["abc"] * 40, [1.0] * 40), "'pvals[0]' must be a real"),
    "miller-str": (lambda: miller_minimal_ratio(["a"] * 10, [1.0] * 10), "'pvals[0]' must be"),
    "unit-none": (lambda: cf_equiv_unit([None], [1.0]), "'pvals[0]' must be a real"),
    "pincherle-none": (lambda: pincherle_check([None] * 10, [1.0] * 10), "'pvals[0]' must be"),
    "stern-seidel-str": (lambda: stern_seidel(["2"]), "'pvals[0]' must be a real number"),
    "monic-bool": (lambda: monic_transform([True] * 5, [1.0] * 5), "'pvals[0]' must be a real"),
    "qvals-none": (lambda: cf_approximants([1.0, 2.0], [1.0, None]), "'qvals[1]' must be"),
    **{
        f"declared-{name}": (
            lambda value=value: classify(
                *_bessel_pq(), declared={"a_coeffs": [-3.0, value], "b_coeffs": [-4.0]}
            ),
            f"'a_coeffs[1]' must be {kind}",
        )
        for name, value, kind in (
            ("nan", math.nan, "finite"),
            ("inf", math.inf, "finite"),
            ("str", "-2", "a real number"),
            ("bool", True, "a real number"),
            ("none", None, "a real number"),
        )
    },
    "declared-nan-b0": (
        lambda: classify(*_bessel_pq(), declared={"a_coeffs": [math.nan], "b_coeffs": [1.0]}),
        "'a_coeffs[0]' must be finite",
    ),
    "spec-x0-str": (
        lambda: ProblemSpec.from_strings("x", "1 - E", x0="a", order=10, n_max=2),
        "series center must be a real number",
    ),
    "spec-n-max-float": (
        lambda: ProblemSpec.from_strings("x", "1 - E", x0=0.0, order=10, n_max=2.5),
        "n_max must be an integer",
    ),
    "spec-order-float": (
        lambda: ProblemSpec.from_strings("x", "1 - E", x0=0.0, order=10.0, n_max=2),
        "order must be an integer",
    ),
}


@pytest.mark.parametrize("call, message", _CHECKED_CALLS.values(), ids=_CHECKED_CALLS.keys())
def test_entry_points_apply_one_real_number_rule(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


# a declaration outside the covered cases predicts nothing; its note still
# follows the probe notes
def test_classify_uncovered_power_law_note_follows_probe_notes():
    declared = {"a": 1.0, "sigma": 0.0, "b": -1.0, "tau": 1.0}
    rep = classify([1.0] * 150, [-1.0] * 150, declared=declared)
    assert rep.case_label is CaseLabel.UNCLASSIFIED
    assert not rep.consistency
    assert [note.split(":")[0] for note in rep.notes] == [
        "no minimal solution found",
        "declared growth has sigma < tau/2, outside the covered cases",
    ]


def _own_declaration_ok(a, b, sigma, tau, size):
    """Whether the leading Perron-Kreuser ratios hold well inside size levels:
    roots apart by 30% and a first-order relative correction of at most 2%
    at 0.75 size, (b/a^2) n^(tau-2 sigma) in case 4a and
    sigma |lambda_-| / (|lambda_+ - lambda_-| n) in case 4b."""
    n = 0.75 * size
    if sigma > tau / 2.0:
        return abs(b) / a**2 * n ** (tau - 2.0 * sigma) <= 0.02
    lo, hi = sorted(np.roots([1.0, -a, -b]), key=abs)
    apart = abs(hi) - abs(lo) >= 0.3 * abs(hi)
    return apart and sigma * abs(lo) <= 0.02 * n * abs(hi - lo)


_SCALES = st.floats(0.25, 4.0).flatmap(lambda v: st.sampled_from([v, -v]))


# a recurrence built from its own declaration is consistent on both sides
@given(
    a=_SCALES,
    b=_SCALES,
    sigma=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    tau_pick=st.sampled_from([0.0, 0.5, 1.0, 2.0, "2sigma", 3.0]),
    size=st.sampled_from([120, 180, 240]),
)
@settings(max_examples=80, deadline=None)
def test_classify_own_power_law_is_consistent(a, b, sigma, tau_pick, size):
    tau = 2.0 * sigma if tau_pick == "2sigma" else tau_pick
    assume(sigma >= tau / 2.0 and _own_declaration_ok(a, b, sigma, tau, size))
    n = np.arange(1, size + 1, dtype=float)
    declared = {"a": a, "sigma": sigma, "b": b, "tau": tau}
    rep = classify(a * n**sigma, b * n**tau, declared=declared)
    case = CaseLabel.CASE_4A if sigma > tau / 2.0 else CaseLabel.CASE_4B
    assert rep.case_label is case
    assert rep.consistency, rep.notes
    assert rep.notes == ()


def test_classify_declared_expansion_constants():
    rep = classify(
        [3.0] * 60,
        [4.0] * 60,
        declared={"a_coeffs": [-3.0], "b_coeffs": [-4.0], "k_max": 4},
    )
    assert rep.case_label is CaseLabel.CASE_5A
    ba = rep.ba_data
    assert ba is not None
    assert ba.r_pm[0] == pytest.approx(4.0)
    assert ba.r_pm[1] == pytest.approx(-1.0)
    assert rep.consistency


def test_classify_input_guards():
    with pytest.raises(InsufficientData):
        classify([3.0] * 30, [4.0] * 30)
    with pytest.raises(ValidationError):
        classify([3.0] * 40, [4.0] * 40, declared={"nonsense": 1})
    with pytest.raises(ValidationError):
        classify([3.0] * 40, [4.0] * 39)


# one (p, q) check, with one message, guards every entry point that takes
# the two sequences
@pytest.mark.parametrize(
    "call",
    [cf_approximants, cf_equiv_unit, monic_transform, classify, pincherle_check],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "pvals, qvals",
    [([3.0] * 40, [4.0] * 39), ([], []), ([[3.0] * 40], [[4.0] * 40]), (3.0, 4.0)],
    ids=["lengths", "empty", "2-d", "scalar"],
)
def test_pq_pairs_share_one_check(call, pvals, qvals):
    with pytest.raises(ValidationError, match=r"^pvals and qvals must be equal-length 1-d sequences$"):
        call(pvals, qvals)


# a non-finite sample is an input error raised before any probe; these once
# came back as reports (nan q_limit, inf dominant ratio, case 1a) or as the
# numeric error ZeroDenominator
@pytest.mark.parametrize(
    "pvals, qvals, where",
    [
        ([3.0] * 40, [4.0] * 39 + [math.nan], "qvals[39] = nan"),
        ([3.0] * 39 + [math.inf], [4.0] * 40, "pvals[39] = inf"),
        ([3.0] * 20 + [math.nan] + [3.0] * 19, [4.0] * 40, "pvals[20] = nan"),
        ([math.nan] * 40, [1.0] * 40, "pvals[0] = nan"),
    ],
)
def test_classify_rejects_non_finite_samples(pvals, qvals, where):
    entry, value = where.split(" = ")
    with pytest.raises(ValidationError) as info:
        classify(pvals, qvals)
    # the message of the package's one real-number rule, as the CLI writes it
    assert str(info.value) == f"'{entry}' must be finite, got {value}"


# every solution is x_{-2} A_n + x_{-1} B_n, so the dominant ratio and the
# growth come off the fraction's forward run, which also gives Miller's
# estimates; the only other run is the tail's from level 3N/4 + 1, and the
# q products of the determinant check are never run
def test_classify_runs_the_recurrence_twice(monkeypatch):
    runs = []
    q_products = cf_module._q_products

    def approximants(p, q):
        runs.append(len(p))
        return cf_approximants(p, q)

    def products(state):
        runs.append(state.depth + 1)
        return q_products(state)

    monkeypatch.setattr(analysis_module, "cf_approximants", approximants)
    monkeypatch.setattr(cf_module, "_q_products", products)
    rep = classify(*_bessel_pq())
    assert runs == [240, 60]
    assert rep.minimal_exists and rep.consistency


# [DERIVED] the minimal ratio at m = 29 is minus the tail from level 30, which
# a zero q_n ends as it ends any fraction: q_30 = 0 gives 0, the predicted
# -q_30 / p_30; q_35 = 0 leaves 4 / (3 + 4 / (3 + ...)) over levels 30..34,
# about 1 (x = 4 / (3 + x)); q_5 = 0 leaves the tail whole, where it blocks
# only Miller's estimates, which reach across it
@pytest.mark.parametrize("k, minimal_exists", [(5, False), (30, True), (35, True)])
def test_zero_q_ends_the_tail_probe(k, minimal_exists):
    q = [4.0] * 40
    q[k] = 0.0
    rep = classify([3.0] * 40, q)
    assert rep.consistency
    assert not any(note.startswith("predicted ratios") for note in rep.notes)
    assert rep.minimal_exists is minimal_exists


# ----------------------------------------------------------------------
# expansion data for 1/n coefficient series


# [DERIVED] constant coefficients: roots 4, -1; exponents 0; flat correction
def test_expansion_constant_coefficients():
    ba = birkhoff_adams([-3.0], [-4.0], k_max=4)
    assert ba.r_pm[0] == pytest.approx(4.0, abs=1e-12)
    assert ba.r_pm[1] == pytest.approx(-1.0, abs=1e-12)
    assert ba.alpha_pm is not None
    assert abs(ba.alpha_pm[0]) < 1e-12
    assert abs(ba.alpha_pm[1]) < 1e-12
    for row in ba.c_table:
        assert row[0] == 1.0
        for c in row[1:]:
            assert abs(c) < 1e-12
    assert ba.double_root is None
    assert ba.equal_exponent is None


# [DERIVED] hand arithmetic: gamma = +/-2i, alpha~ = 3/4, bracket = -17
def test_expansion_double_root_branch():
    ba = birkhoff_adams([-2.0, 0.0], [1.0, 1.0], k_max=2)
    d = ba.double_root
    assert d is not None
    assert d.r == pytest.approx(1.0)
    assert d.gamma_pm[0] == pytest.approx(2.0j)
    assert d.gamma_pm[1] == pytest.approx(-2.0j)
    assert d.alpha_tilde == pytest.approx(0.75)
    assert d.c1_pm[0] == pytest.approx(17.0j / 48.0)
    assert d.c1_pm[1] == pytest.approx(-17.0j / 48.0)
    assert ba.equal_exponent is None


# [DERIVED] b2 sweeps the reduced quadratic through all three exponent gaps
@pytest.mark.parametrize(
    "b2, subcase, log_flag, gap",
    [
        (-0.25, "i", False, math.sqrt(2.0)),
        (0.0, "ii", True, 1.0),
        (0.25, "iii", False, 0.0),
    ],
)
def test_expansion_equal_exponent_subcases(b2, subcase, log_flag, gap):
    ba = birkhoff_adams([-2.0, 0.0, 0.0], [1.0, 0.0, b2], k_max=1)
    ee = ba.equal_exponent
    assert ee is not None
    assert ee.subcase == subcase
    assert ee.log_term_possible is log_flag
    assert abs(ee.gap - gap) < 1e-12
    assert ba.double_root is None


def test_expansion_input_guards():
    with pytest.raises(ZeroB0):
        birkhoff_adams([-3.0], [0.0], k_max=2)
    with pytest.raises(ValidationError):
        birkhoff_adams([-3.0], [-4.0], k_max=0)
    with pytest.raises(ValidationError, match=r"^k_max must be <= 64, got 65$"):
        birkhoff_adams([-3.0], [-4.0], k_max=65)
    with pytest.raises(ValidationError, match="k_max"):
        parse_declared({"a_coeffs": [-3.0], "b_coeffs": [-4.0], "k_max": 10**9})
    # the bound is inclusive; a double root does not build the k_max table
    assert birkhoff_adams([-2.0, 0.0], [1.0, 1.0], k_max=64).double_root is not None
    with pytest.raises(ValidationError):
        birkhoff_adams([], [-4.0], k_max=2)
