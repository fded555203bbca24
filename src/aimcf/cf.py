"""Continued-fraction reformulation of the iteration ladder.

The ratio alpha = S/L solved by the ladder satisfies a continued fraction
whose partial numerators and denominators come from the logarithmic
derivative ladder

    p[0] = L,  q[0] = S
    p[n] = p[n-1] + q[n-1]'/q[n-1]
    q[n] = q[n-1] + p[n-1]' - p[n-1] * q[n-1]'/q[n-1]

(:func:`pq_iterate`, in series arithmetic).  Its values at the expansion
point feed the classical approximant machinery: numerators A[n] and
denominators B[n] obey the same three-term recurrence, their cross
determinant collapses to a signed product of the q's, successive
approximant differences telescope into an alternating series whose partial
sums are the approximants (:func:`alpha_partial_sums`), and an
equivalence transform rescales any fraction to unit partial numerators
(:func:`cf_equiv_unit`).  A level with q identically zero terminates the
fraction exactly; :func:`pq_iterate` stops there, :func:`detect_termination`
reads that stop, and :func:`terminated_alpha` reads alpha off the iteration
ladder, whose ratios S[n](x0) / L[n](x0) are the approximants A[n] / B[n].
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .aim import AIMSequences, ProblemSpec
from .errors import (
    DeterminantMismatchWarning,
    ValidationError,
    ZeroDenominator,
    ZeroPartialNumerator,
)
from .series import TaylorSeries, series_div

# mantissas are renormalised by 2**RESCALE_SHIFT when they leave this band
_RESCALE_SHIFT = 600
_RESCALE_HI = 2.0**300
_RESCALE_LO = 2.0**-300

# a ladder series counts as identically zero when all its coefficients are
# below this fraction of the largest coefficient magnitude seen so far
TERMINATION_REL = 1e-12

# relative tolerance of the determinant product identity, on top of the
# rounding floor of the cross difference
DETERMINANT_RTOL = 1e-9


@dataclass(frozen=True)
class PQSequences:
    """Values at x0 of the ladder's partial denominators p[n] and numerators q[n].

    Read-only float arrays, one entry per level run.  ``stop_level`` and
    ``stop_reason`` (``"termination"`` or ``"pole"``) tell where and why
    :func:`pq_iterate` stopped early; both are None when it ran to n_max.
    """

    p: np.ndarray
    q: np.ndarray
    stop_level: int | None = None
    stop_reason: str | None = None

    @property
    def depth(self) -> int:
        return self.p.size - 1


def pq_iterate(spec: ProblemSpec, param_value: float) -> PQSequences:
    """Run the logarithmic-derivative ladder up to ``spec.n_max`` levels.

    Each level consumes one Taylor order; only the current level's series
    are kept.  The ladder stops at the first level, the last one included,
    whose q series is identically zero relative to the largest coefficient
    magnitude seen so far (``"termination"``: the fraction ends exactly
    there).  Extension past level n divides by q[n], so below the last level
    it also stops, as a ``"pole"``, where only the value of q[n] at x0 is
    tiny (no analytic continuation is attempted).  Level 0, the input S, is
    zero only when all its coefficients are, and its pole test uses its own.
    """
    p_ser, q_ser = spec.series_pair(param_value)
    p, q = [p_ser.at_center], [q_ser.at_center]
    scale = 1e-300
    stop: tuple[int | None, str | None] = (None, None)
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
    values = np.array([p, q])
    values.setflags(write=False)
    return PQSequences(values[0], values[1], *stop)


def detect_termination(pq: PQSequences) -> int | None:
    """Level N at which :func:`pq_iterate` found q[N] identically zero, or None.

    A terminating level means alpha equals the finite fraction that stops
    just above it.
    """
    return pq.stop_level if pq.stop_reason == "termination" else None


def terminated_alpha(seqs: AIMSequences, level: int) -> TaylorSeries:
    """Series of alpha for a fraction that terminates at ``level``.

    ``seqs`` is :func:`~aimcf.aim.aim_iterate` at the parameter value where
    q[level] is identically zero.  The approximants are the ladder ratios,
    so the finite fraction is S[level-1] / L[level-1], one series division;
    ``level == 0`` gives the zero series (S is identically zero, as is alpha).
    """
    if not 0 <= level <= seqs.depth + 1:
        raise ValidationError(f"termination level {level} outside 0..{seqs.depth + 1}")
    if level == 0:
        return TaylorSeries(seqs.s[0].center, np.zeros(seqs.s[0].order + 1))
    return series_div(seqs.s[level - 1], seqs.lam[level - 1])


# ----------------------------------------------------------------------
# scalar approximant machinery


@dataclass(frozen=True)
class CFState:
    """Approximant state of a continued fraction at a fixed point.

    Numerators ``A`` and denominators ``B`` run over indices -2..N and are
    stored as mantissa arrays with shared power-of-two exponents (the pair
    at a given index is rescaled jointly, so approximants are plain
    mantissa ratios while raw values can exceed double range).  ``C[n]``
    is the approximant A[n]/B[n] (NaN where B[n] = 0).  ``v`` holds the
    cross determinants for indices -1..N, with ``v[-1] = -1`` fixed by the
    initial conditions.
    """

    pvals: np.ndarray
    qvals: np.ndarray
    C: np.ndarray
    _mant_a: np.ndarray  # index i holds n = i - 2
    _mant_b: np.ndarray
    _exp2: np.ndarray  # joint power-of-two exponent per index

    @property
    def depth(self) -> int:
        return self.C.size - 1

    def _check_index(self, n: int, low: int):
        if not low <= n <= self.depth:
            raise ValidationError(f"index {n} outside {low}..{self.depth}")

    def A(self, n: int) -> float:
        """Numerator A[n] as a float (may overflow to inf for deep fractions)."""
        self._check_index(n, -2)
        return _ldexp_safe(self._mant_a[n + 2], int(self._exp2[n + 2]))

    def B(self, n: int) -> float:
        """Denominator B[n] as a float (may overflow to inf)."""
        self._check_index(n, -2)
        return _ldexp_safe(self._mant_b[n + 2], int(self._exp2[n + 2]))

    def v_scaled(self, n: int) -> tuple[float, int]:
        """Cross determinant at n as (mantissa, base-2 exponent)."""
        self._check_index(n, -1)
        i = n + 2
        mant = (
            self._mant_a[i] * self._mant_b[i - 1]
            - self._mant_a[i - 1] * self._mant_b[i]
        )
        return mant, int(self._exp2[i] + self._exp2[i - 1])

    def v(self, n: int) -> float:
        mant, e2 = self.v_scaled(n)
        return _ldexp_safe(mant, e2)


def _ldexp_safe(mant: float, e2: int) -> float:
    try:
        return math.ldexp(mant, e2)
    except OverflowError:
        return math.inf if mant > 0 else -math.inf


def cf_approximants(pvals, qvals) -> CFState:
    """Run the three-term approximant recurrence over every given level.

    Initial conditions A[-2] = 1, A[-1] = 0, B[-2] = 0, B[-1] = 1; then
    A[n] = p[n] A[n-1] + q[n] A[n-2] and likewise for B, for n = 0..N with
    N + 1 the length of the inputs.  C[n] is NaN where B[n] = 0 and +-inf
    beyond double range, as A(n) and B(n) are; the recurrence keeps going.
    """
    pvals = np.array(pvals, dtype=float)
    qvals = np.array(qvals, dtype=float)
    if pvals.shape != qvals.shape or pvals.ndim != 1 or pvals.size == 0:
        raise ValidationError("pvals and qvals must be equal-length 1-d sequences")
    N = pvals.size - 1
    mant_a = np.empty(N + 3)
    mant_b = np.empty(N + 3)
    exp2 = np.zeros(N + 3, dtype=np.int64)
    mant_a[0], mant_a[1] = 1.0, 0.0  # n = -2, -1
    mant_b[0], mant_b[1] = 0.0, 1.0
    for n in range(N + 1):
        i = n + 2
        shift = int(exp2[i - 2] - exp2[i - 1])
        scale_back = math.ldexp(1.0, shift) if shift > -1074 else 0.0
        a_new = pvals[n] * mant_a[i - 1] + qvals[n] * (mant_a[i - 2] * scale_back)
        b_new = pvals[n] * mant_b[i - 1] + qvals[n] * (mant_b[i - 2] * scale_back)
        e_new = int(exp2[i - 1])
        big = max(abs(a_new), abs(b_new))
        if big > _RESCALE_HI:
            a_new = math.ldexp(a_new, -_RESCALE_SHIFT)
            b_new = math.ldexp(b_new, -_RESCALE_SHIFT)
            e_new += _RESCALE_SHIFT
        elif 0.0 < big < _RESCALE_LO:
            a_new = math.ldexp(a_new, _RESCALE_SHIFT)
            b_new = math.ldexp(b_new, _RESCALE_SHIFT)
            e_new -= _RESCALE_SHIFT
        mant_a[i], mant_b[i], exp2[i] = a_new, b_new, e_new
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c = np.where(mant_b[2:] != 0.0, mant_a[2:] / mant_b[2:], math.nan)
    for arr in (mant_a, mant_b, exp2, c, pvals, qvals):
        arr.setflags(write=False)
    return CFState(
        pvals=pvals,
        qvals=qvals,
        C=c,
        _mant_a=mant_a,
        _mant_b=mant_b,
        _exp2=exp2,
    )


def _q_products(qvals: np.ndarray) -> Iterator[tuple[float, int]]:
    """Running products q[0]..q[n] as (mantissa, base-2 exponent) pairs."""
    prod_mant, prod_e2 = 1.0, 0
    for q in qvals:
        prod_mant *= float(q)
        if prod_mant != 0.0:
            mant, ex = math.frexp(prod_mant)
            prod_mant, prod_e2 = mant, prod_e2 + ex
        yield prod_mant, prod_e2


def cf_determinants(state: CFState) -> np.ndarray:
    """Cross determinants v[n] for n = -1..N, checked against the q product.

    The recurrence forces v[n] = (-1)^n * prod(q[0..n]) exactly, but the
    cross difference A[n]B[n-1] - A[n-1]B[n] subtracts two products that
    dwarf the result, so rounding alone costs about eps times the product
    magnitude.  The check therefore allows a noise floor of that size on
    top of ``DETERMINANT_RTOL`` and warns
    (:class:`DeterminantMismatchWarning`) only for discrepancies rounding
    cannot explain.
    """
    out = np.array([state.v(n) for n in range(-1, state.depth + 1)])
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for n, (prod_mant, prod_e2) in enumerate(_q_products(state.qvals)):
        expected_mant = prod_mant if n % 2 == 0 else -prod_mant
        got_mant, got_e2 = state.v_scaled(n)
        i = n + 2
        cross_mant = abs(state._mant_a[i] * state._mant_b[i - 1]) + abs(
            state._mant_a[i - 1] * state._mant_b[i]
        )
        # compare in the product's scale
        got_in_prod_scale = _ldexp_safe(got_mant, got_e2 - prod_e2)
        noise = 64.0 * (n + 2) * eps * _ldexp_safe(cross_mant, got_e2 - prod_e2)
        denom = max(abs(expected_mant), 1e-300)
        err = abs(got_in_prod_scale - expected_mant)
        if err > DETERMINANT_RTOL * denom + noise:
            worst = max(worst, err / denom)
    if worst > 0.0:
        warnings.warn(
            f"determinant product identity off by relative {worst:.3e}",
            DeterminantMismatchWarning,
            stacklevel=2,
        )
    return out


def alpha_partial_sums(state: CFState) -> np.ndarray:
    """Partial sums of the alternating series for alpha; sums[i] == C[i].

    Term k is (-1)^k q[0]..q[k] / (B[k] B[k-1]) = C[k] - C[k-1]; every B[k]
    must be nonzero.  The terms are
    ``np.diff(alpha_partial_sums(state), prepend=0.0)``.
    """
    sums = np.empty(state.depth + 1)
    acc = 0.0
    for k, (prod_mant, prod_e2) in enumerate(_q_products(state.qvals)):
        i = k + 2
        bk = state._mant_b[i]
        bk1 = state._mant_b[i - 1]
        if bk == 0.0 or bk1 == 0.0:
            raise ZeroDenominator(f"B[{k if bk == 0.0 else k - 1}] = 0")
        sign = 1.0 if k % 2 == 0 else -1.0
        denom_e2 = int(state._exp2[i] + state._exp2[i - 1])
        term = sign * _ldexp_safe(prod_mant / (bk * bk1), prod_e2 - denom_e2)
        acc += term
        sums[k] = acc
    return sums


def cf_equiv_unit(pvals, qvals) -> np.ndarray:
    """Partial denominators of the equivalent unit-numerator fraction.

    Returns ptilde with the property that the approximants of
    q[0] * K(1/ptilde) coincide with those of K(q/p) at every level.  The
    rescaling inverts each q, so any zero partial numerator is rejected.
    """
    pvals = np.asarray(pvals, dtype=float)
    qvals = np.asarray(qvals, dtype=float)
    if pvals.shape != qvals.shape or pvals.ndim != 1 or pvals.size == 0:
        raise ValidationError("pvals and qvals must be equal-length 1-d sequences")
    if np.any(qvals == 0.0):
        k = int(np.nonzero(qvals == 0.0)[0][0])
        raise ZeroPartialNumerator(f"q[{k}] = 0 cannot be rescaled away")
    out = np.empty(pvals.size)
    d = 1.0
    out[0] = pvals[0]
    for n in range(1, pvals.size):
        d = 1.0 / (qvals[n] * d)
        out[n] = pvals[n] * d
    return out
