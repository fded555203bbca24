"""Continued-fraction reformulation of the iteration ladder.

The ratio alpha = S/L solved by the ladder satisfies a continued fraction
whose partial numerators and denominators come from the logarithmic
derivative ladder

    p[0] = L,  q[0] = S
    p[n] = p[n-1] + q[n-1]'/q[n-1]
    q[n] = q[n-1] + p[n-1]' - p[n-1] * q[n-1]'/q[n-1]

run by :func:`pq_iterate`.  Its values at the expansion point feed the
approximant machinery: :func:`cf_approximants` gives the numerators A[n],
denominators B[n] and approximants C[n] = A[n]/B[n] as one
:class:`CFState`, the one record of a fraction run, which only this module
reads below its public fields; :func:`cf_determinants` checks their cross
determinants against the signed product of the q's,
:func:`alpha_partial_sums` sums the alternating series whose partial sums
are the approximants, and :func:`cf_equiv_unit` rescales a fraction to unit
partial numerators.  Both three-term recurrences, the approximants' and the
q products', run on one band-scaled loop, :func:`_run`.  A level with q
identically zero terminates the fraction exactly; :func:`detect_termination`
reads that stop, and
:func:`terminated_alpha` reads alpha off the iteration ladder, whose ratios
S[n](x0) / L[n](x0) are the approximants A[n] / B[n].
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .aim import AIMSequences, ProblemSpec
from .errors import (
    DeterminantMismatchWarning,
    Overflow,
    ValidationError,
    ZeroDenominator,
    ZeroPartialNumerator,
    require_number,
)
from .series import TaylorSeries, _check_pivot, _checked, _divide, _mul, series_div

# _run rescales its newest pair, and the one before it, by a power of two
# when the pair's larger magnitude leaves [1 / _BAND, _BAND]; inside the band
# the product of two mantissas stays a normal double
_BAND = 2.0**300

# a ladder series counts as identically zero when all its coefficients are
# below this fraction of the largest coefficient magnitude seen so far
TERMINATION_REL = 1e-12

# relative tolerance of the determinant product identity, on top of the
# rounding floor of the cross difference
DETERMINANT_RTOL = 1e-9


class PQSequences(NamedTuple):
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

    Each level consumes one Taylor order.  The ladder stops at the first
    level, the last included, whose q is zero relative to the largest
    coefficient magnitude seen so far (``"termination"``: the fraction ends
    there), and below the last level, as a ``"pole"``, where q[n](x0) alone is
    that tiny, since extension divides by it.  Level 0, the input S,
    terminates only where every coefficient is zero, and its pole test uses
    its own scale.  A coefficient past double range raises
    :class:`~aimcf.errors.Overflow`.

    The levels run on raw coefficient arrays with the operations of the series
    arithmetic, so every value is the series ladder's bit for bit.  Once q[n]
    is constant in x and p[n] linear, as on the oscillator, so is every later
    level (q'/q is a signed zero), and the rest runs on the three floats
    p[n](x0), p[n]' and q[n](x0), with the same tests.
    """
    p, q = (series.coeffs for series in spec.series_pair(param_value))
    ks = np.arange(1, p.size, dtype=float)  # derivative factors
    p0, q0 = float(p[0]), float(q[0])
    p_vals, q_vals = [p0], [q0]
    scale = 1e-300
    stop: tuple[int | None, str | None] = (None, None)
    p_max = float(np.abs(p).max())
    p1 = None  # p[1] once q is flat and p linear; then only p0, p1, q0 change
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(spec.n_max + 1):
            # flat q: q[1:] all +0.0 (a -0.0 may turn +0.0 in _divide's loop);
            # linear p: p[2:] all +-0.0
            if p1 is None and not (q[1:].view(np.int64).any() or p[2:].any()):
                p1 = float(p[1])
            q_max = float(np.abs(q).max()) if p1 is None else abs(q0)
            if not (math.isfinite(p_max) and math.isfinite(q_max)):
                raise Overflow("series coefficients overflowed double precision")
            scale = max(scale, p_max, q_max)
            tiny = TERMINATION_REL * (scale if level else q_max)
            if q_max <= (tiny if level else 0.0):
                stop = (level, "termination")
                break
            if level == spec.n_max:
                break
            if abs(q0) <= tiny:
                stop = (level, "pole")
                break
            if p1 is None:
                # p and q share one size per level; every result has one fewer
                m = q.size - 1
                dq = q[1:] * ks[:m]
                if not math.isfinite(q_max * q.size):  # q' may have overflowed:
                    _checked(dq)  # raise before the division warns of an inf scale
                ratio = _divide(dq, q)
                p, q = p[:m] + ratio, (q[:m] + p[1:] * ks[:m]) - _mul(p, ratio)
                p_max = float(np.abs(p).max())
                p0, q0 = float(p[0]), float(q[0])
            else:
                # q'/q is 0.0 / q0 in every entry, p' is p1 and ks[0] is 1.0
                zero = 0.0 / _check_pivot(q0)
                p0, p1, q0 = p0 + zero, p1 + zero, q0 + p1
            p_vals.append(p0)
            q_vals.append(q0)
    values = np.array([p_vals, q_vals])
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
    stored as mantissas with shared power-of-two exponents (the pair at a
    given index is rescaled jointly, so approximants are plain mantissa
    ratios while raw values can exceed double range); only this module reads
    them.  ``C[n]`` is the approximant A[n]/B[n] (NaN where B[n] = 0).  The
    cross determinants ``v`` run over indices -1..N, with ``v(-1) = -1``
    fixed by the initial conditions.
    """

    pvals: np.ndarray
    qvals: np.ndarray
    C: np.ndarray
    _mant_a: tuple[float, ...]  # index i holds n = i - 2
    _mant_b: tuple[float, ...]
    _exp2: tuple[int, ...]  # joint power-of-two exponent per index

    @property
    def depth(self) -> int:
        return self.C.size - 1

    def _check_index(self, n: int, low: int):
        if not low <= n <= self.depth:
            raise ValidationError(f"index {n} outside {low}..{self.depth}")

    def A(self, n: int) -> float:
        """Numerator A[n] as a float (may overflow to inf for deep fractions)."""
        self._check_index(n, -2)
        return _ldexp_safe(self._mant_a[n + 2], self._exp2[n + 2])

    def B(self, n: int) -> float:
        """Denominator B[n] as a float (may overflow to inf)."""
        self._check_index(n, -2)
        return _ldexp_safe(self._mant_b[n + 2], self._exp2[n + 2])

    def v(self, n: int) -> float:
        """Cross determinant v[n] = A[n] B[n-1] - A[n-1] B[n] (may overflow to inf)."""
        self._check_index(n, -1)
        left, right, e2 = self._cross(n + 2)
        return _ldexp_safe(left - right, e2)

    def _cross(self, i: int) -> tuple[float, float, int]:
        """Mantissas of A[n] B[n-1] and A[n-1] B[n] at step i = n + 2, and
        their shared exponent."""
        a, b, e2 = self._mant_a, self._mant_b, self._exp2
        return a[i] * b[i - 1], a[i - 1] * b[i], e2[i] + e2[i - 1]


def _ldexp_safe(mant: float, e2: int) -> float:
    try:
        return math.ldexp(mant, e2)
    except OverflowError:
        return math.inf if mant > 0 else -math.inf


def require_pq(pvals, qvals) -> tuple[np.ndarray, np.ndarray]:
    """Fresh float arrays of ``pvals`` and ``qvals`` (:func:`real_array`);
    :class:`ValidationError` unless they are non-empty 1-d and of one length."""
    p, q = real_array(pvals, "pvals"), real_array(qvals, "qvals")
    if p.shape != q.shape or p.ndim != 1 or p.size == 0:
        raise ValidationError("pvals and qvals must be equal-length 1-d sequences")
    return p, q


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a fresh float array.  A float entry passes as it is, inf
    and nan too; any other must pass :func:`~aimcf.errors.require_number`."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for i, value in enumerate(np.array(values, dtype=object).ravel()):
            if not isinstance(value, float):
                require_number(value, f"'{name}[{i}]'")
    return np.array(values, dtype=float)


def cf_approximants(pvals, qvals) -> CFState:
    """Run the three-term approximant recurrence over every given level.

    Initial conditions A[-2] = 1, A[-1] = 0, B[-2] = 0, B[-1] = 1; then
    A[n] = p[n] A[n-1] + q[n] A[n-2] and likewise for B, for n = 0..N with
    N + 1 the length of the inputs (checked by :func:`require_pq`).  C[n] is
    NaN where B[n] = 0 and +-inf beyond double range, as A(n) and B(n) are;
    the recurrence keeps going.  :func:`_run` runs it.
    """
    pvals, qvals = require_pq(pvals, qvals)
    mant_a, mant_b, exps = _run(pvals.tolist(), qvals.tolist())
    c = np.array([a / b if b != 0.0 else math.nan for a, b in zip(mant_a[2:], mant_b[2:])])
    for arr in (c, pvals, qvals):
        arr.setflags(write=False)
    return CFState(pvals, qvals, c, tuple(mant_a), tuple(mant_b), tuple(exps))


def _run(pvals: list[float], qvals: list[float]) -> tuple[list[float], list[float], list[int]]:
    """Mantissas of A and B and their joint exponents, runner steps -2..N.

    One loop on Python floats carries the last two (A, B) pairs and their
    joint exponent.  When the larger magnitude of a new pair leaves
    [1 / _BAND, _BAND], the new pair and the one before it are rescaled by a
    power of two that brings it into [1/2, 1); the stored previous pair keeps
    its old exponent, and only the next step sees it rescaled.
    """
    lo, hi, ldexp, frexp = 1.0 / _BAND, _BAND, math.ldexp, math.frexp
    mant_a, mant_b, exps = [1.0, 0.0], [0.0, 1.0], [0, 0]
    a2, b2, a1, b1, e = 1.0, 0.0, 0.0, 1.0, 0
    for pn, qn in zip(pvals, qvals):
        a, b = pn * a1 + qn * a2, pn * b1 + qn * b2
        big = abs(a)  # max(|a|, |b|) as max() takes it: a NaN |a| stays
        if abs(b) > big:
            big = abs(b)
        if not lo <= big <= hi:
            shift = -frexp(big)[1]
            a1, b1 = _ldexp_safe(a1, shift), _ldexp_safe(b1, shift)
            a, b = ldexp(a, shift), ldexp(b, shift)
            e -= shift
        a2, b2, a1, b1 = a1, b1, a, b
        mant_a.append(a)
        mant_b.append(b)
        exps.append(e)
    return mant_a, mant_b, exps


def _q_products(state: CFState) -> tuple[list[float], list[int]]:
    """Running products q[0]..q[n] as ``prods[n] * 2**exps[n]``, n = 0..N.

    The B column of the (q, 0) fraction run by :func:`_run`: B[n] = q[n]
    B[n-1] + 0.0 B[n-2], so a NaN or inf two steps back still reaches it.
    A stays 0.0, or NaN past a non-finite q, where B is not finite either,
    so B alone sets each shift.  It reads only ``state.qvals``, so the
    determinant check stays independent of the stored A and B.
    """
    q = state.qvals.tolist()
    _, prods, exps = _run(q, [0.0] * len(q))
    return prods[2:], exps[2:]


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
    prods, prod_exps = _q_products(state)
    cross, eps, worst = state._cross, sys.float_info.epsilon, 0.0
    v = [state.v(-1)]
    for n, (prod_mant, prod_e2) in enumerate(zip(prods, prod_exps)):
        left, right, got_e2 = cross(n + 2)
        got_mant = left - right
        v.append(_ldexp_safe(got_mant, got_e2))
        expected_mant = prod_mant if n % 2 == 0 else -prod_mant
        # compare in the product's scale
        to_prod = got_e2 - prod_e2
        got_in_prod_scale = _ldexp_safe(got_mant, to_prod)
        noise = 64.0 * (n + 2) * eps * _ldexp_safe(abs(left) + abs(right), to_prod)
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
    return np.array(v)


def alpha_partial_sums(state: CFState) -> np.ndarray:
    """Partial sums of the alternating series for alpha; sums[i] == C[i].

    Term k is (-1)^k q[0]..q[k] / (B[k] B[k-1]) = C[k] - C[k-1]; every B[k]
    must be nonzero.  The terms are
    ``np.diff(alpha_partial_sums(state), prepend=0.0)``.  The B mantissas are
    split by ``frexp``, since a B below the band may make their product underflow.
    """
    b, e2, frexp = state._mant_b, state._exp2, math.frexp
    prods, prod_exps = _q_products(state)
    sums = np.empty(state.depth + 1)
    acc = 0.0
    for k in range(state.depth + 1):
        i = k + 2
        if b[i] == 0.0 or b[i - 1] == 0.0:
            raise ZeroDenominator(f"B[{k if b[i] == 0.0 else k - 1}] = 0")
        sign = 1.0 if k % 2 == 0 else -1.0
        (m1, x1), (m2, x2) = frexp(b[i]), frexp(b[i - 1])
        denom_e2 = e2[i] + e2[i - 1] + x1 + x2
        acc += sign * _ldexp_safe(prods[k] / (m1 * m2), prod_exps[k] - denom_e2)
        sums[k] = acc
    return sums


def dominant_probe(state: CFState) -> tuple[float, float]:
    """(last ratio x_N / x_{N-1}, growth) of the larger of A and B at N.

    Every solution is x_{-2} A_n + x_{-1} B_n and at most one of two
    independent solutions is minimal, so that column is dominant whenever a
    dominant solution exists; A and B share one exponent per index, so their
    mantissas at N compare as the values.  The ratio is NaN where x_{N-1} = 0.
    growth is the per-step growth modulus |D_N / D_mid|^(1 / (2 (N - mid)))
    over the second half of the range, from the Casoratian
    D_n = x_n x_{n-2} - x_{n-1}^2: with constant coefficients D_n = -q D_{n-1},
    so growth is |q|^(1/2), the common modulus of equal-modulus roots, and a
    conjugate pair's oscillation |cos(n theta + phi)| cancels out of D_n.
    """
    a, b, exps = state._mant_a, state._mant_b, state._exp2
    x = a if abs(a[-1]) >= abs(b[-1]) else b
    mid, last = (state.depth + 1) // 2 + 2, len(x) - 1  # steps of x_{(N+1)//2}, x_N
    log_mid, log_end = (_log_casoratian(x, exps, i) for i in (mid, last))
    if last == mid or log_mid is None or log_end is None:
        growth = math.nan
    else:
        growth = math.exp((log_end - log_mid) / (2 * (last - mid)))
    if x[last - 1] == 0.0:
        return math.nan, growth
    return _ldexp_safe(x[last] / x[last - 1], exps[last] - exps[last - 1]), growth


def _log_casoratian(x: tuple[float, ...], exps: tuple[int, ...], i: int) -> float | None:
    """log |x_i x_{i-2} - x_{i-1}^2| over runner steps i - 2..i; None where it is 0."""
    e = exps[i - 1]
    d = _ldexp_safe(x[i] * x[i - 2], exps[i] + exps[i - 2] - 2 * e)
    d -= x[i - 1] ** 2
    return None if d == 0.0 else math.log(abs(d)) + 2 * e * math.log(2.0)


def cf_equiv_unit(pvals, qvals) -> np.ndarray:
    """Partial denominators of the equivalent unit-numerator fraction.

    Returns ptilde with the property that the approximants of
    q[0] * K(1/ptilde) coincide with those of K(q/p) at every level.  The
    rescaling inverts each q, so any zero partial numerator is rejected.
    The loop runs on Python floats, so it emits no floating-point warning;
    a running scale that overflows or reaches zero, or a partial
    denominator beyond double range, raises :class:`Overflow`.
    """
    pvals, qvals = require_pq(pvals, qvals)
    if np.any(qvals == 0.0):
        k = int(np.nonzero(qvals == 0.0)[0][0])
        raise ZeroPartialNumerator(f"q[{k}] = 0 cannot be rescaled away")
    p, q = pvals.tolist(), qvals.tolist()
    out, d = [p[0]], 1.0
    for n in range(1, len(p)):
        scaled = q[n] * d
        d = 1.0 / scaled if scaled else math.inf
        out.append(p[n] * d)
        if not (d and math.isfinite(d) and math.isfinite(out[-1])):
            raise Overflow(f"unit-form rescaling leaves double range at level {n}")
    return np.array(out)
