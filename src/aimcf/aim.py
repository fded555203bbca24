"""Iteration ladder for second-order linear ODE eigenproblems.

The equation under study is ``y'' = L(x) y' + S(x) y`` with coefficient
functions supplied as expressions in ``x`` and one spectral parameter.
Repeated differentiation produces the ladder

    L[n] = L[n-1]' + L * L[n-1] + S[n-1]
    S[n] = S[n-1]' + S * L[n-1]

carried here in truncated Taylor arithmetic about a user-chosen point x0.
The termination quantity

    delta[n] = L[n](x0) * S[n-1](x0) - L[n-1](x0) * S[n](x0)

vanishes at eigenvalues of problems whose ladder terminates, which is what
:func:`find_eigenvalues` scans for and then refines by safeguarded secant
steps (Dekker 1969; Brent 1973, ch. 4), reporting the chord zero of each
final bracket.

One raw-array kernel, :func:`_ladder`, runs the recursion on Taylor
coefficients: level n + 1 is an index shift of level n (the derivative)
plus its convolution with the coefficients of L and S.  It keeps the
accumulation order of truncated series arithmetic, so :func:`aim_iterate`
(whole series per level) and :func:`aim_matrix_iterate` (coefficient
table) are bit-identical views of it, and it raises
:class:`~aimcf.errors.Overflow` when a coefficient leaves double range, so
every view reports overflow alike.

The eigenvalue search reads only the at-centre values, and these need no
whole series: since y^(i+2) = L[i] y' + S[i] y, L[i](x0) and S[i](x0) are
the derivatives at x0 of the two solutions with (y, y') = (0, 1) and
(1, 0) there, which the Leibniz rule gives from the input derivatives in
O(n**2) operations instead of the ladder's O(n**3).  A search does once
what does not depend on the point: it validates its inputs, binds each
expression once at order n + 2 with the one expression binder,
:func:`~aimcf.series._bind` (:func:`_evaluator`), takes the derivative
column at x0 of a side that does not depend on the parameter, and runs
under one floating-point error state and one guard against expressions too
deep to evaluate.  It evaluates each distinct parameter value once, to
depth n + 2, and forms and keeps only delta[n] for the scan and refinement
and delta[n + 2] for the recheck, as Python floats, with the evaluated
values in one sorted list.  Both kernels take the derivatives t! c[t] at x0
of L and S and the depths to form, and raise :class:`~aimcf.errors.Overflow`
if one of those deltas is not finite.  The whole grid is bound in one call,
and its derivative columns (a parameter-free side's one column broadcasts)
go through one batched pass of :func:`_scan_deltas`; each refinement or
recheck point calls only the parameter side, on a one-value array, and runs
:func:`_delta_recurrence` on Python lists.  If binding the grid fails,
every grid point is evaluated by that per-point kernel instead, in grid
order, and the points that cannot be evaluated are skipped with a warning.
With the parameter on neither side, delta is one value at every point,
and one per-point evaluation replaces the scan.
Rows of a binding are bit-identical to one-value bindings, and both
kernels sum the same terms in the same order, so a grid value equals a
per-point one bit for bit.  Both leave out products that are exactly zero:
a derivative order t where L^(t) and S^(t) are both zero, and the side of
an order t that is zero, at its point for the per-point kernel and on the
whole grid for the batched pass (an order that is one-sided on the grid),
which also skips the multiply by C(k, 0) = C(k, k) = 1.  A skipped zero
could at most change the sign of a zero term, and the sum onto a +0
accumulator erases that sign, so no value changes, not even a zero's sign
(which no root decision reads anyway); a skipped 0 * inf follows an
overflow that raises :class:`~aimcf.errors.Overflow` either way.  Against
the series ladder, which sums in another order, they agree to rounding:
within 1e-13 of the cross terms ``|L|[i+1] |S|[i] + |L|[i] |S|[i+1]`` of the ladder run
on absolute input coefficients, which scale the rounding error of both.

At a symmetric centre, where every derivative of L of even order and
every derivative of S of odd order is zero (L odd and S even about x0, as
for the oscillator and the quartic at x0 = 0), u_a is even and u_b odd:
u_a(k) is exactly +0.0 at every odd k and u_b(k) at every even k, since
every term of their sums there is a finite number times +0.0 and the sum
onto +0 stays +0.0.  Both kernels then run the recurrence once, on
v = u_a + u_b started at (1, 1): v(k) equals the nonzero one of u_a(k) and
u_b(k) bit for bit, as the same products summed in the same order, and
delta[d] is formed with the operands and signed zeros of the two-solution
cross product, v(d + 2) v(d + 1) - 0.0 for odd d and 0.0 - v(d + 1) v(d + 2)
for even d.  A non-finite derivative changes nothing: where a zero of the
two-solution loop would have turned nan, the nonzero solution is
non-finite at the same index, through the same term, so the same deltas
raise :class:`~aimcf.errors.Overflow`.  The per-point kernel decides this
at its point, the batched pass on its whole grid.

Every ladder runs to the one depth of its problem, ``ProblemSpec.n_max``
(the n of delta[n]); a caller that wants another depth builds another
spec, for example with ``dataclasses.replace(spec, n_max=d)``.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import sys
import warnings
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AimError,
    ConditioningWarning,
    DegenerateDeltaWarning,
    DepthRecheckWarning,
    GridPointSkippedWarning,
    IndexOutOfRange,
    OrderExhausted,
    Overflow,
    ParseOrEvalError,
    SingularPivot,
    ValidationError,
)
from .series import (
    EPS_PIVOT,
    Expression,
    TaylorSeries,
    _bind,
    _result,
    parse_expression,
    series_from_expr,
)


def require_array_size(size: int, name: str) -> None:
    """Raise :class:`ValidationError` where numpy cannot describe a float64
    array of ``size`` entries (8 * size > ``sys.maxsize``), which it refuses
    with a ValueError."""
    if 8 * size > sys.maxsize:
        raise ValidationError(f"{name} is too large for a numpy array")


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified eigenproblem in ``y'' = L y' + S y`` form.

    Attributes:
        lambda0: expression for the first-derivative coefficient L(x).
        s0: expression for the zeroth-order coefficient S(x).
        param_name: name of the spectral parameter appearing in the
            expressions (conventionally the energy).
        x0: expansion/evaluation point for the ladder; must be finite.
        order: Taylor order carried by the ladder; must be >= n_max + 2 so
            that the deepest ladder entries keep usable coefficients.
        n_max: depth n of every ladder run on this problem, at least 1.
    """

    lambda0: Expression
    s0: Expression
    param_name: str
    x0: float
    order: int
    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValidationError("n_max must be at least 1")
        if self.order < self.n_max + 2:
            raise ValidationError(
                f"order ({self.order}) must be >= n_max + 2 ({self.n_max + 2})"
            )
        if not abs(self.x0) <= sys.float_info.max:  # an int past double range too
            raise ValidationError("series center must be finite")
        require_array_size(self.order + 1, "order")  # a series holds order + 1 floats

    @classmethod
    def from_strings(
        cls,
        lambda0: str,
        s0: str,
        param_name: str = "E",
        x0: float = 0.0,
        order: int = 40,
        n_max: int = 20,
    ) -> "ProblemSpec":
        return cls(
            lambda0=parse_expression(lambda0, param_name),
            s0=parse_expression(s0, param_name),
            param_name=param_name,
            x0=x0,
            order=order,
            n_max=n_max,
        )

    def series_pair(self, param_value: float) -> tuple[TaylorSeries, TaylorSeries]:
        """Evaluate (L, S) as series at x0 at the problem's truncation order."""
        lam = series_from_expr(self.lambda0, param_value, self.x0, self.order)
        s = series_from_expr(self.s0, param_value, self.x0, self.order)
        return lam, s


class AIMSequences(NamedTuple):
    """Ladder output: series lists plus the termination quantity at x0.

    ``lam[n]`` and ``s[n]`` hold the depth-n series (order decreasing by
    one per level).  ``delta[i]`` is the termination quantity at depth
    ``i + 1``.  The ratio ``s[n](x0) / lam[n](x0)`` is :func:`alpha_at`.
    """

    lam: tuple[TaylorSeries, ...]
    s: tuple[TaylorSeries, ...]
    delta: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.lam) - 1


def _ladder(
    l0: np.ndarray, s0: np.ndarray, depth: int
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Coefficient arrays of ladder levels 0..depth; level i is i entries shorter.

    Also returns the at-centre values as a ``(2, depth + 1)`` array of rows
    L[i](x0) and S[i](x0).  The accumulation order ``(shift +
    L-convolution) + S`` and the per-level ``np.convolve`` of equal-length
    prefixes reproduce truncated Taylor arithmetic bit for bit, so the
    result does not depend on how many input coefficients the caller passes
    beyond those a level needs.

    Raises :class:`Overflow` if any coefficient leaves double range.  Each
    coefficient m of level i reaches coefficient m - 1 of level i + 1
    through the index shift, and a non-finite operand keeps the sum
    non-finite, so checking the at-centre values and the last level finds
    every non-finite coefficient.
    """
    k = np.arange(1, l0.size, dtype=float)
    lam, s = [l0], [s0]
    for _ in range(depth):
        l, sl = lam[-1], s[-1]
        n = l.size - 1
        lam.append((k[:n] * l[1:] + np.convolve(l0[: n + 1], l)[:n]) + sl[:n])
        s.append(k[:n] * sl[1:] + np.convolve(s0[: n + 1], l)[:n])
    at = np.array([[c[0] for c in lam], [c[0] for c in s]])
    if not (
        np.isfinite(at).all() and np.isfinite(lam[-1]).all() and np.isfinite(s[-1]).all()
    ):
        raise Overflow(f"ladder overflows double range by depth {depth}")
    return lam, s, at


def _cross(lam_at: np.ndarray, s_at: np.ndarray) -> np.ndarray:
    """delta[i] = L[i+1] S[i] - L[i] S[i+1] from the at-centre values.

    Raises :class:`Overflow` if a product leaves double range, which finite
    L and S values do not rule out.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        delta = lam_at[1:] * s_at[:-1] - lam_at[:-1] * s_at[1:]
    if not np.isfinite(delta).all():
        raise Overflow("termination quantity overflows double range")
    return delta


def aim_iterate(spec: ProblemSpec, param_value: float) -> AIMSequences:
    """Run the differentiation ladder to ``spec.n_max`` levels.

    The coefficient L need not be nonzero at x0 (the ladder itself never
    divides); a vanishing L(x0) only makes the ratio diagnostics at x0
    undefined, so it is reported as a warning.
    """
    lam0, s0 = spec.series_pair(param_value)
    scale = max(float(np.max(np.abs(lam0.coeffs))), float(np.max(np.abs(s0.coeffs))), 1.0)
    if abs(lam0.at_center) < 1e-12 * scale:
        warnings.warn(
            f"L(x0) = {lam0.at_center:.3e} vanishes at x0 = {spec.x0}; "
            "ratio diagnostics at x0 will be undefined",
            ConditioningWarning,
            stacklevel=2,
        )
    lam, s, at = _ladder(lam0.coeffs, s0.coeffs, spec.n_max)
    # _ladder has checked every level for overflow; level 0 shares the
    # read-only input arrays
    return AIMSequences(
        lam=tuple(_result(lam0.center, c) for c in lam),
        s=tuple(_result(lam0.center, c) for c in s),
        delta=_cross(*at),
    )


def delta_n(seqs: AIMSequences, n: int) -> float:
    """Termination quantity at depth n (1-based)."""
    if not 1 <= n <= seqs.depth:
        raise IndexOutOfRange(f"delta index {n} outside 1..{seqs.depth}")
    return float(seqs.delta[n - 1])


def alpha_at(seqs: AIMSequences, n: int) -> float:
    """Ratio s[n](x0) / lam[n](x0); raises if the denominator vanishes."""
    if not 0 <= n <= seqs.depth:
        raise IndexOutOfRange(f"alpha index {n} outside 0..{seqs.depth}")
    denom = seqs.lam[n].at_center
    if abs(denom) < EPS_PIVOT:
        raise SingularPivot(f"lam[{n}](x0) = {denom!r} vanishes; ratio undefined")
    return seqs.s[n].at_center / denom


# ----------------------------------------------------------------------
# coefficient-table route


def aim_matrix_iterate(spec: ProblemSpec, param_value: float, m_max: int) -> np.ndarray:
    """Taylor-coefficient table of the ladder in companion form.

    Entry ``[m, n]`` of the returned ``(m_max + 1, n_max + 1, 2)`` array is
    the 2-vector of the m-th Taylor coefficients of (L[n], S[n]).  Column
    n + 1 is built from column n by one index shift (the differentiation
    part) plus a convolution against the coefficients of the companion
    matrix [[L, 1], [S, 0]].  Filling rows 0..m_max at depth n_max consumes
    initial rows up to m_max + n_max, so that sum must not exceed the
    problem order.
    """
    n_max = spec.n_max
    if m_max < 0:
        raise ValidationError("m_max must be non-negative")
    if m_max + n_max > spec.order:
        raise OrderExhausted(
            f"m_max + n_max = {m_max + n_max} exceeds order {spec.order}"
        )
    lam0, s0 = spec.series_pair(param_value)
    rows = m_max + n_max + 1
    lam, s, _ = _ladder(lam0.coeffs[:rows], s0.coeffs[:rows], n_max)
    table = np.empty((m_max + 1, n_max + 1, 2))
    for n in range(n_max + 1):
        table[:, n, 0] = lam[n][: m_max + 1]
        table[:, n, 1] = s[n][: m_max + 1]
    return table


# ----------------------------------------------------------------------
# eigenvalue scan


class Root(NamedTuple):
    """One located eigenvalue candidate."""

    value: float
    residual: float
    n_used: int


def _rounded(n: int) -> float:
    """The integer n correctly rounded to a double, or inf beyond double range."""
    try:
        return float(n)
    except OverflowError:
        return float("inf")


@functools.lru_cache(maxsize=8)
def _tables(width: int) -> tuple[list[tuple[float, ...]], np.ndarray, np.ndarray]:
    """Binomial rows C(k, 0..k) for k < width, and t! for t < width as a
    correctly rounded mantissa times an exact power of two.

    Both come from exact integers, Pascal's rule and a running product, and
    are built on first use for each width, so nothing is computed at import.
    """
    binom, mant, exp = [], [], []
    row, fact = [1], 1
    for k in range(width):
        if k:
            row = [1, *map(operator.add, row, row[1:]), 1]
            fact *= k
        binom.append(tuple(map(_rounded, row)))
        e = max(fact.bit_length() - 53, 0)
        mant.append(fact / (1 << e))  # int division rounds correctly
        exp.append(e)
    return binom, np.array(mant), np.array(exp)


def _delta_recurrence(
    binom: list[tuple[float, ...]], dl: list[float], ds: list[float], depths: Iterable[int]
) -> list[float]:
    """delta[d], d in ``depths`` (1..depth), from the derivatives t! c[t] at x0 of L and S.

    Since y^(i+2) = L[i] y' + S[i] y, the at-centre values L[i](x0) and
    S[i](x0) are the derivatives u_b(i + 2) and u_a(i + 2) at x0 of the
    solutions with (y, y') = (0, 1) and (1, 0) there, and the Leibniz rule
    gives them in O(depth**2) operations:

        u(k + 2) = sum over t of C(k, t) (L^(t) u(k + 1 - t) + S^(t) u(k - t))

    The sum runs on Python floats, in ascending t over the t where
    L^(t)(x0) or S^(t)(x0) is nonzero, leaving out the side that is zero;
    the cross product of :func:`_cross` at ``depths`` runs on Python floats
    too, which spares a one-point call its array copies and
    ``np.errstate``.  Derivatives, not Taylor coefficients, are carried,
    since u(k) / k! underflows where u(k) and delta do not.  At a
    symmetric centre (L^(t) zero at every even t and S^(t) at every odd t)
    one of u_a(k), u_b(k) is +0.0 at every k, and the loop runs once, on
    v = u_a + u_b from (1, 1), reading v(k + 1 - t) for the one nonzero side
    L^(t) or v(k - t) for S^(t); elsewhere it runs one fused loop over both
    solutions, which costs less than two one-solution loops.  The values
    equal those of :func:`_scan_deltas` at the same point bit for bit, on
    either route (the module docstring says why neither the skipped
    products nor the one-solution route change anything), and those of the
    series ladder within the bound stated there.  A value
    beyond double range turns inf or nan; if that reaches a delta of
    ``depths``, this raises :class:`Overflow`.
    """
    width = len(dl)
    terms = [(t, dl[t], ds[t]) for t in range(width) if dl[t] or ds[t]]
    if not any(s if t % 2 else l for t, l, s in terms):
        # a symmetric centre: one run of v = u_a + u_b, whose one nonzero
        # side of order t reads v(k + 1 - t) for L and v(k - t) for S
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
        # the cross product of the two solutions, with the other's +0.0
        delta = [
            v[d + 2] * v[d + 1] - 0.0 if d % 2 else 0.0 - v[d + 1] * v[d + 2] for d in depths
        ]
    else:
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
        delta = [ub[d + 2] * ua[d + 1] - ub[d + 1] * ua[d + 2] for d in depths]
    if not all(map(math.isfinite, delta)):
        raise Overflow("termination quantity overflows double range")
    return delta


def _scan_deltas(dl: np.ndarray, ds: np.ndarray, depths: Iterable[int]) -> np.ndarray:
    """delta[d], d in ``depths``, at each point of ``(depth + 1, points)`` derivative columns.

    Row t of ``dl`` and ``ds`` holds L^(t)(x0) and S^(t)(x0) at every point;
    a side with one column, the same at every point, broadcasts.  This is
    the batched twin of :func:`_delta_recurrence`, for a whole grid in one
    pass: the same recurrence on ``(2, points)`` arrays that hold u_a and
    u_b of every point, summed in place into one preallocated array, over
    the rows t that are nonzero at some point.  A row that is zero at a
    point adds only zeros there, so every point gets the sums of
    :func:`_delta_recurrence` in the same order and equals it bit for bit,
    whatever the other points hold.  It leaves out the side of a row whose
    L^(t) or S^(t) is zero at every point, and the multiply by
    C(k, 0) = C(k, k) = 1; neither changes a value, as the module docstring
    shows.  Where the whole grid is a symmetric centre (every row L^(t) of
    even t and S^(t) of odd t zero at every point), the arrays are
    ``(1, points)`` and hold v = u_a + u_b, the same calls on half the
    data; a symmetric point of a grid that is not gets both solutions and
    the same bits.  Returns a ``(len(depths), points)`` array, one column
    per point of the broadcast columns; raises :class:`Overflow` if one of
    its values leaves double range, without numpy's floating-point
    warnings.
    """
    width, points = np.broadcast_shapes(dl.shape, ds.shape)
    binom = _tables(width)[0]
    dl_on, ds_on = dl.any(axis=1).tolist(), ds.any(axis=1).tolist()
    terms = [
        (t, dl[t] if dl_on[t] else None, ds[t] if ds_on[t] else None)
        for t in range(width)
        if dl_on[t] or ds_on[t]
    ]
    symmetric = not any(ds_on[t] if t % 2 else dl_on[t] for t in range(width))
    # u[k] holds u_a(k) and u_b(k) of every point, or their sum v(k) at a
    # symmetric centre; each u(k + 2) is summed in place onto +0, term by
    # term, as _delta_recurrence sums onto a = b = 0.0
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
                if 0 < t < k:  # C(k, 0) = C(k, k) = 1
                    term *= row[t]
                acc += term
        if symmetric:  # the cross product of the two solutions, with the other's +0.0
            v = u[:, 0]
            delta = np.array(
                [v[d + 2] * v[d + 1] - 0.0 if d % 2 else 0.0 - v[d + 1] * v[d + 2] for d in depths]
            )
        else:
            delta = np.array(
                [u[d + 2, 1] * u[d + 1, 0] - u[d + 1, 1] * u[d + 2, 0] for d in depths]
            )
    if not np.isfinite(delta).all():
        raise Overflow("termination quantity overflows double range")
    return delta


def _evaluator(spec: ProblemSpec, order: int) -> tuple[
    Callable[[list[float]], list[np.ndarray]], Callable[[float, Iterable[int]], list[float]]
]:
    """Bind L and S of one search at x0 to ``order``; return ``(columns, deltas_at)``.

    Each expression is bound once, by :func:`~aimcf.series._bind`, and
    enters the kernels as its derivatives t! c[t] at x0, with t! as a
    correctly rounded mantissa times an exact power of two, so a derivative
    is finite wherever it lies in double range, also past t = 170 where t!
    is not.  A side bound to a constant array (it does not depend on the
    parameter) gets its one derivative column here, once, as an array and as
    a Python list; a parameter side is called per use.  ``columns(values)``
    gives the derivative columns of L and S for a list of parameter values,
    ``(order + 1, values)`` for a parameter side and the one
    ``(order + 1, 1)`` column of a constant side, which broadcasts, for
    :func:`_scan_deltas`.  ``deltas_at(e, depths)`` gives delta[d] at one
    value for d in ``depths`` (1..order) from the same derivatives, as
    Python lists, by :func:`_delta_recurrence`, which equals
    :func:`_scan_deltas` on ``columns([e])`` at those depths bit for bit.

    The caller checks that every value is finite and runs binding and calls
    under ``np.errstate(over="ignore", invalid="ignore")``, turning a
    ``RecursionError`` into :class:`~aimcf.errors.ParseOrEvalError`, as
    :func:`~aimcf.series.series_from_expr` does; ``spec`` has checked x0.
    """
    binom, mant, exp = _tables(order + 1)

    def derivatives(coeffs: np.ndarray) -> np.ndarray:
        return np.ldexp(mant * coeffs, exp)

    sides = [_bind(e, spec.x0, order) for e in (spec.lambda0, spec.s0)]
    # each side as its binding and None or, bound to a constant array, as that
    # array's one derivative column, in a Python list and in an array
    cols = [derivatives(c) if isinstance(c, np.ndarray) else None for c in sides]
    live = [(c, None) if d is None else (d.tolist(), d[:, None]) for c, d in zip(sides, cols)]

    def columns(values: list[float]) -> list[np.ndarray]:
        values = np.array(values)
        # a parameter side's columns, copied so that each row t is contiguous
        return [derivatives(side(values)).T.copy() if col is None else col for side, col in live]

    def deltas_at(e: float, depths: Iterable[int]) -> list[float]:
        values = np.array([e])
        dl, ds = (
            derivatives(side(values)[0]).tolist() if col is None else side for side, col in live
        )
        return _delta_recurrence(binom, dl, ds, depths)

    return columns, deltas_at


def _locate(
    f: Callable[[float], float], lo: float, hi: float, tol: float, trial: float | None = None
) -> float:
    """Zero of ``f`` in [lo, hi] by safeguarded secant steps.

    Either ``f(lo)`` is zero, or ``f(lo)`` and ``f(hi)`` are nonzero and of
    opposite sign; ``lo`` or an iterate where ``f`` is exactly zero is
    returned at once.  A step tries ``trial`` if given, else the secant
    point of the last two evaluated points (the ends at first); the
    midpoint when ``f2 - f1`` is zero or overflows, when that point lies
    outside the bracket, or when the bracket has not halved over the last
    two steps.  The point is clamped tol / 2 inside, so the bracket closes
    and a secant that lands on an end (a root within rounding of it) costs
    one step.  Stops at width ``tol`` or when no double lies inside, and
    returns the chord zero of the final bracket, or its midpoint if
    rounding puts that point outside.
    """
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    x1, f1, x2, f2 = lo, flo, hi, fhi  # the last two evaluated points
    widths = (np.inf, np.inf)  # before each of the last two steps
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol or not lo < mid < hi:
            break
        if trial is None:
            halved = hi - lo <= 0.5 * widths[0]
            # equal values, or a difference that overflows, give no secant zero
            secant = halved and 0.0 < abs(f2 - f1) < np.inf
            trial = x2 - (x2 - x1) * (f2 / (f2 - f1)) if secant else mid
        if not lo <= trial <= hi:
            trial = mid
        trial = min(max(trial, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < trial < hi:  # tol / 2 below the spacing of doubles
            trial = mid
        widths = (widths[1], hi - lo)
        x1, f1, x2, f2 = x2, f2, trial, f(trial)
        if f2 == 0.0:
            return trial
        if (f2 < 0.0) == (flo < 0.0):
            lo, flo = trial, f2
        else:
            hi, fhi = trial, f2
        trial = None
    chord = lo + (hi - lo) * (flo / (flo - fhi))
    return chord if lo <= chord <= hi else 0.5 * (lo + hi)


def find_eigenvalues(
    spec: ProblemSpec,
    e_min: float,
    e_max: float,
    grid_points: int,
    tol: float = 1e-10,
) -> list[Root]:
    """Scan delta[n] over a parameter grid and refine its sign changes.

    The depth n is ``spec.n_max``.  The grid is the distinct values of
    ``np.linspace(e_min, e_max, grid_points)`` clipped to [e_min, e_max]
    (a step that rounds up in the subnormal range takes ``np.linspace``
    past e_max): a value that rounding repeats (on a range of a few ulps)
    is searched once, since a cell between equal values cannot change
    sign, so no root is reported twice.
    One pass in grid order reports each grid point where delta[n] is
    exactly zero and refines each cell whose ends change sign to within
    ``tol`` of a sign change, so the roots come out in ascending order.
    The grid values and their delta[n] (skipped points have none) enter
    these cell tests as Python floats, which compare as the doubles they
    hold.  A cell is
    refined by :func:`_locate`, whose secant steps fall back to the
    midpoint, and its root is the chord zero of a final bracket of width
    ``tol`` or less.  Every root found at depth n is re-located at depth
    n + 2 inside the same grid cell, or inside both cells at a grid point
    it lies within ``tol`` of; if the ends of
    that bracket share a sign at depth n + 2 (a truncation root that moves
    across a grid point with depth), it gains the cell beyond its end
    nearer the root.  The recheck starts from the already evaluated point
    or adjacent pair nearest the root that holds a zero or a sign change of
    delta[n + 2], so it costs few new evaluations; it reads the evaluated
    points of its bracket from a sorted list, by bisection.  The reported
    residual is the distance between the two roots, each located to within
    ``tol`` (infinite, with a warning, if the deeper level cannot be
    re-bracketed there).

    Once per search, the inputs are validated, each expression is bound
    (:func:`_evaluator`), the derivative column at x0 of a side that does
    not depend on the parameter is taken, and one floating-point error
    state and one guard that turns a ``RecursionError`` into
    :class:`ParseOrEvalError` are set up.  The grid is bound in one call,
    and its derivative columns are evaluated in one batched pass
    (:func:`_scan_deltas`); at every other parameter value only the
    parameter side is called, on a one-value array, and
    :func:`_delta_recurrence` runs on Python lists.  Each value is
    evaluated once, to depth n + 2; the kernels form only delta[n] and
    delta[n + 2], as Python floats, and raise :class:`Overflow` if one
    leaves double range.  Both passes run the derivative recurrence of the
    module docstring, so a grid value equals a per-point evaluation bit for
    bit and the series ladder's value to the tolerance stated there.

    If binding the grid raises, every grid point is evaluated alone, in
    grid order, by the per-point kernel: points whose inputs cannot be
    evaluated (a singular pivot) are skipped with a warning, and any other
    error is raised by the first point that meets it.  With the parameter
    on neither side (both bound to constant arrays), delta[n] is one value
    at every E, so no cell changes sign: it is evaluated once, at the
    first grid point by the per-point kernel, which raises
    :class:`Overflow` if delta[n] or delta[n + 2] is not finite, and the
    result is empty, with a :class:`DegenerateDeltaWarning` if
    |delta[n]| < ``EPS_PIVOT``.  If delta[n] vanishes
    on the whole grid, it is evaluated once more at the midpoint of the
    first cell: if it vanishes there too (for example S = 0), or that
    midpoint overflows (ends near 1e308), the result is empty, with a
    :class:`DegenerateDeltaWarning`; otherwise every grid point is a root.
    So every parameter value evaluated is finite: the grid comes from a
    finite range, and trial points lie strictly inside finite brackets.
    A non-finite ``e_min``, ``e_max`` or ``e_max - e_min`` raises
    :class:`ValidationError`.
    """
    e_min, e_max = float(e_min), float(e_max)  # Python floats: e_max - e_min cannot warn
    if not (math.isfinite(e_min) and math.isfinite(e_max) and math.isfinite(e_max - e_min)):
        raise ValidationError("e_min, e_max and e_max - e_min must be finite")
    if e_min >= e_max:
        raise ValidationError("e_min must be < e_max")
    if grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    require_array_size(grid_points, "grid_points")
    if not 0.0 < tol < np.inf:
        raise ValidationError("tol must be positive and finite")

    grid = np.unique(np.linspace(e_min, e_max, grid_points).clip(e_min, e_max)).tolist()
    try:
        # the per-point conditioning chatter is not useful during a scan;
        # other warning categories still reach the caller's handlers
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("ignore", ConditioningWarning)
            return _search(spec, grid, tol)
    except RecursionError as exc:
        raise ParseOrEvalError("expression is nested too deeply to evaluate") from exc


def _warn_degenerate() -> None:
    """The :class:`DegenerateDeltaWarning` of :func:`_search`, against the
    caller of :func:`find_eigenvalues`."""
    warnings.warn(
        "termination quantity vanishes on the whole grid; no bracketing possible",
        DegenerateDeltaWarning,
        stacklevel=4,
    )


def _search(spec: ProblemSpec, grid: list[float], tol: float) -> list[Root]:
    """The search of :func:`find_eigenvalues` on its ascending distinct grid.

    Its warnings name the caller of :func:`find_eigenvalues` (stacklevel 3).
    """
    n = spec.n_max
    columns, deltas_at = _evaluator(spec, n + 2)
    # each E is evaluated once, to depth n + 2, and the kernels form only the
    # two depths the search reads: delta[n] for the scan and refinement,
    # delta[n + 2] for the recheck.  The grid fills ``deltas`` in one batched
    # pass (through ``delta``, point by point, if binding it fails), ``delta``
    # adds every other E, and ``evaluated`` holds the same E in ascending order
    depths = (n, n + 2)
    deltas: dict[float, tuple[float, float]] = {}
    evaluated: list[float] = []

    def delta(e: float) -> tuple[float, float]:
        if e not in deltas:
            deltas[e] = tuple(deltas_at(e, depths))
            bisect.insort(evaluated, e)
        return deltas[e]

    def sign(e: float) -> int:
        deep = delta(e)[1]
        return (deep > 0.0) - (deep < 0.0)

    def between(a: int, b: int) -> list[float]:
        """The evaluated E between grid points a and b (clipped to the grid)."""
        lo, hi = grid[max(a, 0)], grid[min(b, len(grid) - 1)]
        i, j = bisect.bisect_left(evaluated, lo), bisect.bisect_right(evaluated, hi)
        return evaluated[i:j]

    def recheck(e_found: float, a: int, b: int) -> float | None:
        """Root of delta[n + 2] nearest ``e_found`` between grid points a and b.

        If the ends share a sign, the bracket first gains the grid cell
        beyond its end nearer to ``e_found``; None if they still do.  The
        search starts from the evaluated point nearest ``e_found`` where
        delta[n + 2] is zero, or the adjacent evaluated points nearest it
        whose values change sign, whichever is nearer, and tries
        ``e_found`` first when it lies strictly between them.
        """
        points = between(a, b)
        if sign(points[0]) * sign(points[-1]) > 0:
            if e_found - points[0] <= points[-1] - e_found:
                a -= 1
            else:
                b += 1
            points = between(a, b)
            if sign(points[0]) * sign(points[-1]) > 0:
                return None
        brackets = [(e, e) for e in points if sign(e) == 0]
        brackets += [(x, y) for x, y in zip(points, points[1:]) if sign(x) * sign(y) < 0]
        lo, hi = min(brackets, key=lambda pair: max(pair[0] - e_found, e_found - pair[1]))
        trial = e_found if lo < e_found < hi else None
        return _locate(lambda e: delta(e)[1], lo, hi, tol, trial)

    # delta[n] at the grid points, None at the skipped ones; the cell tests
    # compare Python floats, which decide as the doubles they hold
    vals: list[float | None] = [None] * len(grid)
    try:
        dl, ds = columns(grid)
    except AimError:
        # some grid point fails: evaluate point by point, in grid order,
        # skipping singular points
        for i, e in enumerate(grid):
            try:
                vals[i] = delta(e)[0]
            except SingularPivot as exc:
                warnings.warn(
                    f"grid point E = {e:g} skipped: {exc}",
                    GridPointSkippedWarning,
                    stacklevel=3,
                )
    else:
        if dl.shape[1] == ds.shape[1] == 1:
            # neither side has E, so delta[n] is one value at every E: no cell
            # changes sign, and a delta that vanishes here vanishes everywhere
            if abs(delta(grid[0])[0]) < EPS_PIVOT:
                _warn_degenerate()
            return []
        shallow, deep = _scan_deltas(dl, ds, depths).tolist()
        deltas.update(zip(grid, zip(shallow, deep)))
        vals = shallow
        evaluated.extend(grid)
    known = [abs(v) for v in vals if v is not None]
    degenerate = not known or max(known) < EPS_PIVOT
    if degenerate and known:
        # every grid point may be a root: look once off the grid, where an
        # input that cannot be evaluated settles nothing, nor a midpoint
        # whose sum of ends near +-1e308 overflows
        mid = 0.5 * (grid[0] + grid[1])
        try:
            degenerate = not (math.isfinite(mid) and abs(delta(mid)[0]) >= EPS_PIVOT)
        except AimError:
            pass
    if degenerate:
        _warn_degenerate()
        return []

    roots: list[Root] = []
    for i, (v, w) in enumerate(zip(vals, vals[1:] + [None])):
        if v is None:
            continue
        if v == 0.0:
            e_found, a, b = grid[i], i - 1, i + 1
        elif w is not None and w != 0.0 and (v < 0.0) != (w < 0.0):
            e_found = _locate(lambda e: delta(e)[0], grid[i], grid[i + 1], tol)
            # a root on a grid point, where delta is rounding noise, may
            # change cell with depth: recheck over both cells at that point
            a = i - 1 if e_found - grid[i] <= tol else i
            b = i + 2 if grid[i + 1] - e_found <= tol else i + 1
        else:
            continue
        deeper = recheck(e_found, a, b)
        if deeper is None:
            warnings.warn(
                f"root near E = {e_found:.12g}: no sign change at depth "
                f"{n + 2} inside its bracket or the grid cell beside it",
                DepthRecheckWarning,
                stacklevel=3,
            )
        residual = float("inf") if deeper is None else abs(deeper - e_found)
        roots.append(Root(e_found, residual, n))
    return roots
