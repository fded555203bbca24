"""Iteration ladder for second-order linear ODE eigenproblems.

The equation is ``y'' = L(x) y' + S(x) y``, with L and S given as
expressions in ``x`` and one spectral parameter (:class:`ProblemSpec`).
Repeated differentiation gives the ladder

    L[n] = L[n-1]' + L * L[n-1] + S[n-1]
    S[n] = S[n-1]' + S * L[n-1]

whose termination quantity

    delta[n] = L[n](x0) * S[n-1](x0) - L[n-1](x0) * S[n](x0)

vanishes at the eigenvalues of problems whose ladder terminates.

* :func:`_ladder` runs the ladder on Taylor coefficients about x0;
  :func:`aim_iterate` and :func:`aim_matrix_iterate` are its two views.
* :func:`_delta_recurrence` gives delta[n] from the derivatives of L and S
  at x0 alone, in O(n**2), and says how its values relate to the ladder's;
  :func:`_scan_deltas` is its batched twin for a grid, and
  :func:`_cross_deltas` the one delta formula of both and of the ladder.
  Both run a term plan of :func:`_plan`, which lists the terms of each
  level in one shape on every route, forms only the binomials it lists and
  decides the symmetric route once per term structure; the factorial scale
  of the derivatives comes from :func:`_tables`.
* :func:`find_eigenvalues` scans delta[n] over a parameter grid, refines
  each sign change by :func:`_locate` and rechecks each root at depth
  n + 2; :func:`_evaluator` binds the inputs of a search and builds each
  of its term plans once, in a memo that ends with the search.
"""

from __future__ import annotations

import bisect
import functools
import math
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
    require_array_size,
    require_number,
)
from .series import (
    EPS_PIVOT,
    Expression,
    TaylorSeries,
    _Shifted,
    _bind,
    _checked,
    _finite,
    _result,
    _rows,
    parse_expression,
    series_from_expr,
)


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified eigenproblem in ``y'' = L y' + S y`` form.

    Attributes:
        lambda0: expression for the first-derivative coefficient L(x).
        s0: expression for the zeroth-order coefficient S(x).
        x0: expansion/evaluation point for the ladder; a finite real.
        order: Taylor order carried by the ladder, an integer >= n_max + 2
            so that the deepest ladder entries keep usable coefficients.
        n_max: depth n of every ladder run on this problem, an integer >= 1.
    """

    lambda0: Expression
    s0: Expression
    x0: float
    order: int
    n_max: int

    def __post_init__(self):
        require_number(self.order, "order", integer=True)
        require_number(self.n_max, "n_max", integer=True)
        if self.n_max < 1:
            raise ValidationError("n_max must be at least 1")
        if self.order < self.n_max + 2:
            raise ValidationError(
                f"order ({self.order}) must be >= n_max + 2 ({self.n_max + 2})"
            )
        require_number(self.x0, "series center")
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
        """Parse L and S, expressions in ``x`` and the parameter ``param_name``."""
        return cls(
            lambda0=parse_expression(lambda0, param_name),
            s0=parse_expression(s0, param_name),
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
    L[i](x0) and S[i](x0).  Level i + 1 is an index shift of level i (the
    derivative) plus its convolution with L and S, accumulated as ``(shift +
    L-convolution) + S`` over equal-length prefixes, which reproduces
    truncated Taylor arithmetic bit for bit whatever the number of input
    coefficients; :func:`aim_iterate` and :func:`aim_matrix_iterate` are
    bit-identical views of it.  Raises :class:`Overflow` if any coefficient
    leaves double range: coefficient m of level i reaches coefficient m - 1 of
    level i + 1 through the shift, and a non-finite operand keeps a sum
    non-finite, so the at-centre values and the last level show every one.
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
    lam_at, s_at = at.tolist()  # u_b and u_a past their initial conditions
    delta = _cross_deltas([1.0, 0.0, *s_at], [0.0, 1.0, *lam_at], range(1, spec.n_max + 1))
    if not all(map(math.isfinite, delta)):  # finite L and S do not rule it out
        raise Overflow("termination quantity overflows double range")
    # _ladder has checked every level for overflow; level 0 shares the
    # read-only input arrays
    return AIMSequences(
        lam=tuple(_result(lam0.center, c) for c in lam),
        s=tuple(_result(lam0.center, c) for c in s),
        delta=np.array(delta),
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
def _tables(width: int) -> tuple[np.ndarray, np.ndarray]:
    """t! for t < width as a correctly rounded mantissa times an exact power of two.

    It comes from the exact integers of a running product and is built on
    first use for each width, so nothing is computed at import.
    """
    mant, exp = [], []
    fact = 1
    for t in range(width):
        fact *= t or 1
        e = max(fact.bit_length() - 53, 0)
        mant.append(fact / (1 << e))  # int division rounds correctly
        exp.append(e)
    return np.array(mant), np.array(exp)


def _plan(width: int, terms: tuple[tuple[int, bool, bool], ...]) -> tuple:
    """The term plan of both delta kernels for one term structure: ``(symmetric, levels)``.

    ``terms`` holds ``(t, l, s)`` in ascending t for each order t that the sum
    of :func:`_delta_recurrence` runs over, with ``l`` and ``s`` saying whether
    it takes L^(t) and S^(t).  ``symmetric`` says whether the structure is a
    symmetric centre: no L^(t) at an even t and no S^(t) at an odd t; this is
    the one place that decides it.  ``levels[k]``, for each k < ``width``, lists
    the terms t <= k of u(k + 2) in ascending t as ``(C(k, t), i, slot,
    other)``, Python floats and ints, on every route.  The term is ``co[slot]
    u(i)``, plus ``co[other] u(i - 1)`` where ``other`` is not None, in the
    kernels' coefficient list ``co``: L^(t) at slot t reads i = k + 1 - t,
    S^(t) at slot ``width + t`` reads i = k - t, and where both are taken,
    which a symmetric centre never does, ``slot`` is L^(t)'s and ``other``
    S^(t)'s.

    The binomials are formed here alone, and only those the plan lists: down
    the column of each listed t, the exact integer C(k + 1, t) = C(k, t) (k +
    1) / (k + 1 - t), each correctly rounded to a double, or inf past double
    range.  An update costs the length of C(k, t), so a dense plan (a rational
    input) costs no more than Pascal's rule would.
    """
    symmetric = not any(s if t % 2 else l for t, l, s in terms)
    levels = [[] for _ in range(width)]
    for t, l, s in terms:
        back, slot = (t - 1, t) if l else (t, width + t)
        other = width + t if l and s else None
        c = 1  # C(k, t), exact
        for k in range(t, width):
            levels[k].append((_rounded(c), k - back, slot, other))
            c = c * (k + 1) // (k + 1 - t)
    return symmetric, levels


def _delta_recurrence(plan: tuple, co: list[float], depths: Iterable[int]) -> list[float]:
    """delta[d], d in ``depths``, from the derivatives t! c[t] at x0 of L and S by a term plan.

    Since y^(i+2) = L[i] y' + S[i] y, L[i](x0) and S[i](x0) are the
    derivatives u_b(i + 2) and u_a(i + 2) at x0 of the solutions with
    (y, y') = (0, 1) and (1, 0) there, which the Leibniz rule gives in
    O(depth**2) operations instead of the ladder's O(depth**3):

        u(k + 2) = sum over t of C(k, t) (L^(t) u(k + 1 - t) + S^(t) u(k - t))

    ``co`` holds L^(t) at slot t and S^(t) at slot ``width + t`` as Python
    floats, and ``plan`` is the :func:`_plan` of the orders t the sum runs
    over, ascending, which a search fixes once where it can
    (:func:`_evaluator`): every t where L^(t)(x0) or S^(t)(x0) is nonzero, and
    maybe t where both are zero at this point.  The sum runs onto a +0.0
    accumulator, term by term as the plan lists them, and :func:`_cross_deltas`
    forms delta at ``depths`` (1..width - 1) only, with no array copies or
    ``np.errstate``.  Derivatives, not Taylor coefficients, are carried, since
    u(k) / k! underflows where u(k) and delta do not.  A value beyond double
    range turns inf or nan; if that reaches a delta of ``depths``, this raises
    :class:`Overflow`.

    The plan leaves out the zero side of an order.  A product of a finite
    number and zero could only change the sign of a zero term, which the sum
    onto +0.0 erases, so a zero term, kept or left out, changes no value, not
    even a zero's sign; a 0 * inf follows an overflow that raises either way.

    At a symmetric centre, L^(t) zero at every even t and S^(t) at every odd t
    (L odd and S even about x0, as for the oscillator and the quartic at
    x0 = 0), u_a is even and u_b odd: one of u_a(k), u_b(k) is exactly +0.0 at
    every k, each term of its sum being a finite number times +0.0.  The loop
    then runs once, on v = u_a + u_b from (1, 1), each term of the plan one
    side: v(k + 1 - t) times L^(t) or v(k - t) times S^(t); v(k) is the nonzero
    one of u_a(k), u_b(k) bit for bit, the same products summed in the same
    order.  Where a zero of the two-solution loop would turn nan, the nonzero
    solution is non-finite at the same index, so the same deltas raise.
    Elsewhere one fused loop runs over both solutions, cheaper than two loops.

    :func:`_scan_deltas` gives the same values bit for bit.  The series ladder
    sums in another order and agrees to rounding: within 1e-13 of the cross
    terms ``|L|[i+1] |S|[i] + |L|[i] |S|[i+1]`` of the ladder run on absolute
    input coefficients, which scale the rounding error of both.
    """
    symmetric, levels = plan
    if symmetric:
        v = [1.0, 1.0]
        for level in levels:
            a = 0.0
            for c, i, slot, _ in level:
                a += c * (co[slot] * v[i])
            v.append(a)
        delta = _cross_deltas(v, None, depths)
    else:
        ua, ub = [1.0, 0.0], [0.0, 1.0]
        for level in levels:
            a = b = 0.0
            for c, i, slot, other in level:
                x = co[slot]
                if other is None:
                    a += c * (x * ua[i])
                    b += c * (x * ub[i])
                else:
                    s = co[other]
                    a += c * (x * ua[i] + s * ua[i - 1])
                    b += c * (x * ub[i] + s * ub[i - 1])
            ua.append(a)
            ub.append(b)
        delta = _cross_deltas(ua, ub, depths)
    if not all(map(math.isfinite, delta)):
        raise Overflow("termination quantity overflows double range")
    return delta


def _cross_deltas(ua, ub, depths: Iterable[int]) -> list:
    """delta[d] = u_b(d + 2) u_a(d + 1) - u_b(d + 1) u_a(d + 2), d in ``depths``.

    The one delta formula of both kernels, on Python floats or on arrays of
    grid points; with L[i](x0) = u_b(i + 2) and S[i](x0) = u_a(i + 2) it is the
    ladder's cross product, as :func:`aim_iterate` forms it.  ``ub`` is None at
    a symmetric centre, where ``ua`` holds v = u_a + u_b
    (:func:`_delta_recurrence`) and one product has two +0.0 operands:
    v(d + 2) v(d + 1) - 0.0 for odd d, 0.0 - v(d + 1) v(d + 2) for even d.
    """
    if ub is None:
        v = ua
        return [v[d + 2] * v[d + 1] - 0.0 if d % 2 else 0.0 - v[d + 1] * v[d + 2] for d in depths]
    return [ub[d + 2] * ua[d + 1] - ub[d + 1] * ua[d + 2] for d in depths]


def _scan_deltas(plan: tuple, co: list, points: int, depths: Iterable[int]) -> np.ndarray:
    """delta[d], d in ``depths``, at each of ``points`` grid points by a term plan.

    The batched twin of :func:`_delta_recurrence`, whose docstring gives the
    recurrence and why skipped zeros and the symmetric route change no value.
    Slot t of ``co`` holds L^(t)(x0) and slot ``width + t`` S^(t)(x0), each a
    Python float where it holds at every point, else an array of the points;
    ``plan`` takes every order where a side is nonzero at some point.  One
    loop over the plan's levels runs the recurrence on every route, each level
    summed in place onto +0.0 term by term as the plan lists them: on ``(2,
    points)`` arrays of u_a and u_b, or at a symmetric centre on ``(points,)``
    arrays of v = u_a + u_b.  A coefficient that is zero at a point adds only
    zeros there, so every point equals :func:`_delta_recurrence` bit for bit,
    whatever the other points hold.  The multiply by C(k, 0) = C(k, k) = 1 is
    left out.  Returns a ``(len(depths), points)`` array; raises
    :class:`Overflow` if one of its values leaves double range, without numpy's
    floating-point warnings.
    """
    symmetric, levels = plan
    width = len(levels)
    with np.errstate(over="ignore", invalid="ignore"):
        # u[k] holds u(k) of every point, u_a and u_b or v alone, and rows[k]
        # reads it, a (points,) row for v; each u(k + 2) is summed in place
        # onto +0, term by term, as _delta_recurrence sums onto 0.0
        u = np.zeros((width + 2, 1 if symmetric else 2, points))
        u[0, 0] = u[1, -1] = 1.0
        rows = u[:, 0] if symmetric else u
        term, part = np.empty(rows.shape[1:]), np.empty(rows.shape[1:])
        for k, level in enumerate(levels):
            acc = rows[k + 2]
            for c, i, slot, other in level:
                np.multiply(co[slot], rows[i], out=term)
                if other is not None:
                    term += np.multiply(co[other], rows[i - 1], out=part)
                if c != 1.0:
                    term *= c
                acc += term
        delta = np.array(_cross_deltas(u[:, 0], None if symmetric else u[:, 1], depths))
    if not np.isfinite(delta).all():
        raise Overflow("termination quantity overflows double range")
    return delta


def _evaluator(spec: ProblemSpec, order: int) -> tuple[
    Callable[[list[float]], tuple | None], Callable[[float, Iterable[int]], list[float]]
]:
    """Bind L and S of one search at x0 to ``order``; return ``(columns, deltas_at)``.

    Each expression is bound once, by :func:`~aimcf.series._bind`, and enters
    the kernels as its derivatives t! c[t] at x0, with t! as a correctly
    rounded mantissa times an exact power of two, so a derivative is finite
    wherever it lies in double range, also past t = 170 where t! is not.  The
    derivatives that hold at every value are computed here, once: all of a
    constant side, and every one past the constant term of a record of the
    rule of :func:`~aimcf.series._bind`, whose constant term (0! = 1) is the
    only one that varies.  Any other side is a row stack at each call.

    Both kernels run a term plan of :func:`_plan`, built here once per term
    structure by a memo local to this call, so the plans of a search live as
    long as the search.  Where no side needs a row stack, the term structure is
    fixed but for order 0, which the per-point kernel always takes: every order
    where a fixed derivative is nonzero on either side, and order 0.
    ``columns(values)`` gives the input ``(plan, co, points)`` of
    :func:`_scan_deltas`, with every fixed derivative a Python float and the
    others arrays of the values; it is None where neither side has the
    parameter.  ``deltas_at(e, depths)`` gives delta[d] at one value for d in
    ``depths`` (1..order) by :func:`_delta_recurrence`.

    The caller checks that every value is finite and runs binding and calls
    under ``np.errstate(over="ignore", invalid="ignore")``, turning a
    ``RecursionError`` into :class:`~aimcf.errors.ParseOrEvalError`, as
    :func:`~aimcf.series.series_from_expr` does; ``spec`` has checked x0.
    """
    width = order + 1
    mant, exp = _tables(width)
    plan = functools.lru_cache(maxsize=None)(functools.partial(_plan, width))

    def derivatives(coeffs: np.ndarray) -> np.ndarray:
        return np.ldexp(mant * coeffs, exp)

    def routes(side):
        """The derivatives of ``side`` at many values and at one, and those
        that hold at every value (row 0 a placeholder), or None where they vary."""
        if isinstance(side, np.ndarray):
            fixed = derivatives(side).tolist()
            return (lambda values: fixed), (lambda e: fixed), fixed
        if isinstance(side, _Shifted):
            head, rest = side.head, np.ldexp(mant[1:] * side.tail, exp[1:]).tolist()
            batch = lambda values: [_checked(head(values)), *rest]
            return batch, (lambda e: [_finite(head(e)), *rest]), [0.0, *rest]
        # copied so that each row t is contiguous
        batch = lambda values: list(derivatives(_rows(side, values)).T.copy())
        return batch, (lambda e: derivatives(_rows(side, np.array([e]))[0]).tolist()), None

    def structure(on: list) -> tuple:
        """The term structure of L's and then S's ``width`` coefficients, or
        flags: every order where one is nonzero, with whether each side is."""
        pairs = enumerate(zip(on, on[width:]))
        return tuple((t, bool(l), bool(s)) for t, (l, s) in pairs if l or s)

    bound = [_bind(e, spec.x0, order) for e in (spec.lambda0, spec.s0)]
    (batch_l, at_l, fixed_l), (batch_s, at_s, fixed_s) = map(routes, bound)
    constant = all(isinstance(side, np.ndarray) for side in bound)
    # the term structure past order 0, where no side needs a row stack
    fixed = None if None in (fixed_l, fixed_s) else structure(
        [0.0, *fixed_l[1:], 0.0, *fixed_s[1:]]
    )

    def columns(values: list[float]) -> tuple | None:
        if constant:
            return None
        values = np.array(values)
        co = batch_l(values) + batch_s(values)
        on = [c.any() if isinstance(c, np.ndarray) else c for c in co]
        return plan(structure(on)), co, values.size

    def deltas_at(e: float, depths: Iterable[int]) -> list[float]:
        co = at_l(e) + at_s(e)
        if fixed is None:
            terms = structure(co)
        else:
            terms = ((0, bool(co[0]), bool(co[width])), *fixed)
        return _delta_recurrence(plan(terms), co, depths)

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
    ``np.linspace(e_min, e_max, grid_points)`` clipped to [e_min, e_max] (a
    step that rounds up in the subnormal range takes ``np.linspace`` past
    e_max), so no value is searched twice and no root reported twice.  One
    pass in grid order reports each grid point where delta[n] is exactly zero
    and refines each cell whose ends change sign by :func:`_locate`, so the
    roots come out in ascending order.  Each root is re-located at depth n + 2
    inside the same grid cell, or inside both cells at a grid point it lies
    within ``tol`` of; a bracket whose ends share a sign at depth n + 2 (a
    truncation root that crosses a grid point with depth) gains the cell
    beyond its end nearer the root.  The residual is the distance between the
    two roots (infinite, with a :class:`DepthRecheckWarning`, if the deeper
    level has no sign change there).

    Each parameter value is evaluated once, to depth n + 2, by the kernels of
    :func:`_evaluator`, the grid in one batched pass; :class:`Overflow` is
    raised where delta[n] or delta[n + 2] leaves double range.  If the grid
    cannot be bound as a whole, its points are evaluated one by one, and those
    with a singular pivot are skipped with a :class:`GridPointSkippedWarning`.
    With the parameter on neither side the result is empty, with a
    :class:`DegenerateDeltaWarning` if |delta[n]| < ``EPS_PIVOT``.  So is it
    where delta[n] vanishes on the whole grid and at the midpoint of its first
    cell (for example S = 0) or that midpoint overflows; if only the grid
    vanishes, every grid point is a root.  The tiny-pivot
    :class:`ConditioningWarning` of a division in L or S is not passed on.
    ``e_min``, ``e_max`` or ``tol`` that is not a finite real, a
    ``grid_points`` that is not an integer, and a non-finite ``e_max -
    e_min`` raise :class:`ValidationError`, and an expression nested too
    deeply to evaluate :class:`ParseOrEvalError`.
    """
    for value, label in ((e_min, "e_min"), (e_max, "e_max"), (tol, "tol")):
        require_number(value, label)
    require_number(grid_points, "grid_points", integer=True)
    e_min, e_max = float(e_min), float(e_max)  # Python floats: e_max - e_min cannot warn
    if not math.isfinite(e_max - e_min):
        raise ValidationError("e_max - e_min must be finite")
    if e_min >= e_max:
        raise ValidationError("e_min must be < e_max")
    if grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    require_array_size(grid_points, "grid_points")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")

    grid = np.unique(np.linspace(e_min, e_max, grid_points).clip(e_min, e_max)).tolist()
    try:
        # drops only the tiny-pivot ConditioningWarning of _divide, which a
        # Div node of L or S raises when bound or called; other warnings
        # reach the caller's handlers
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
        scan = columns(grid)
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
        if scan is None:
            # neither side has E, so delta[n] is one value at every E: no cell
            # changes sign, and a delta that vanishes here vanishes everywhere
            if abs(delta(grid[0])[0]) < EPS_PIVOT:
                _warn_degenerate()
            return []
        shallow, deep = _scan_deltas(*scan, depths).tolist()
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
