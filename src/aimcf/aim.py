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
:func:`find_eigenvalues` scans for and then refines by safeguarded Illinois
(modified regula falsi) steps.

One raw-array kernel, :func:`_ladder`, runs the recursion on Taylor
coefficients: level n + 1 is an index shift of level n (the derivative)
plus its convolution with the coefficients of L and S.  Coefficient m of
level n depends only on coefficients 0..m + n of the inputs, so trimming
the inputs to depth + 1 coefficients leaves every delta up to that depth
exact, and bit-identical, since the kernel keeps the accumulation order of
truncated series arithmetic.  :func:`aim_iterate` (whole series per level)
and :func:`aim_matrix_iterate` (coefficient table) are views of that
kernel, and the kernel raises :class:`~aimcf.errors.Overflow` when a
coefficient leaves double range, so every view reports overflow alike.

The eigenvalue search binds both expressions once per search
(:func:`~aimcf.series.bind_series` at order n + 2) and evaluates each
distinct parameter value once, to depth n + 2, reading the scan and
refinement values at depth n and the recheck values at depth n + 2 from
that one evaluation.  Which kernel evaluates a value follows from what is
evaluated: the whole grid goes through :func:`_scan_deltas` in one batched
pass, one row per grid point, and each refinement or recheck point goes
through :func:`_ladder` alone, which is faster for a single point and is
the kernel the tests pin bit for bit.  The batched kernel sums its
convolutions in another order, so its deltas agree with the per-point
ones to rounding: within 1e-12 of the cross terms ``|L|[i+1] |S|[i] +
|L|[i] |S|[i+1]`` of the ladder run on absolute input coefficients,
which scale the rounding error of both orders.  No parameter value is
evaluated by both kernels.

Every ladder runs to the one depth of its problem, ``ProblemSpec.n_max``
(the n of delta[n]); a caller that wants another depth builds another
spec, for example with ``dataclasses.replace(spec, n_max=d)``.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConditioningWarning,
    DegenerateDeltaWarning,
    DepthRecheckWarning,
    GridPointSkippedWarning,
    IndexOutOfRange,
    OrderExhausted,
    Overflow,
    SingularPivot,
    ValidationError,
)
from .series import (
    EPS_PIVOT,
    Expression,
    TaylorSeries,
    bind_series,
    parse_expression,
    series_from_expr,
)


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified eigenproblem in ``y'' = L y' + S y`` form.

    Attributes:
        lambda0: expression for the first-derivative coefficient L(x).
        s0: expression for the zeroth-order coefficient S(x).
        param_name: name of the spectral parameter appearing in the
            expressions (conventionally the energy).
        x0: expansion/evaluation point for the ladder.
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


@dataclass(frozen=True)
class AIMSequences:
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
    return AIMSequences(
        lam=tuple(TaylorSeries(spec.x0, c) for c in lam),
        s=tuple(TaylorSeries(spec.x0, c) for c in s),
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


def _bind_inputs(
    spec: ProblemSpec, order: int
) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
    """Coefficients 0..order of (L, S) at x0 as a function of the parameter."""
    lam = bind_series(spec.lambda0, spec.x0, order)
    s = bind_series(spec.s0, spec.x0, order)
    return lambda e: (lam(e).coeffs, s(e).coeffs)


def _delta_vector(l0: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """delta[1..depth] from input coefficients 0..depth, through :func:`_ladder`.

    Level i of the ladder needs only depth + 1 - i coefficients for the
    deltas up to depth, so the values equal those of :func:`aim_iterate`
    at any larger order.
    """
    return _cross(*_ladder(l0, s0, l0.size - 1)[2])


def _scan_deltas(l0: np.ndarray, s0: np.ndarray) -> np.ndarray:
    """delta[1..depth] for each row of ``(points, depth + 1)`` input coefficients.

    The batched twin of :func:`_delta_vector`, for a whole grid in one pass.
    Each convolution is a sum of shifted elementwise products, one per input
    column that is nonzero in some row, so every row gets the same
    operations whatever the other rows hold (a column that is zero in this
    row adds only zeros) and a row's values do not depend on which points
    share the pass.  It sums in another order than ``np.convolve``, so its
    values agree with :func:`_delta_vector` to rounding, not bit for bit.
    Raises :class:`Overflow` (from :func:`_cross`) if any value leaves double
    range, without numpy's floating-point warnings: every coefficient reaches
    an at-centre value, and so a delta, through the index shift.
    """
    points, width = l0.shape
    k = np.arange(1, width, dtype=float)
    cols_l = np.flatnonzero(l0.any(axis=0))
    cols_s = np.flatnonzero(s0.any(axis=0))
    l, s = l0, s0
    lam_at, s_at = [l[:, 0]], [s[:, 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(width - 1, 0, -1):
            conv_l = np.zeros((points, n))
            conv_s = np.zeros((points, n))
            for t in cols_l[cols_l < n]:
                conv_l[:, t:] += l0[:, t, None] * l[:, : n - t]
            for t in cols_s[cols_s < n]:
                conv_s[:, t:] += s0[:, t, None] * l[:, : n - t]
            l, s = (k[:n] * l[:, 1:] + conv_l) + s[:, :n], k[:n] * s[:, 1:] + conv_s
            lam_at.append(l[:, 0])
            s_at.append(s[:, 0])
    return _cross(np.array(lam_at), np.array(s_at)).T


def find_eigenvalues(
    spec: ProblemSpec,
    e_min: float,
    e_max: float,
    grid_points: int,
    tol: float = 1e-10,
) -> list[Root]:
    """Scan delta[n] over a parameter grid and refine its sign changes.

    The depth n is ``spec.n_max``.  One pass in grid order reports each
    grid point where delta[n] is exactly zero and refines each cell whose
    ends change sign to within ``tol`` of a sign change, so the roots come
    out in ascending order.  Every root found at depth n is re-located at
    depth n + 2 inside the same grid cell, or inside both cells at a grid
    point it lies within ``tol`` of, starting from it; the reported
    residual is the distance between the two roots, each located to within
    ``tol`` (infinite, with a warning, if the deeper level cannot be
    re-bracketed).  Both expressions are bound once; the grid is evaluated
    in one batched pass (:func:`_scan_deltas`) and every other parameter
    value alone (:func:`_ladder`), so grid values agree with a per-point
    evaluation to the tolerance the module docstring states.
    Grid points whose inputs cannot be evaluated (a singular pivot) are
    skipped with a warning and drop out of the batch.  An identically
    vanishing delta (for example S = 0) yields no brackets and an empty
    result.
    """
    n = spec.n_max
    if e_min >= e_max:
        raise ValidationError("e_min must be < e_max")
    if grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    if not 0.0 < tol < np.inf:
        raise ValidationError("tol must be positive and finite")

    grid = [float(e) for e in np.linspace(e_min, e_max, grid_points)]
    # each E is evaluated once, to depth n + 2, serving the scan, the
    # refinement at depth n and the recheck at depth n + 2 alike; the grid
    # fills this in one batched pass, ``delta`` adds every other E alone
    # (``inputs`` is bound below, inside the warning filter)
    deltas: dict[float, np.ndarray] = {}

    def delta(e: float, depth: int) -> float:
        if e not in deltas:
            deltas[e] = _delta_vector(*inputs(e))
        return float(deltas[e][depth - 1])

    def locate(depth: int, lo: float, hi: float, trial: float | None = None) -> float | None:
        """Zero of delta[depth] in [lo, hi] by safeguarded Illinois steps.

        None if the ends share a sign.  A step tries ``trial`` if given, else
        the regula falsi point of the ends, halving the value at an end kept
        twice in a row; the midpoint when that point is not strictly inside
        (``flo - fhi`` may overflow) or the bracket has not halved over the
        last two steps; clamped tol / 2 inside, so the bracket closes.
        Stops at width ``tol`` or when no double lies inside.
        """
        flo = delta(lo, depth)
        if flo == 0.0:
            return lo
        fhi = delta(hi, depth)
        if fhi == 0.0:
            return hi
        if (flo < 0.0) == (fhi < 0.0):
            return None
        widths = (np.inf, np.inf)  # before each of the last two steps
        kept = ""  # the end the last step kept
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if hi - lo <= tol or not lo < mid < hi:
                break
            if trial is None:
                halved = hi - lo <= 0.5 * widths[0]
                trial = lo + (hi - lo) * (flo / (flo - fhi)) if halved else mid
            if not lo < trial < hi:
                trial = mid
            trial = min(max(trial, lo + 0.5 * tol), hi - 0.5 * tol)
            widths = (widths[1], hi - lo)
            f = delta(trial, depth)
            if f == 0.0:
                return trial
            if (f < 0.0) == (flo < 0.0):
                lo, flo = trial, f
                fhi *= 0.5 if kept == "hi" else 1.0
                kept = "hi"
            else:
                hi, fhi = trial, f
                flo *= 0.5 if kept == "lo" else 1.0
                kept = "lo"
            trial = None
        return 0.5 * (lo + hi)

    # the per-point conditioning chatter is not useful during a scan; other
    # warning categories still reach the caller's handlers
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        inputs = _bind_inputs(spec, n + 2)
        rows: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        for e in grid:
            try:
                rows[e] = inputs(e)
            except SingularPivot as exc:
                warnings.warn(
                    f"grid point E = {e:g} skipped: {exc}",
                    GridPointSkippedWarning,
                    stacklevel=2,
                )
        if rows:
            l0, s0 = (np.array(c) for c in zip(*rows.values()))
            deltas.update(zip(rows, _scan_deltas(l0, s0)))
        vals = np.array([deltas[e][n - 1] if e in deltas else np.nan for e in grid])
        finite = np.isfinite(vals)
        if not finite.any() or np.max(np.abs(vals[finite])) < EPS_PIVOT:
            warnings.warn(
                "termination quantity vanishes on the whole grid; "
                "no bracketing possible",
                DegenerateDeltaWarning,
                stacklevel=2,
            )
            return []

        roots: list[Root] = []
        for i in range(grid_points):
            if not finite[i]:
                continue
            if vals[i] == 0.0:
                e_found = grid[i]
                lo = grid[max(i - 1, 0)]
                hi = grid[min(i + 1, grid_points - 1)]
            elif (
                i + 1 < grid_points
                and finite[i + 1]
                and vals[i + 1] != 0.0
                and (vals[i] < 0.0) != (vals[i + 1] < 0.0)
            ):
                lo, hi = grid[i], grid[i + 1]
                e_found = locate(n, lo, hi)
                # a root on a grid point, where delta is rounding noise, may
                # change cell with depth: recheck over both cells at that point
                if e_found - lo <= tol:
                    lo = grid[max(i - 1, 0)]
                if hi - e_found <= tol:
                    hi = grid[min(i + 2, grid_points - 1)]
            else:
                continue
            deeper = locate(n + 2, lo, hi, e_found)
            if deeper is None:
                warnings.warn(
                    f"root near E = {e_found:.12g}: no sign change at depth "
                    f"{n + 2} inside the original bracket",
                    DepthRecheckWarning,
                    stacklevel=2,
                )
            residual = float("inf") if deeper is None else abs(deeper - e_found)
            roots.append(Root(e_found, residual, n))
    return roots
