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
:func:`find_eigenvalues` scans and bisects for.

One raw-array kernel, :func:`_ladder`, runs the recursion on Taylor
coefficients: level n + 1 is an index shift of level n (the derivative)
plus its convolution with the coefficients of L and S.  Coefficient m of
level n depends only on coefficients 0..m + n of the inputs, so trimming
the inputs to depth + 1 coefficients leaves every delta up to that depth
exact, and bit-identical, since the kernel keeps the accumulation order of
truncated series arithmetic.  :func:`aim_iterate` (whole series per level)
and :func:`aim_matrix_iterate` (coefficient table) are views of that
kernel.  The eigenvalue search evaluates each distinct parameter value
once, to depth n + 2 on trimmed inputs, and reads the scan and bisection
values at depth n and the recheck values at depth n + 2 from that one
pass.

Every ladder runs to the one depth of its problem, ``ProblemSpec.n_max``
(the n of delta[n]); a caller that wants another depth builds another
spec, for example with ``dataclasses.replace(spec, n_max=d)``.
"""

from __future__ import annotations

import warnings
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
    """Ladder output: series lists plus scalar diagnostics at x0.

    ``lam[n]`` and ``s[n]`` hold the depth-n series (order decreasing by
    one per level).  ``delta[i]`` is the termination quantity at depth
    ``i + 1``.  ``alpha[n]`` is ``s[n](x0) / lam[n](x0)`` where the
    denominator is nonzero and NaN elsewhere.
    """

    lam: tuple[TaylorSeries, ...]
    s: tuple[TaylorSeries, ...]
    delta: np.ndarray
    alpha: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.lam) - 1


def _ladder(
    l0: np.ndarray, s0: np.ndarray, depth: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Coefficient arrays of ladder levels 0..depth; level i is i entries shorter.

    The accumulation order ``(shift + L-convolution) + S`` and the per-level
    ``np.convolve`` of equal-length prefixes reproduce truncated Taylor
    arithmetic bit for bit, so the result does not depend on how many input
    coefficients the caller passes beyond those a level needs.
    """
    k = np.arange(1, l0.size, dtype=float)
    lam, s = [l0], [s0]
    for _ in range(depth):
        l, sl = lam[-1], s[-1]
        n = l.size - 1
        lam.append((k[:n] * l[1:] + np.convolve(l0[: n + 1], l)[:n]) + sl[:n])
        s.append(k[:n] * sl[1:] + np.convolve(s0[: n + 1], l)[:n])
    return lam, s


def _cross(lam_at: np.ndarray, s_at: np.ndarray) -> np.ndarray:
    """delta[i] = L[i+1] S[i] - L[i] S[i+1] from the at-centre values."""
    return lam_at[1:] * s_at[:-1] - lam_at[:-1] * s_at[1:]


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
    lam, s = _ladder(lam0.coeffs, s0.coeffs, spec.n_max)
    lam_at = np.array([c[0] for c in lam])
    s_at = np.array([c[0] for c in s])
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(lam_at != 0.0, s_at / lam_at, np.nan)
    return AIMSequences(
        lam=tuple(TaylorSeries(spec.x0, c) for c in lam),
        s=tuple(TaylorSeries(spec.x0, c) for c in s),
        delta=_cross(lam_at, s_at),
        alpha=alpha,
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
    lam, s = _ladder(lam0.coeffs[:rows], s0.coeffs[:rows], n_max)
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


def _delta_vector(spec: ProblemSpec, e: float, depth: int) -> np.ndarray:
    """delta[1..depth] at parameter ``e``, from inputs of order ``depth``.

    Level i of the ladder needs only depth + 1 - i coefficients for the
    deltas up to ``depth``, so the values equal those of :func:`aim_iterate`
    at any larger order.  Every computed coefficient feeds some at-centre
    value through the index shift, so a non-finite one shows up there; the
    inputs are finite series, so only overflow in the ladder can cause it.
    """
    lam0 = series_from_expr(spec.lambda0, e, spec.x0, depth)
    s0 = series_from_expr(spec.s0, e, spec.x0, depth)
    lam, s = _ladder(lam0.coeffs, s0.coeffs, depth)
    lam_at = np.array([c[0] for c in lam])
    s_at = np.array([c[0] for c in s])
    if not (np.isfinite(lam_at).all() and np.isfinite(s_at).all()):
        raise Overflow(
            f"ladder at {spec.param_name} = {e:g} overflows double range "
            f"by depth {depth}"
        )
    return _cross(lam_at, s_at)


def _bisect(f, lo: float, hi: float, flo: float, fhi: float, tol: float) -> float:
    """Plain bisection on a sign change; returns the midpoint estimate."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) != (fmid < 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def find_eigenvalues(
    spec: ProblemSpec,
    e_min: float,
    e_max: float,
    grid_points: int,
    tol: float = 1e-10,
) -> list[Root]:
    """Scan delta[n] over a parameter grid and bisect its sign changes.

    The depth n is ``spec.n_max``.  Every root found at depth n is
    re-located at depth n + 2 inside the same grid cell; the reported
    residual is the movement between the two depths (infinite, with a
    warning, if the deeper level cannot be re-bracketed).  Grid points
    where the ladder cannot be evaluated are skipped with a warning.  An
    identically vanishing delta (for example S = 0) yields no brackets and
    an empty result.
    """
    n = spec.n_max
    if e_min >= e_max:
        raise ValidationError("e_min must be < e_max")
    if grid_points < 2:
        raise ValidationError("grid_points must be >= 2")
    if not tol > 0.0:
        raise ValidationError("tol must be positive")

    grid = np.linspace(e_min, e_max, grid_points)
    vals = np.full(grid_points, np.nan)
    # each E is evaluated once, to depth n + 2, serving the scan, the
    # bisection at depth n and the recheck at depth n + 2 alike
    deltas: dict[float, np.ndarray] = {}

    def delta(e: float, depth: int) -> float:
        if e not in deltas:
            deltas[e] = _delta_vector(spec, e, n + 2)
        return float(deltas[e][depth - 1])

    # the per-point conditioning chatter is not useful during a scan; other
    # warning categories still reach the caller's handlers
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditioningWarning)
        for i, e in enumerate(grid):
            try:
                vals[i] = delta(float(e), n)
            except SingularPivot as exc:
                warnings.warn(
                    f"grid point E = {e:g} skipped: {exc}",
                    GridPointSkippedWarning,
                    stacklevel=2,
                )
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

        def locate(depth: int, lo: float, hi: float) -> float | None:
            flo = delta(lo, depth)
            if flo == 0.0:
                return lo
            fhi = delta(hi, depth)
            if fhi == 0.0:
                return hi
            if (flo < 0.0) == (fhi < 0.0):
                return None
            return _bisect(lambda e: delta(e, depth), lo, hi, flo, fhi, tol)

        def recheck(lo: float, hi: float, e_found: float) -> float:
            deeper = locate(n + 2, lo, hi)
            if deeper is None:
                warnings.warn(
                    f"root near E = {e_found:.12g}: no sign change at depth "
                    f"{n + 2} inside the original bracket",
                    DepthRecheckWarning,
                    stacklevel=2,
                )
                return float("inf")
            return abs(deeper - e_found)

        for i in range(grid_points):
            if not finite[i]:
                continue
            if vals[i] == 0.0:
                e_found = float(grid[i])
                lo = float(grid[max(i - 1, 0)])
                hi = float(grid[min(i + 1, grid_points - 1)])
                roots.append(Root(e_found, recheck(lo, hi, e_found), n))
        for i in range(grid_points - 1):
            if not (finite[i] and finite[i + 1]):
                continue
            if vals[i] == 0.0 or vals[i + 1] == 0.0:
                continue
            if (vals[i] < 0.0) == (vals[i + 1] < 0.0):
                continue
            lo, hi = float(grid[i]), float(grid[i + 1])
            e_found = locate(n, lo, hi)
            roots.append(Root(e_found, recheck(lo, hi, e_found), n))
    roots.sort(key=lambda r: r.value)
    return roots
