"""Solution rebuild from the logarithmic-derivative series and residual checks.

Given alpha with y'/y = -alpha, the ODE y'' = L y' + S y factors through the
Riccati equation alpha' = alpha^2 + L alpha - S; every residual here is a
Taylor series whose coefficients certify the identity locally.
"""

from __future__ import annotations

from .aim import ProblemSpec
from .errors import OrderExhausted
from .series import TaylorSeries


def riccati_residual(alpha: TaylorSeries, spec: ProblemSpec, E: float) -> TaylorSeries:
    """alpha' - alpha^2 - L alpha + S; identically small coefficients certify alpha."""
    if alpha.order < 1:
        raise OrderExhausted("alpha must have order >= 1 to differentiate")
    lam0, s0 = spec.series_pair(E)
    return ((alpha.diff() - alpha * alpha) - lam0 * alpha) + s0


def factorization_residual(
    alpha: TaylorSeries, spec: ProblemSpec, E: float
) -> TaylorSeries:
    """Residual of the first-order factor pair (alpha, beta = -L - alpha).

    Returns -(alpha' + alpha beta + S), which vanishes exactly when the
    second-order operator splits into the two first-order factors; it agrees
    with -riccati_residual coefficientwise up to rounding.
    """
    if alpha.order < 1:
        raise OrderExhausted("alpha must have order >= 1 to differentiate")
    lam0, s0 = spec.series_pair(E)
    beta = -(lam0 + alpha)
    return -((alpha.diff() + alpha * beta) + s0)


def build_solution(
    alpha: TaylorSeries,
    spec: ProblemSpec,
    E: float,
    C1: float,
    C2: float,
) -> TaylorSeries:
    """Series solution exp(-int alpha) * (C1 int exp(int(L + 2 alpha)) + C2).

    The inner exponent L + 2 alpha is the Wronskian exp(int L) divided by
    the square of the first solution exp(-int alpha); with L + alpha the
    C1 branch would leave a residual -alpha y1' even for Riccati-exact
    alpha.  Both antiderivatives are normalized to vanish at the center,
    which fixes the (C1, C2) basis; any other lower limit only rescales
    the constants.
    """
    work_order = min(alpha.order, spec.order)
    if work_order < 4:
        raise OrderExhausted(
            f"order budget {work_order} too small; antiderivatives and the "
            "exponential need at least 4"
        )
    lam0, _ = spec.series_pair(E)
    outer = (-(alpha.antideriv(0.0))).exp()
    inner = ((lam0 + alpha * 2.0).antideriv(0.0)).exp().antideriv(0.0)
    return outer * (inner * C1 + C2)


def ode_residual(y: TaylorSeries, spec: ProblemSpec, E: float) -> TaylorSeries:
    """y'' - L y' - S y truncated to the common order."""
    if y.order < 2:
        raise OrderExhausted("y must have order >= 2 for the second derivative")
    lam0, s0 = spec.series_pair(E)
    return (y.diff().diff() - lam0 * y.diff()) - s0 * y
