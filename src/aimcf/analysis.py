"""Convergence verdicts, minimal-solution detection, and asymptotic
classification for three-term recurrences x_n = p_n x_{n-1} + q_n x_{n-2}.

:func:`stern_seidel` and :func:`bound_check` judge unit-numerator
fractions; :func:`miller_minimal_ratio` and :func:`pincherle_check` decide
whether a minimal solution exists; :func:`classify` labels a recurrence and
checks the label against numeric ratios read off its fraction.
"""

from __future__ import annotations

import cmath
import math
import sys
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cf import CFState, cf_approximants, dominant_probe, require_pq
from .errors import (
    DegenerateDenominator,
    HypothesisViolated,
    InsufficientData,
    NoConvergence,
    NonPositiveP,
    Overflow,
    ValidationError,
    ZeroB0,
    ZeroDenominator,
    ZeroP,
    ZeroQ,
    real_array,
    require_number,
    require_reals,
)

# The fixed policy of stern_seidel, part of diagnose's output: a sum of p_n
# above SUM_THRESHOLD counts as divergent (the fraction converges), and a sum
# of the last CAUCHY_WINDOW samples below CAUCHY_TOL as Cauchy (it converged).
SUM_THRESHOLD = 50.0
CAUCHY_WINDOW = 10
CAUCHY_TOL = 1e-12
# Relative agreement required between successive backward-recurrence estimates.
STABLE_RTOL = 1e-12
# Numeric ratios must match analytic predictions this tightly to be consistent.
CONSISTENCY_RTOL = 0.05
# Width of the band around 1 inside which the monic limit counts as exactly 1.
UNIT_Q_TOL = 1e-5
# A declared power law's values; a declared expansion's k_max where it gives none.
_POWER_LAW = ("a", "sigma", "b", "tau")
_K_MAX = 6
# Why every p_n is 0: the ZeroP text of monic_transform and a diagnose warning.
SYMMETRIC_CENTRE = (
    "every p_n is 0: L(x0) = 0, the symmetric centre where the fraction has no value"
)


class Verdict(Enum):
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


class CaseLabel(Enum):
    CASE_1A = "1a"
    CASE_1B = "1b"
    CASE_1C = "1c"
    CASE_2 = "2"
    CASE_3 = "3"
    CASE_4A = "4a"
    CASE_4B = "4b"
    CASE_5A = "5a"
    CASE_5B = "5b"
    CASE_5C_I = "5c_i"
    CASE_5C_II = "5c_ii"
    CASE_5C_III = "5c_iii"
    UNCLASSIFIED = "Unclassified"


class ConvergenceReport(NamedTuple):
    """Finite-sample verdict on a unit-numerator fraction with positive p_n."""

    verdict: Verdict
    partial_sum: float
    product_bound: float
    exp_bound: float
    mu: float


class PincherleResult(NamedTuple):
    """Agreement between the fraction limit and the minimal-solution ratio
    (:func:`pincherle_check`)."""

    cf_limit: float
    backward_ratio: float
    agreement: float


class DoubleRootData(NamedTuple):
    """Double characteristic root with square-root-of-n correction exponents."""

    r: complex
    gamma_pm: tuple[complex, complex]
    alpha_tilde: complex
    c1_pm: tuple[complex, complex]


class EqualExponentData(NamedTuple):
    """Exponent pair from the reduced quadratic in the doubly degenerate case."""

    alpha_pm: tuple[complex, complex]
    gap: complex
    subcase: str  # "i" distinct non-integer gap, "ii" integer gap, "iii" equal
    log_term_possible: bool


class BirkhoffAdamsData(NamedTuple):
    """Asymptotic-expansion data for a recurrence with 1/n coefficient series."""

    a_coeffs: tuple[float, ...]
    b_coeffs: tuple[float, ...]
    r_pm: tuple[complex, complex]
    alpha_pm: Optional[tuple[complex, complex]]
    c_table: Optional[tuple[tuple[complex, ...], tuple[complex, ...]]]
    double_root: Optional[DoubleRootData]
    equal_exponent: Optional[EqualExponentData]


class ClassificationReport(NamedTuple):
    """Asymptotic class of a recurrence plus authoritative numeric ratios, as
    :func:`classify` derives them; ``pincherle`` is None exactly when
    ``minimal_exists`` is false."""

    q_limit: float
    a_n_samples: tuple[float, ...]
    roots: tuple[complex, complex]
    case_label: CaseLabel
    power_law: Optional[tuple[float, float, float, float]]  # (a, sigma, b, tau)
    ba_data: Optional[BirkhoffAdamsData]
    minimal_exists: bool
    numeric_dominant_ratio: float
    numeric_minimal_ratio: float
    pincherle: Optional[PincherleResult]
    consistency: bool
    notes: tuple[str, ...] = ()


def stern_seidel(pvals: Sequence[float]) -> ConvergenceReport:
    """Convergence verdict for 1/(p_0 + 1/(p_1 + ...)) from the sum of p_n.

    Divergence of the sum implies the fraction converges and conversely, but
    only asymptotically; outside both finite-sample certainty regions, fixed
    by ``SUM_THRESHOLD``, ``CAUCHY_WINDOW`` and ``CAUCHY_TOL``, the verdict is
    Inconclusive rather than a guess.
    """
    p = real_array(pvals, "pvals")
    if p.size == 0:
        raise ValidationError("stern_seidel needs at least one sample")
    if not np.all(p > 0.0):  # NaN fails too
        bad = int(np.argmin(p > 0.0))
        raise NonPositiveP(f"p[{bad}] = {p[bad]:.6g} violates p_n > 0")

    partial = float(np.sum(p))
    mu = min(1.0, float(p[0]))
    product_bound = mu * mu * partial

    tail = float(np.sum(p[-CAUCHY_WINDOW:]))
    # A Cauchy tail certifies the sum converged, which wins over the threshold
    # crossing: a convergent sum can still exceed SUM_THRESHOLD.
    if tail < CAUCHY_TOL:
        verdict = Verdict.DIVERGES
        try:
            exp_bound = math.exp(2.0 * partial)
        except OverflowError:  # a sum above about 354
            exp_bound = math.inf
    elif partial > SUM_THRESHOLD:
        verdict = Verdict.CONVERGES
        exp_bound = math.inf
    else:
        verdict = Verdict.INCONCLUSIVE
        exp_bound = math.inf
    return ConvergenceReport(
        verdict=verdict,
        partial_sum=partial,
        product_bound=product_bound,
        exp_bound=exp_bound,
        mu=mu,
    )


def bound_check(state: CFState) -> list[tuple[int, float, float, bool]]:
    """Check |C_n - C_{n-1}| <= 1/((n+1) mu^2) on a unit-numerator fraction.

    Requires q_n = 1 and p_n >= 1 throughout. Equality is attained by exact
    arithmetic for p_n = 1, so the comparison carries a relative slack.
    """
    p = np.asarray(state.pvals, dtype=float)
    q = np.asarray(state.qvals, dtype=float)
    # each check is written so that NaN fails it
    if not np.all(np.abs(q - 1.0) <= 1e-9):
        bad = int(np.argmin(np.abs(q - 1.0) <= 1e-9))
        raise HypothesisViolated(
            f"q[{bad}] = {q[bad]:.6g}; unit partial numerators required "
            "(rescale with cf_equiv_unit first)"
        )
    if not np.all(p >= 1.0 - 1e-12):
        bad = int(np.argmin(p >= 1.0 - 1e-12))
        raise HypothesisViolated(f"p[{bad}] = {p[bad]:.6g} violates p_n >= 1")

    mu = min(1.0, float(p[0]))
    rows: list[tuple[int, float, float, bool]] = []
    c = state.C
    for n in range(1, c.size):
        if not (math.isfinite(c[n]) and math.isfinite(c[n - 1])):
            raise ZeroDenominator(f"approximant undefined at level {n}")
        lhs = abs(float(c[n]) - float(c[n - 1]))
        rhs = 1.0 / ((n + 1) * mu * mu)
        ok = lhs <= rhs + 1e-12 * max(1.0, rhs)
        rows.append((n, lhs, rhs, ok))
    return rows


def miller_minimal_ratio(pvals: Sequence[float], qvals: Sequence[float]) -> float:
    """Minimal-solution ratio x_{-1}/x_{-2} by Miller's backward recurrence.

    The backward pass planted at depth N with x_N = 0, x_{N-1} = 1 is the
    solution B_N A_n - A_N B_n up to a factor, so its estimate x_{-1}/x_{-2}
    is -C_N (Gautschi, SIAM Rev. 9 (1967) 24), read from one forward run of
    :func:`~aimcf.cf.cf_approximants`.
    Depths near N/4, N/2, 3N/4 and N, each with its successor, are tried in
    increasing order until two successive estimates agree to 1e-12 relative;
    failure to stabilize means no minimal solution is numerically detectable,
    and a conjugate pair of roots, 1 < t_N < inf (:func:`monic_transform`),
    raises NoConvergence before any estimate is read.
    """
    return _miller(cf_approximants(pvals, qvals))


def _miller(state: CFState) -> float:
    """:func:`miller_minimal_ratio` on the approximants of ``state``."""
    depths = _default_schedule(state.depth + 1)
    if len(depths) < 2:
        raise ValidationError(f"Miller's estimates need at least 4 levels, got {state.depth + 1}")
    # a conjugate pair makes C_n periodic: two depths a period apart would settle
    p0, p1 = float(state.pvals[-2]), float(state.pvals[-1])
    if p0 != 0.0 and p1 != 0.0 and 1.0 < _monic_sample(p0, p1, float(state.qvals[-1])) < math.inf:
        raise NoConvergence("the roots are a conjugate pair")
    prev: Optional[float] = None
    for top in depths:
        # Pincherle's theorem needs every q_n != 0, n <= top: a zero q_n ends
        # the fraction whether or not the recurrence has a minimal solution
        zeros = np.flatnonzero(state.qvals[: top + 1] == 0.0)
        if zeros.size:
            raise ZeroQ(f"q[{zeros[-1]}] = 0, but Pincherle's theorem needs every q_n != 0")
        est = -float(state.C[top])
        if not math.isfinite(est):  # B_N = 0, the backward pass's x_{-2}
            raise NoConvergence(f"base value vanished at depth {top}")
        if prev is not None and abs(est - prev) <= STABLE_RTOL * max(1.0, abs(est)):
            return est
        prev = est
    raise NoConvergence(f"Miller's estimates -C_N did not settle over depths {depths}")


def _default_schedule(size: int) -> list[int]:
    """Miller's depths 2..N for ``size`` = N + 1 levels: near N/4, N/2, 3N/4
    and N, each with its successor."""
    top = size - 1
    anchors = {max(2, top // 4), max(2, top // 2), max(2, (3 * top) // 4), top - 1}
    return sorted({d for k in anchors for d in (k, k + 1) if 2 <= d <= top})


def pincherle_check(pvals: Sequence[float], qvals: Sequence[float]) -> PincherleResult:
    """Compare the fraction limit against Miller's minimal-solution ratio.

    Both come from one run of :func:`~aimcf.cf.cf_approximants`: Miller's
    estimate at depth N is -C_N (:func:`miller_minimal_ratio`), and where the
    minimal solution exists the limit is minus its ratio x_{-1}/x_{-2}
    (Pincherle), so ``agreement``, |cf_limit + backward_ratio|, is the
    fraction's own change past the depth where the estimates settled.
    """
    return _pincherle(cf_approximants(pvals, qvals))


def _pincherle(state: CFState) -> PincherleResult:
    """:func:`pincherle_check` on the approximants of ``state``."""
    finite = state.C[np.isfinite(state.C)]
    if finite.size == 0:
        raise ZeroDenominator("no finite approximants available")
    cf_limit = float(finite[-1])
    backward = _miller(state)
    return PincherleResult(
        cf_limit=cf_limit,
        backward_ratio=backward,
        agreement=abs(cf_limit + backward),
    )


def monic_transform(
    pvals: Sequence[float], qvals: Sequence[float]
) -> tuple[list[float], float]:
    """Normalized coefficient sequence t_n = -4 q_n / (p_{n-1} p_n) and its limit.

    Substituting x_n = (prod_k p_k / 2) y_n gives the monic form
    y_n = 2 y_{n-1} - t_n y_{n-2}, whose characteristic roots at the limit t
    are 1 +/- sqrt(1 - t) (:func:`characteristic_roots`); times p_n / 2 they
    are the ratio limits of the original recurrence.  The limit estimate is
    the last sampled value; callers needing error bars should inspect the
    tail of the returned sequence.
    """
    p, q = require_pq(pvals, qvals)
    if p.size < 2:
        raise ValidationError("need at least two levels for the transform")
    if not p.any():
        raise ZeroP(SYMMETRIC_CENTRE)
    if np.any(p == 0.0):
        raise ZeroP(f"p[{int(np.argmax(p == 0.0))}] = 0 blocks the transform")
    p_list, q_list = p.tolist(), q.tolist()
    t = [_monic_sample(p_list[n - 1], p_list[n], q_list[n]) for n in range(1, p.size)]
    return t, t[-1]


def _monic_sample(p_prev: float, p: float, q: float) -> float:
    """One monic sample t = -4 q / (p_prev p) of Python floats (numpy
    scalars would warn on overflow); :func:`monic_transform` takes one a level."""
    denom = p_prev * p
    if abs(denom) >= sys.float_info.min:
        return -4.0 * q / denom
    # the product underflows: divide mantissas, add exponents
    (m1, e1), (m2, e2), (mq, eq) = map(math.frexp, (p_prev, p, q))
    with np.errstate(over="ignore"):  # past double range: +-inf
        return float(np.ldexp(-4.0 * mq / (m1 * m2), eq - e1 - e2))


def characteristic_roots(q: float) -> tuple[complex, complex]:
    """Roots 1 +/- sqrt(1 - q) of r^2 - 2 r + q, the monic form's equation at
    limit q; a complex conjugate pair when q > 1."""
    s = cmath.sqrt(1.0 - q)
    return (1.0 + s, 1.0 - s)


def _envelope_exponent(samples: np.ndarray) -> Optional[float]:
    """Fit |a_n| <= C n^(-beta) on the trimmed sample range; returns beta.

    Sample k corresponds to level n = k + 1. The first few levels and the last
    tenth are dropped as transient/edge; zero entries cannot enter the log fit.
    """
    n_vals = np.arange(1, samples.size + 1, dtype=float)
    lo = min(5, samples.size // 4)
    hi = samples.size - max(1, samples.size // 10)
    mask = np.zeros(samples.size, dtype=bool)
    mask[lo:hi] = True
    mask &= np.abs(samples) > 1e-300
    if np.count_nonzero(mask) < 8:
        return None
    x = np.log(n_vals[mask])
    y = np.log(np.abs(samples[mask]))
    slope = np.polyfit(x, y, 1)[0]
    return -float(slope)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= CONSISTENCY_RTOL * max(scale, 1e-300)


def classify(
    pvals: Sequence[float],
    qvals: Sequence[float],
    declared: Optional[dict] = None,
) -> ClassificationReport:
    """Label the asymptotic class of the recurrence and cross-check numerically.

    declared carries structure that cannot be inferred from samples: either a
    power law {"a", "sigma", "b", "tau"}, p_n ~ a n^sigma and q_n ~ b n^tau
    with n = index + 1, predicted by Perron-Kreuser, or expansion
    coefficients {"a_coeffs", "b_coeffs", optional "k_max"} in powers of 1/n.
    It is checked first, so a malformed one raises ValidationError whatever
    the sequences.  Without it the roots of :func:`monic_transform` times
    p_n / 2 are the prediction.  Labels are advisory, numeric ratios
    authoritative.

    These come off forward runs of :func:`~aimcf.cf.cf_approximants`, which
    neither overflow nor underflow.  The run over the whole fraction gives
    ``pincherle`` and ``numeric_minimal_ratio`` (Miller's estimates are -C_N)
    and, by :func:`~aimcf.cf.dominant_probe`, ``numeric_dominant_ratio`` and
    the growth modulus; ``numeric_dominant_ratio`` is NaN where the sample's
    characteristic roots share their modulus, as no solution dominates there.
    The run over the tail from level m + 1 gives minus the minimal ratio
    x_m / x_{m-1} at m = 3N/4 (Pincherle).  One rule checks every prediction:
    the dominant ratio and that minimal ratio, or for equal root moduli the
    growth modulus; only an inconsistent prediction adds a note.
    ``consistency`` is not minimal existence, which Miller's estimates decide
    unless the sample's roots are a conjugate pair, where none exists.
    The sequences must pass :func:`~aimcf.cf.require_pq`, and a non-finite
    entry raises ValidationError before any run.
    """
    p, q = require_pq(pvals, qvals)
    power_law, ba = parse_declared(declared)
    for name, arr in (("pvals", p), ("qvals", q)):
        if not np.all(np.isfinite(arr)):
            bad = int(np.argmin(np.isfinite(arr)))
            require_number(arr[bad].item(), f"'{name}[{bad}]'")
    if p.size < 31:
        raise InsufficientData(f"need at least 31 levels, got {p.size}")

    t, q_limit = monic_transform(p, q)
    with np.errstate(invalid="ignore"):  # inf - inf: a limit past double range
        a_samples = np.asarray(t, dtype=float) - q_limit
    roots = characteristic_roots(q_limit)
    split = _split_roots(*roots)
    notes: list[str] = []

    p_list, top = p.tolist(), p.size - 1
    state = cf_approximants(p, q)
    num_dom, growth = dominant_probe(state)
    if split is None:  # equal root moduli: no solution dominates
        num_dom = math.nan
    pincherle: Optional[PincherleResult] = None
    try:
        pincherle = _pincherle(state)
    except (NoConvergence, ZeroQ) as exc:
        notes.append(f"no minimal solution found: {exc}")
    num_min = math.nan if pincherle is None else pincherle.backward_ratio
    # the minimal ratio x_m / x_{m-1} inside the asymptotic range: minus the
    # tail from level m + 1, a zero q_n ending it as it ends any fraction
    probe_at = max(2, (3 * top) // 4)
    tail = cf_approximants(p[probe_at + 1 :], q[probe_at + 1 :])
    probe_ratio = -float(tail.C[-1])

    pred: Optional[tuple[float, float] | float]
    if power_law is not None:
        label, pred = _power_law_prediction(power_law, p.size, probe_at, notes)
    elif ba is not None:
        label = _ba_label(ba)
        pair = _split_roots(*ba.r_pm)
        pred = abs(ba.r_pm[0]) if pair is None else (pair[0].real, pair[1].real)
    else:
        label = _classify_limit_cases(q_limit, a_samples, notes)
        half_p = p_list[-1] / 2.0
        if split is None:
            pred = abs(roots[0] * half_p)
        else:
            # the minimal root of t[m] = -4 q_{m+1} / (p_m p_{m+1}) times p_m / 2
            # is ~ -q_{m+1} / p_{m+1}, even where t_n -> 0 as p_n grows
            r_min = characteristic_roots(t[probe_at])[1].real
            pred = (split[0].real * half_p, r_min * p_list[probe_at] / 2.0)
    consistency = pred is not None and _consistency(
        pred, num_dom, growth, probe_at, probe_ratio, notes
    )

    return ClassificationReport(
        q_limit=q_limit,
        a_n_samples=tuple(float(v) for v in a_samples),
        roots=roots,
        case_label=label,
        power_law=power_law,
        ba_data=ba,
        minimal_exists=pincherle is not None,
        numeric_dominant_ratio=num_dom,
        numeric_minimal_ratio=num_min,
        pincherle=pincherle,
        consistency=consistency,
        notes=tuple(notes),
    )


def check_declared(declared: Optional[dict]) -> Optional[str]:
    """Check a declaration of :func:`classify` without building it, so that
    the build can fail only numerically, and return its kind, ``"power law"``
    or ``"1/n expansion"``; None passes as None.  ValidationError for a
    declaration that is no dict; for neither kind or both; a power law with a
    scale a or b missing or zero or a value that is not a finite real; an
    expansion whose ``k_max`` is not an integer in 1..64 or whose coefficients
    are not non-empty lists of finite reals."""
    if declared is None:
        return
    if not isinstance(declared, dict):
        raise ValidationError(f"declared must be a dict, got {declared!r}")
    expansion = {"a_coeffs", "b_coeffs"} <= declared.keys()
    if _is_power_law(declared) == expansion:  # both kinds or neither
        raise ValidationError(
            "declared holds both sigma/tau and a_coeffs/b_coeffs; give one kind" if expansion
            else "declared must contain sigma/tau (power law) or a_coeffs/b_coeffs"
        )
    if not expansion:
        if "a" not in declared or "b" not in declared:
            raise ValidationError("declared power law needs both scales a and b")
        for key in _POWER_LAW:
            require_number(declared[key], f"declared {key}")
        if declared["a"] == 0 or declared["b"] == 0:
            raise ValidationError("declared power-law scales a and b must be nonzero")
        return "power law"
    k_max = declared.get("k_max", _K_MAX)
    require_number(k_max, "declared k_max", integer=True)
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    if k_max > 64:  # the distinct-root table costs about k_max**4 steps
        raise ValidationError(f"k_max must be <= 64, got {k_max}")
    for key in ("a_coeffs", "b_coeffs"):
        require_reals(declared[key], key)
    if not declared["a_coeffs"] or not declared["b_coeffs"]:
        raise ValidationError("a_coeffs and b_coeffs must be non-empty")
    return "1/n expansion"


def parse_declared(
    declared: Optional[dict],
) -> tuple[Optional[tuple[float, float, float, float]], Optional[BirkhoffAdamsData]]:
    """The declared power law (a, sigma, b, tau) or 1/n-expansion data of
    :func:`classify`, built once :func:`check_declared` passes it; (None,
    None) for no declaration."""
    check_declared(declared)
    if declared is None:
        return None, None
    if _is_power_law(declared):
        return tuple(float(declared[key]) for key in _POWER_LAW), None
    k_max = int(declared.get("k_max", _K_MAX))
    return None, birkhoff_adams(declared["a_coeffs"], declared["b_coeffs"], k_max)


def _is_power_law(declared: dict) -> bool:
    return {"sigma", "tau"} <= declared.keys()


def _classify_limit_cases(
    q_limit: float, a_samples: np.ndarray, notes: list[str]
) -> CaseLabel:
    """Resolve cases 1a/1b/1c, 2, 3 from the monic limit and perturbations."""
    beta = _envelope_exponent(a_samples)
    all_zero = bool(np.all(a_samples == 0.0))
    a_max = float(np.max(np.abs(a_samples))) if a_samples.size else 0.0
    tail = a_samples[-max(1, a_samples.size // 4):]
    tail_max = float(np.max(np.abs(tail)))

    if q_limit < 1.0 - UNIT_Q_TOL:
        vanishing = all_zero or tail_max <= max(1e-12, 1e-2 * a_max)
        if vanishing:
            return CaseLabel.CASE_1A
        if beta is not None and beta > 1.0:
            return CaseLabel.CASE_1B
        if beta is not None and beta > 0.5:
            return CaseLabel.CASE_1C
        notes.append("perturbations neither vanish nor decay fast enough")
        return CaseLabel.UNCLASSIFIED
    if abs(q_limit - 1.0) <= UNIT_Q_TOL:
        # Sum of n |a_n| must be bounded: envelope decay faster than n^-2.
        if all_zero or (beta is not None and beta > 2.0):
            return CaseLabel.CASE_2
        notes.append("monic limit 1 but n-weighted perturbation sum unbounded")
        return CaseLabel.UNCLASSIFIED
    diffs = np.diff(a_samples)
    beta_d = _envelope_exponent(diffs) if diffs.size else None
    if bool(np.all(diffs == 0.0)) or (beta_d is not None and beta_d > 1.0):
        return CaseLabel.CASE_3
    notes.append("monic limit above 1 but perturbation variation unbounded")
    return CaseLabel.UNCLASSIFIED


def _split_roots(r1: complex, r2: complex) -> Optional[tuple[complex, complex]]:
    """(dominant, minimal) of two characteristic roots; None for equal moduli."""
    if abs(abs(r1) - abs(r2)) <= 1e-9 * max(1.0, abs(r1)):
        return None
    return (r1, r2) if abs(r1) > abs(r2) else (r2, r1)


def _power_law_prediction(
    power_law: tuple[float, float, float, float],
    size: int,
    probe_at: int,
    notes: list[str],
) -> tuple[CaseLabel, Optional[tuple[float, float] | float]]:
    """Case label and Perron-Kreuser (dominant, minimal) ratios for
    p_n ~ a n^sigma, q_n ~ b n^tau, n = index + 1 (Gautschi, SIAM Rev. 9
    (1967) 24; Wimp, Computation with Recurrence Relations, 1984, ch. 1):
    a n^sigma and -(b/a) n^(tau-sigma) in case 4a, lambda n^sigma with
    lambda^2 = a lambda + b in case 4b, there to first order: times
    1 -/+ sigma lambda_- / ((lambda_+ - lambda_-) n) for the dominant and
    minimal root.  n is the forward probe's last level for the dominant ratio
    and probe_at + 2 for the minimal one, as x_m / x_{m-1} ~ -q_{m+1} / p_{m+1}.
    Equal root moduli give the forward probe's mean growth modulus instead;
    sigma < tau/2 predicts nothing.
    """
    a, sigma, b, tau = power_law
    if not sigma >= tau / 2.0:
        notes.append("declared growth has sigma < tau/2, outside the covered cases")
        return CaseLabel.UNCLASSIFIED, None
    n_dom, n_min = size, probe_at + 2
    label = CaseLabel.CASE_4A if sigma > tau / 2.0 else CaseLabel.CASE_4B
    try:
        if label is CaseLabel.CASE_4A:
            return label, (a * n_dom**sigma, -(b / a) * n_min ** (tau - sigma))
        s = cmath.sqrt(a * a + 4.0 * b)
        pair = _split_roots((a + s) / 2.0, (a - s) / 2.0)
        if pair is None:
            top, mid = size - 1, size // 2
            log_mean = (math.lgamma(top + 2) - math.lgamma(mid + 2)) / (top - mid)
            return label, abs(a + s) / 2.0 * math.exp(sigma * log_mean)
        hi, lo = pair[0].real, pair[1].real
        c = sigma * lo / (hi - lo)
        return label, (
            hi * n_dom**sigma * (1.0 - c / n_dom),
            lo * n_min**sigma * (1.0 + c / n_min),
        )
    except OverflowError as exc:
        raise Overflow(f"declared power-law prediction overflowed: {exc}") from exc


def _ba_label(ba: BirkhoffAdamsData) -> CaseLabel:
    if ba.equal_exponent is not None:
        return {
            "i": CaseLabel.CASE_5C_I,
            "ii": CaseLabel.CASE_5C_II,
            "iii": CaseLabel.CASE_5C_III,
        }[ba.equal_exponent.subcase]
    if ba.double_root is not None:
        return CaseLabel.CASE_5B
    return CaseLabel.CASE_5A


def _consistency(
    pred: tuple[float, float] | float,
    num_dom: float,
    growth: float,
    probe_at: int,
    probe_ratio: float,
    notes: list[str],
) -> bool:
    """Check a predicted (dominant, minimal) ratio pair, or for equal root
    moduli a growth modulus, against the probes, each at its own scale."""
    if isinstance(pred, tuple):
        what = f"predicted ratios (dominant, minimal at n={probe_at + 2})"
        want, got = pred, (num_dom, probe_ratio)
    else:
        what = "equal root moduli: predicted growth modulus"
        want, got = (pred,), (growth,)
    ok = all(
        math.isfinite(x) and _close(x, y, max(abs(x), abs(y)))
        for x, y in zip(got, want)
    )
    if not ok:
        notes.append(
            f"{what} {', '.join(f'{v:.6g}' for v in want)} vs numeric "
            f"{', '.join(f'{v:.6g}' for v in got)}; numeric ratios authoritative"
        )
    return ok


def _gbinom(z: complex, m: int) -> complex:
    """Generalized binomial coefficient C(z, m) for an integer m >= 0, via
    falling factorials; exact for small m."""
    out: complex = 1.0
    for i in range(m):
        out *= (z - i) / (i + 1)
    return out


def birkhoff_adams(
    a_coeffs: Sequence[float],
    b_coeffs: Sequence[float],
    k_max: int,
) -> BirkhoffAdamsData:
    """Asymptotic solution data for x_{n+1} + a(n) x_n + b(n) x_{n-1} = 0
    with a(n) = sum a_j n^-j and b(n) = sum b_j n^-j.

    Distinct characteristic roots produce r^n n^alpha times a 1/n series whose
    coefficients solve a triangular linear relation level by level; a double
    root branches on whether the first-order data degenerates as well.
    The inputs must pass :func:`check_declared` as a declared expansion.
    """
    check_declared({"a_coeffs": a_coeffs, "b_coeffs": b_coeffs, "k_max": k_max})
    a, b = tuple(map(float, a_coeffs)), tuple(map(float, b_coeffs))
    if b[0] == 0.0:
        raise ZeroB0("leading coefficient b_0 must be nonzero")

    def a_at(i: int) -> float:
        return a[i] if i < len(a) else 0.0

    def b_at(i: int) -> float:
        return b[i] if i < len(b) else 0.0

    a0, b0 = a[0], b[0]
    a1, b1 = a_at(1), b_at(1)
    disc = complex(a0 * a0 - 4.0 * b0)
    sq = cmath.sqrt(disc)
    r_plus = (-a0 + sq) / 2.0
    r_minus = (-a0 - sq) / 2.0
    scale = max(1.0, a0 * a0, abs(b0))
    double = abs(disc) <= 1e-12 * scale

    if not double:
        alphas: list[complex] = []
        table: list[tuple[complex, ...]] = []
        for r in (r_plus, r_minus):
            denom = a0 * r + 2.0 * b0
            if abs(denom) <= 1e-300:
                raise DegenerateDenominator(
                    f"a_0 r + 2 b_0 vanishes at root {r:.6g}; exponent undefined"
                )
            alpha = (a1 * r + b1) / denom
            alphas.append(alpha)

            def coeff(s: int, j: int) -> complex:
                # Level-s relation coefficient multiplying c_j.
                term = r * r * (2.0 ** (s - j)) * _gbinom(alpha - j, s - j)
                acc: complex = 0.0
                for k in range(j, s + 1):
                    acc += _gbinom(alpha - j, k - j) * a_at(s - k)
                return term + r * acc + b_at(s - j)

            c: list[complex] = [1.0]
            for s in range(2, k_max + 2):
                pivot = coeff(s, s - 1)  # equals (s-1)(a_0 r + 2 b_0)
                if abs(pivot) <= 1e-300:
                    raise DegenerateDenominator(
                        f"coefficient relation pivot vanished at level {s}"
                    )
                rhs: complex = 0.0
                for j in range(0, s - 1):
                    rhs += coeff(s, j) * c[j]
                c.append(-rhs / pivot)
            table.append(tuple(c))
        return BirkhoffAdamsData(
            a_coeffs=a,
            b_coeffs=b,
            r_pm=(r_plus, r_minus),
            alpha_pm=(alphas[0], alphas[1]),
            c_table=(table[0], table[1]),
            double_root=None,
            equal_exponent=None,
        )

    r = complex(-a0 / 2.0)
    first_order = a1 * r + b1
    if abs(first_order) > 1e-12 * max(1.0, abs(a1), abs(b1)):
        gamma = 2.0 * cmath.sqrt((a0 * a1 - 2.0 * b1) / (2.0 * b0))
        alpha_tilde = 0.25 + b1 / (2.0 * b0)
        a2, b2 = a_at(2), b_at(2)
        bracket = (
            a0 * a0 * a1 * a1
            - 24.0 * a0 * a1 * b0
            + 8.0 * a0 * a1 * b1
            - 24.0 * a0 * a2 * b0
            - 9.0 * b0 * b0
            - 32.0 * b1 * b1
            + 24.0 * b0 * b1
            + 48.0 * b0 * b2
        )
        c1 = (
            bracket / (24.0 * b0 * b0 * gamma),
            bracket / (24.0 * b0 * b0 * (-gamma)),
        )
        return BirkhoffAdamsData(
            a_coeffs=a,
            b_coeffs=b,
            r_pm=(r, r),
            alpha_pm=None,
            c_table=None,
            double_root=DoubleRootData(
                r=r, gamma_pm=(gamma, -gamma), alpha_tilde=alpha_tilde, c1_pm=c1
            ),
            equal_exponent=None,
        )

    # Doubly degenerate: exponents solve
    # r^2 w^2 + (a_1 r - r^2) w + (a_2 r + b_2) = 0.
    a2, b2 = a_at(2), b_at(2)
    qa = r * r
    qb = a1 * r - r * r
    qc = a2 * r + b2
    sq2 = cmath.sqrt(qb * qb - 4.0 * qa * qc)
    w1 = (-qb + sq2) / (2.0 * qa)
    w2 = (-qb - sq2) / (2.0 * qa)
    if (w1.real, w1.imag) >= (w2.real, w2.imag):
        alpha_hi, alpha_lo = w1, w2
    else:
        alpha_hi, alpha_lo = w2, w1
    gap = alpha_hi - alpha_lo
    if abs(gap) <= 1e-9:
        subcase, log_flag = "iii", False
    elif abs(gap.imag) <= 1e-9 and abs(gap.real - round(gap.real)) <= 1e-9 and round(
        gap.real
    ) >= 1:
        subcase, log_flag = "ii", True
    else:
        subcase, log_flag = "i", False
    return BirkhoffAdamsData(
        a_coeffs=a,
        b_coeffs=b,
        r_pm=(r, r),
        alpha_pm=None,
        c_table=None,
        double_root=None,
        equal_exponent=EqualExponentData(
            alpha_pm=(alpha_hi, alpha_lo),
            gap=gap,
            subcase=subcase,
            log_term_possible=log_flag,
        ),
    )
