"""Exception and warning types shared across the package, its one real-number
rule and its one array-size rule."""

from __future__ import annotations

import numbers
import sys

import numpy as np


class AimError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AimError):
    """A configuration object or input file violates a structural invariant."""


def require_number(value, label: str, integer: bool = False) -> None:
    """Raise :class:`ValidationError`, naming ``value`` by ``label``, unless it
    is an integer where ``integer`` is set, else a finite real (``json.load``
    reads ``NaN``); numpy scalars pass and booleans never do."""
    kind = "an integer" if integer else "a real number"
    number = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, number):
        raise ValidationError(f"{label} must be {kind}, got {value!r}")
    if not (integer or abs(value) <= sys.float_info.max):
        raise ValidationError(f"{label} must be finite, got {value!r}")


def require_array_size(size: int, name: str) -> None:
    """Raise :class:`ValidationError` where numpy cannot describe a float64
    array of ``size`` entries (8 * size > ``sys.maxsize``), which it refuses
    with a ValueError."""
    if 8 * size > sys.maxsize:
        raise ValidationError(f"{name} is too large for a numpy array")


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a fresh float array.  A float entry passes as it is, inf
    and nan too; any other must pass :func:`require_number`, entry i named
    ``'name[i]'`` in the flattened order."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        for i, value in enumerate(np.array(values, dtype=object).ravel()):
            if not isinstance(value, float):
                require_number(value, f"'{name}[{i}]'")
    return np.array(values, dtype=float)


def require_reals(values, name: str) -> None:
    """Raise :class:`ValidationError` unless ``values`` is a list or tuple of
    finite reals (:func:`require_number`), entry i named ``'name[i]'``."""
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"'{name}' must be a list, got {values!r}")
    for i, value in enumerate(values):
        if not (type(value) is float and abs(value) <= sys.float_info.max):
            require_number(value, f"'{name}[{i}]'")


class CenterMismatch(AimError):
    """Arithmetic attempted between series expanded at different centers."""


class SingularPivot(AimError):
    """Division by a series whose constant term is numerically zero."""


class OrderExhausted(AimError):
    """Not enough retained Taylor orders to carry out the operation."""


class ParseOrEvalError(AimError):
    """Expression text could not be parsed, or evaluation is ill-posed."""


class IndexOutOfRange(AimError):
    """A sequence index lies outside the computed depth range."""


class ZeroDenominator(AimError):
    """A denominator value required to be nonzero vanished."""


class ZeroPartialNumerator(AimError):
    """A partial numerator is zero where the transform needs its inverse."""


class ZeroQ(AimError):
    """A second-kind recurrence coefficient q_n is zero where division by it is required."""


class ZeroP(AimError):
    """A first-kind recurrence coefficient p_n is zero where division by it is required."""


class ZeroB0(AimError):
    """The leading expansion coefficient b_0 is zero; the characteristic equation degenerates."""


class NonPositiveP(AimError):
    """A positivity hypothesis on the partial denominators is violated."""


class HypothesisViolated(AimError):
    """Input falls outside the hypothesis set of the theorem being checked."""


class NoConvergence(AimError):
    """An iterative estimate failed to stabilise within the allowed schedule."""


class InsufficientData(AimError):
    """Too few samples to run the requested fit or classification."""


class DegenerateDenominator(AimError):
    """A denominator in a closed-form coefficient expression vanishes identically."""


class Overflow(AimError):
    """A computed value is not representable in double precision."""


class AimWarning(UserWarning):
    """Base class for all warnings emitted by this package."""


class ConditioningWarning(AimWarning):
    """A pivot or scale is small enough that results may lose accuracy."""


class DegenerateDeltaWarning(AimWarning):
    """The termination quantity vanishes identically; no root bracketing is possible."""


class DeterminantMismatchWarning(AimWarning):
    """The two determinant forms disagree beyond the requested tolerance."""


class GridPointSkippedWarning(AimWarning):
    """A scan point was skipped because the ladder could not be evaluated there."""


class DepthRecheckWarning(AimWarning):
    """A root could not be re-bracketed at the deeper recheck level."""
