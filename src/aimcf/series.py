"""Truncated Taylor-series arithmetic at a fixed expansion point.

A :class:`TaylorSeries` stores the coefficients of the expansion

    f(x) = c[0] + c[1]*(x - x0) + ... + c[M]*(x - x0)**M

about a center ``x0``.  The order ``M`` is the highest power retained.
Coefficients beyond the order are *unknown*, not zero, so arithmetic
between two series truncates the result to the smaller of the two orders
and never zero-pads.  Differentiation shortens a series by one order,
antidifferentiation lengthens it by one.  All operations are pure: they
return new series and never mutate their inputs.

Validation happens where data enters (:class:`TaylorSeries`); results of
arithmetic are checked only for overflow (:func:`_result`).

The module also ships a small rational expression language used to
describe the coefficient functions of an ODE: an AST (``Const``, ``VarX``,
``Param``, ``Neg``, ``Add``, ``Sub``, ``Mul``, ``Div``, ``IntPow``), its
parser (:func:`parse_expression`), and :func:`_bind`, the one expression
binder, which :func:`series_from_expr` calls on one parameter value and the
eigenvalue search of :mod:`aimcf.aim` once per search; its record rule says
which nodes carry the parameter in their constant term alone.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    AimError,
    CenterMismatch,
    ConditioningWarning,
    OrderExhausted,
    Overflow,
    ParseOrEvalError,
    SingularPivot,
    ValidationError,
    real_array,
    require_array_size,
    require_number,
)

# Pivot magnitudes below this raise SingularPivot outright.
EPS_PIVOT = 1e-300
# Pivots below this fraction of the numerator scale only warn.
PIVOT_WARN_REL = 1e-12
# -0.0 read as an int64: the bits _divide compares to find a negative zero
_NEG_ZERO_BITS = np.float64(-0.0).view(np.int64)


@dataclass(frozen=True)
class TaylorSeries:
    """Immutable truncated Taylor expansion ``sum c[k] (x - center)^k``.

    The constructor copies ``coeffs`` and rejects a centre that is not a
    finite real and coefficients that are not reals
    (:func:`~aimcf.errors.real_array`), empty, multi-dimensional or
    non-finite with :class:`ValidationError`.

    Attributes:
        center: Expansion point x0.
        coeffs: Read-only float array of length ``order + 1``; ``coeffs[k]``
            multiplies ``(x - center)**k``.  All entries must be finite.
    """

    center: float
    coeffs: np.ndarray

    def __post_init__(self):
        arr = real_array(self.coeffs, "coeffs")
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("coefficients must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("series coefficients must all be finite")
        require_number(self.center, "series center")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "center", float(self.center))

    # ------------------------------------------------------------------
    # basic queries

    @property
    def order(self) -> int:
        """Highest retained power of (x - center)."""
        return self.coeffs.size - 1

    @property
    def at_center(self) -> float:
        """Value of the series at its own center, i.e. ``coeffs[0]``."""
        return float(self.coeffs[0])

    def __call__(self, x: float) -> float:
        """Evaluate the truncated polynomial at ``x`` (Horner scheme)."""
        dx = x - self.center
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * dx + c
        return acc

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def constant(value: float, center: float, order: int) -> "TaylorSeries":
        """The series of f(x) = ``value`` about ``center``."""
        _require_leaf(order, (value, "constant value"), (center, "series center"))
        return TaylorSeries(center, _bind(Const(value), center, order))

    @staticmethod
    def identity(center: float, order: int) -> "TaylorSeries":
        """The series of f(x) = x about ``center``."""
        _require_leaf(order, (center, "series center"))
        return TaylorSeries(center, _bind(VarX(), center, order))

    # ------------------------------------------------------------------
    # operator sugar; the module-level functions carry the real logic

    def __add__(self, other):
        return _operate(series_add, self, other)

    def __radd__(self, other):
        return _operate(series_add, self, other, reflected=True)

    def __sub__(self, other):
        return _operate(series_sub, self, other)

    def __rsub__(self, other):
        return _operate(series_sub, self, other, reflected=True)

    def __mul__(self, other):
        return _operate(series_mul, self, other)

    def __rmul__(self, other):
        return _operate(series_mul, self, other, reflected=True)

    def __truediv__(self, other):
        return _operate(series_div, self, other)

    def __rtruediv__(self, other):
        return _operate(series_div, self, other, reflected=True)

    def __neg__(self):
        return _result(self.center, -self.coeffs)

    def diff(self):
        return series_diff(self)

    def antideriv(self, constant: float = 0.0):
        return series_antideriv(self, constant)

    def exp(self):
        return series_exp(self)


def _require_order(order) -> None:
    """Raise :class:`ValidationError` unless ``order`` is an integer >= 0 (the
    real-number rule of :func:`~aimcf.errors.require_number`) whose ``order +
    1`` coefficients numpy can hold (the size rule of
    :func:`~aimcf.errors.require_array_size`)."""
    require_number(order, "series order", integer=True)
    if order < 0:
        raise ValidationError("series order must be >= 0")
    require_array_size(order + 1, "series order")


def _require_leaf(order, *values) -> None:
    """The entry rule of the leaf constructors: ``order`` by
    :func:`_require_order`, each ``(value, label)`` of ``values`` a real number.
    A Python float passes here; the leaf of :func:`_bind` and the constructor
    check that it is finite."""
    _require_order(order)
    for value, label in values:
        if not isinstance(value, float):
            require_number(value, label)


def _operate(kernel, series: TaylorSeries, other, reflected: bool = False):
    """``kernel(series, other)``, or ``kernel(other, series)`` if ``reflected``,
    with a real number ``other`` taken as the constant series; NotImplemented
    for any other operand that is no series, so that Python raises TypeError."""
    if isinstance(other, (int, float)):
        other = TaylorSeries.constant(float(other), series.center, series.order)
    elif not isinstance(other, TaylorSeries):
        return NotImplemented
    return kernel(other, series) if reflected else kernel(series, other)


def _check_centers(a: TaylorSeries, b: TaylorSeries):
    if a.center != b.center:
        raise CenterMismatch(
            f"series centers differ: {a.center!r} vs {b.center!r}"
        )


def _checked(coeffs: np.ndarray) -> np.ndarray:
    """``coeffs`` itself; a non-finite coefficient raises :class:`Overflow`."""
    if not np.isfinite(coeffs).all():
        raise Overflow("series coefficients overflowed double precision")
    return coeffs


def _finite(value: float) -> float:
    """:func:`_checked` on one Python float."""
    if not math.isfinite(value):
        raise Overflow("series coefficients overflowed double precision")
    return value


def _result(center: float, coeffs: np.ndarray) -> TaylorSeries:
    """Wrap a fresh coefficient array the library computed from valid series.

    Skips the public constructor's copy and checks: ``coeffs`` is a 1-d
    float array that nothing writes to afterwards, and ``center`` is the
    centre of the operands.  Only overflow is checked; a non-finite
    coefficient raises :class:`Overflow`.
    """
    _checked(coeffs).setflags(write=False)
    result = object.__new__(TaylorSeries)
    object.__setattr__(result, "center", center)
    object.__setattr__(result, "coeffs", coeffs)
    return result


# ----------------------------------------------------------------------
# arithmetic


def series_add(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Coefficientwise sum, truncated to min(a.order, b.order)."""
    _check_centers(a, b)
    n = min(a.order, b.order) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.center, a.coeffs[:n] + b.coeffs[:n])


def series_sub(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Coefficientwise difference, truncated to min(a.order, b.order)."""
    _check_centers(a, b)
    n = min(a.order, b.order) + 1
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.center, a.coeffs[:n] - b.coeffs[:n])


def series_mul(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Cauchy product, truncated to min(a.order, b.order).

    No zero-padding: coefficients of the factors beyond their stored order
    are treated as unknown, so only the reliable prefix is returned.
    """
    _check_centers(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.center, _mul(a.coeffs, b.coeffs))


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Cauchy product of :func:`series_mul` on coefficient arrays."""
    return np.convolve(a, b)[: min(a.size, b.size)]


def series_div(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Long division a / b, truncated to min(a.order, b.order), by :func:`_divide`.

    Requires a usable pivot ``b.coeffs[0]``: magnitudes below ``EPS_PIVOT``
    raise :class:`SingularPivot`; pivots smaller than ``PIVOT_WARN_REL`` times
    the numerator's largest coefficient emit a :class:`ConditioningWarning` but
    proceed.  A quotient past double range raises :class:`Overflow`.
    """
    _check_centers(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.center, _divide(a.coeffs, b.coeffs))


def _check_pivot(pivot: float) -> float:
    """``pivot`` itself; a magnitude below ``EPS_PIVOT`` raises :class:`SingularPivot`."""
    if abs(pivot) < EPS_PIVOT:
        raise SingularPivot(f"divisor constant term {pivot!r} below {EPS_PIVOT:g}")
    return pivot


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """The long division of :func:`series_div` on coefficient arrays.

    Checks the pivot with :func:`_check_pivot` and warns as
    :func:`series_div` describes; the quotient has min(num.size, den.size)
    coefficients and is not checked for overflow.
    The caller sets the floating-point error state: a quotient past double
    range is inf.  Coefficient k is num[k] minus den[j] * out[k - j] over
    ascending j >= 1, leaving out the j where den[j] is zero: one
    multiply-subtract per nonzero divisor coefficient, so a polynomial
    divisor costs O(n) and only a dense one O(n**2).  A constant divisor
    (den[1:n] all zero) is one vector division num[:n] / pivot, unless a
    numerator coefficient past index 0 is -0.0, which the dense loop may
    turn into +0.0; that case takes the loop.  Where the quotient is finite
    it is the dense loop's over every j bit for bit, signed zeros included;
    where it is not, its first non-finite coefficient is the dense loop's.
    """
    pivot = _check_pivot(float(den[0]))
    num_scale = float(np.abs(num).max())
    if num_scale > 0.0 and abs(pivot) < PIVOT_WARN_REL * num_scale:
        warnings.warn(
            f"division pivot {pivot:.3e} is tiny relative to numerator scale "
            f"{num_scale:.3e}; quotient coefficients may be inaccurate",
            ConditioningWarning,
            stacklevel=3,
        )
    n = min(num.size, den.size)
    if not den[1:n].any() and not (num[1:n].view(np.int64) == _NEG_ZERO_BITS).any():
        # each coefficient is num[k] / pivot, as in the loop below
        return num[:n] / pivot
    # Python floats: the same IEEE operations as numpy scalars, several
    # times faster; overflow gives inf or nan, which the caller checks
    num, den = num[:n].tolist(), den[:n].tolist()
    terms = [(j, dj) for j, dj in enumerate(den[1:], 1) if dj != 0.0]
    live = 0  # terms[:live] are those with j <= k
    out: list[float] = []
    for k, acc in enumerate(num):
        if live < len(terms) and terms[live][0] == k:
            live += 1
        for j, dj in terms[:live]:
            acc -= dj * out[k - j]
        # while out is finite a skipped product is +-0.0: it can only turn an
        # accumulator of -0.0 into +0.0 (-0.0 - (-0.0)), never back, so a
        # -0.0 is redone over every j
        if acc == 0.0 and math.copysign(1.0, acc) < 0.0:
            acc = num[k]
            for dj, prev in zip(den[1 : k + 1], reversed(out)):
                acc -= dj * prev
        out.append(acc / pivot)
    return np.array(out)


def series_diff(a: TaylorSeries) -> TaylorSeries:
    """Derivative; the result has one order fewer."""
    if a.order == 0:
        raise OrderExhausted("cannot differentiate an order-0 series")
    k = np.arange(1, a.order + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _result(a.center, a.coeffs[1:] * k)


def series_antideriv(a: TaylorSeries, constant: float = 0.0) -> TaylorSeries:
    """Antiderivative with value ``constant``, a finite real, at the center;
    order grows by one."""
    require_number(constant, "antiderivative constant")
    out = np.empty(a.order + 2)
    out[0] = constant
    k = np.arange(1, a.order + 2, dtype=float)
    out[1:] = a.coeffs / k
    return TaylorSeries(a.center, out)


def series_exp(a: TaylorSeries) -> TaylorSeries:
    """Exponential of a series, same order, via the e' = a'e recurrence."""
    try:
        e0 = math.exp(float(a.coeffs[0]))
    except OverflowError:
        raise Overflow(
            f"exp of constant term {a.coeffs[0]!r} exceeds double range"
        ) from None
    # (j+1) a[j+1], the coefficients of a', on Python floats as in series_div
    da = [(j + 1) * c for j, c in enumerate(a.coeffs[1:].tolist())]
    out = [e0]
    for k in range(a.order):
        # (k+1) e[k+1] = sum_{j=0..k} (j+1) a[j+1] e[k-j]
        acc = 0.0
        for dj, prev in zip(da[: k + 1], reversed(out)):
            acc += dj * prev
        out.append(acc / (k + 1))
    return _result(a.center, np.array(out))


# ----------------------------------------------------------------------
# expression AST


class _Node:
    """Immutable expression node, equal and hashed by its type and fields."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, _Node) and self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class Const(_Node):
    __slots__ = ("value",)


class VarX(_Node):
    __slots__ = ()


class Param(_Node):
    __slots__ = ()


class Neg(_Node):
    __slots__ = ("operand",)


class Add(_Node):
    __slots__ = ("left", "right")


class Sub(_Node):
    __slots__ = ("left", "right")


class Mul(_Node):
    __slots__ = ("left", "right")


class Div(_Node):
    __slots__ = ("left", "right")


class IntPow(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("IntPow exponent must be a non-negative int")
        super().__init__(base, exponent)


Expression = Const | VarX | Param | Neg | Add | Sub | Mul | Div | IntPow


def series_from_expr(
    e: Expression, param_value: float, center: float, order: int
) -> TaylorSeries:
    """Evaluate an expression AST to a TaylorSeries at ``center``.

    ``x`` becomes the identity series, the parameter the constant
    ``param_value``: the expression is bound by :func:`_bind` and, if it has
    the parameter, evaluated at that one value, a record by its constant term.
    An ``order`` that is not an integer >= 0, a ``center`` and, if the
    expression has the parameter, a ``param_value`` that is not a finite real
    raise :class:`ValidationError`.
    A division by a series without a usable constant term raises
    :class:`SingularPivot`, a coefficient past double range :class:`Overflow`,
    and a tree too deep to walk recursively :class:`ParseOrEvalError`.
    """
    _require_order(order)
    require_number(center, "series center")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = _bind(e, center, order)
            if not isinstance(coeffs, np.ndarray):
                require_number(param_value, "parameter value")
                value = float(param_value)
                if isinstance(coeffs, _Shifted):  # _result checks the constant term
                    shifted, coeffs = coeffs, np.empty(order + 1)
                    coeffs[0], coeffs[1:] = shifted.head(value), shifted.tail
                else:
                    coeffs = coeffs(np.array([value]))[0]
    except RecursionError as exc:
        raise ParseOrEvalError("expression is nested too deeply to evaluate") from exc
    return _result(float(center), coeffs)


# the kernels of the operator nodes, on coefficient arrays and row stacks
_KERNELS = {Neg: operator.neg, Add: operator.add, Sub: operator.sub, Mul: _mul, Div: _divide}


class _Shifted(NamedTuple):
    """A node bound by the record rule of :func:`_bind`."""

    head: Callable  # the constant term, of a parameter value or an array of them
    tail: np.ndarray  # the coefficients past the constant one


def _bind(e: Expression, center: float, order: int):
    """Bind ``e`` at ``center`` and ``order``: its coefficients if it is
    parameter-free, else a :class:`_Shifted` record or a function of the
    parameter, either of which :func:`_rows` turns into a row stack.

    The row stack of a 1-d array of finite parameter values is a ``(values,
    order + 1)`` array whose row i is, bit for bit, the series of a walk that
    evaluates every node for value i alone.  Parameter-free subtrees are
    evaluated here, once.  The record rule: where the parameter reaches a node
    only through sums, differences and negations, and every parameter-free
    operand on the way binds, the node is a record.  Its coefficients past the
    constant one do not depend on the parameter, and are computed and checked
    finite here.  Its constant term is a function of the parameter, on a float
    or an array, with the operations of row 0 of the node's row stack and no
    check: these kernels keep a non-finite operand non-finite, so the caller's
    one check raises :class:`Overflow` where a node of the stack does.  Any
    other node with the parameter, and a record whose coefficients leave double
    range, is a function: sum, difference and negation are one numpy operation
    over the stack, other nodes run row by row, and a node whose rows leave
    double range raises :class:`Overflow`.  An operation that fails on
    parameter-free operands stays unbound, so every call raises it again, in
    tree order; where several rows fail, only a one-value call is sure to raise
    the walk's error.  The caller checks ``order`` (an integer >= 0) and the
    values, binds and calls under ``np.errstate(over="ignore",
    invalid="ignore")`` and turns a ``RecursionError`` into
    :class:`ParseOrEvalError`; a leaf checks only that it is finite.
    """
    if isinstance(e, (Const, VarX)):
        # read-only; TaylorSeries.constant and .identity copy these leaves
        leaf = np.zeros(order + 1)
        if isinstance(e, Const):
            leaf[0] = e.value
        else:
            leaf[0] = center
            if order >= 1:
                leaf[1] = 1.0
        if not math.isfinite(leaf[0]):
            raise ValidationError("series coefficients must all be finite")
        leaf.setflags(write=False)
        return leaf
    if isinstance(e, Param):
        return _Shifted(lambda value: value, np.zeros(order))
    if isinstance(e, Neg):
        return _lift(operator.neg, _bind(e.operand, center, order))
    if isinstance(e, (Add, Sub, Mul, Div)):
        kernel = _KERNELS[type(e)]
        return _lift(kernel, _bind(e.left, center, order), _bind(e.right, center, order))
    if isinstance(e, IntPow):
        power = functools.partial(_power, exponent=e.exponent)
        return _lift(power, _bind(e.base, center, order))
    raise ParseOrEvalError(f"unknown expression node {type(e).__name__}")


def _rows(side, values: np.ndarray) -> np.ndarray:
    """The row stack on ``values`` of a side that :func:`_bind` left a
    record or a function."""
    if not isinstance(side, _Shifted):
        return side(values)
    rows = np.empty((values.size, side.tail.size + 1))
    rows[:, 0] = _checked(side.head(values))
    rows[:, 1:] = side.tail
    return rows


def _lift(kernel, *operands):
    """``kernel`` on bound operands: applied now if all are coefficient arrays,
    a record by the rule of :func:`_bind`, else a function."""
    if all(isinstance(a, np.ndarray) for a in operands):
        try:
            return _apply(kernel, *operands)
        except AimError:
            pass  # left unbound: every call raises it again, in tree order
    elif kernel in _BROADCAST and not any(map(callable, operands)):
        # a coefficient array enters as its constant term and the rest
        parts = [(lambda _, c=float(a[0]): c, a[1:]) if isinstance(a, np.ndarray) else a
                 for a in operands]
        heads, tails = zip(*parts)
        tail = kernel(*tails)
        if np.isfinite(tail).all():
            return _Shifted(_compose(kernel, heads), tail)
    fns = [(lambda _, a=a: a) if isinstance(a, np.ndarray) else a for a in operands]
    fns = [functools.partial(_rows, f) if isinstance(f, _Shifted) else f for f in fns]
    return _compose(functools.partial(_apply, kernel), fns)


def _compose(kernel, fns):
    """``kernel`` on the values of ``fns`` at each call, one frame per tree
    level, as in a whole-tree walk."""
    if len(fns) == 1:
        (f,) = fns
        return lambda v: kernel(f(v))
    f, g = fns
    return lambda v: kernel(f(v), g(v))


# kernels that act on a whole row stack, elementwise, in one numpy operation
_BROADCAST = frozenset({operator.neg, operator.add, operator.sub})


def _apply(kernel, *operands: np.ndarray) -> np.ndarray:
    """``kernel`` on coefficient arrays and row stacks, checked for overflow.

    An elementwise kernel broadcasts a coefficient array over a stack's
    rows; any other kernel runs once per row, on that row of each stack and
    on each coefficient array whole.
    """
    stacks = [a for a in operands if a.ndim == 2]
    if kernel in _BROADCAST or not stacks:
        return _checked(kernel(*operands))
    out = np.empty(stacks[0].shape)
    for i in range(out.shape[0]):
        out[i] = kernel(*(a[i] if a.ndim == 2 else a for a in operands))
    return _checked(out)


def _power(base: np.ndarray, exponent: int) -> np.ndarray:
    result = np.zeros(base.size)
    result[0] = 1.0
    # exponentiation by squaring keeps the operation count low; a product
    # past double range stays non-finite through every later product
    k = exponent
    while k:
        if k & 1:
            result = _mul(result, base)
        k >>= 1
        if k:
            base = _mul(base, base)
    return result


# ----------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S)"
)

# the binary operators by level, loosest first; each level is left-associative
_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


def _tokenize(text: str):
    """``(kind, text, position)`` of each token of ``text``, then an end token;
    whitespace separates tokens, and any other character outside the grammar
    raises :class:`ParseOrEvalError` at its own position."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseOrEvalError(f"unexpected character {m[0]!r} at position {m.start()}")
        tokens.append((m.lastgroup, m[0], m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the small coefficient grammar."""

    def __init__(self, text: str, param_name: str):
        self.param_name = param_name
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Expression:
        e = self.binary(0)
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseOrEvalError(f"unexpected token {val!r} at position {pos}")
        return e

    def binary(self, level: int) -> Expression:
        """Operands joined by the operators of ``_BINARY[level]``, left to
        right; an operand is the next level, or a factor past the last."""
        tighter = level + 1 < len(_BINARY)
        node = self.binary(level + 1) if tighter else self.factor()
        while (tok := self.peek())[0] == "op" and tok[1] in _BINARY[level]:
            self.advance()
            rhs = self.binary(level + 1) if tighter else self.factor()
            node = _BINARY[level][tok[1]](node, rhs)
        return node

    def factor(self) -> Expression:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.advance()
            operand = self.factor()
            return operand if val == "+" else Neg(operand)
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        while self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, val, pos = self.advance()
            if kind != "number" or not val.isdigit():
                raise ParseOrEvalError(
                    f"exponent must be a non-negative integer literal at position {pos}"
                )
            node = IntPow(node, int(val))
        return node

    def atom(self) -> Expression:
        kind, val, pos = self.advance()
        if kind == "number":
            return Const(float(val))
        if kind == "ident":
            if val == "x":
                return VarX()
            if val == self.param_name:
                return Param()
            raise ParseOrEvalError(
                f"unknown identifier {val!r} at position {pos} "
                f"(allowed: 'x', {self.param_name!r})"
            )
        if kind == "op" and val == "(":
            node = self.binary(0)
            closing = self.advance()
            if closing[:2] != ("op", ")"):
                raise ParseOrEvalError(f"expected ')' at position {closing[2]}")
            return node
        shown = val if val else "end of input"
        raise ParseOrEvalError(f"unexpected token {shown!r} at position {pos}")


def parse_expression(text: str, param_name: str = "E") -> Expression:
    """Parse expression text over ``x`` and one named parameter into an AST, by
    recursive descent over decimal literals, ``+ - * / ^`` and parentheses.
    A parameter name that is no identifier or is ``x``, the variable, and text
    that is no string raise :class:`ValidationError`."""
    if not (isinstance(param_name, str) and param_name.isidentifier()) or param_name == "x":
        raise ValidationError(f"parameter {param_name!r} must be an identifier other than x")
    if not isinstance(text, str):
        raise ValidationError(f"expression text must be a string, got {text!r}")
    try:
        return _Parser(text, param_name).parse()
    except RecursionError as exc:
        raise ParseOrEvalError("expression is nested too deeply to parse") from exc
