"""Truncated Taylor-series arithmetic at a fixed expansion point.

A :class:`TaylorSeries` stores the coefficients of the expansion

    f(x) = c[0] + c[1]*(x - x0) + ... + c[M]*(x - x0)**M

about a center ``x0``.  The order ``M`` is the highest power retained.
Coefficients beyond the order are *unknown*, not zero, so arithmetic
between two series truncates the result to the smaller of the two orders
and never zero-pads.  Differentiation shortens a series by one order,
antidifferentiation lengthens it by one.  All operations are pure: they
return new series and never mutate their inputs.

The module also ships a small rational expression language used to
describe the coefficient functions of an ODE: an AST (``Const``, ``VarX``,
``Param``, ``Neg``, ``Add``, ``Sub``, ``Mul``, ``Div``, ``IntPow``), a
recursive-descent parser over ``x``, one declared parameter name, decimal
literals, ``+ - * / ^`` and parentheses, and :func:`bind_series`, which
binds an AST at a given center and order to a function from the parameter
value to the series, evaluating every parameter-free subtree once.
:func:`series_from_expr` binds and calls once.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass

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
)

# Pivot magnitudes below this raise SingularPivot outright.
EPS_PIVOT = 1e-300
# Pivots below this fraction of the numerator scale only warn.
PIVOT_WARN_REL = 1e-12


@dataclass(frozen=True)
class TaylorSeries:
    """Immutable truncated Taylor expansion ``sum c[k] (x - center)^k``.

    Attributes:
        center: Expansion point x0.
        coeffs: Read-only float array of length ``order + 1``; ``coeffs[k]``
            multiplies ``(x - center)**k``.  All entries must be finite.
    """

    center: float
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("coefficients must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("series coefficients must all be finite")
        if not math.isfinite(self.center):
            raise ValidationError("series center must be finite")
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
        c = np.zeros(order + 1)
        c[0] = value
        return TaylorSeries(center, c)

    @staticmethod
    def identity(center: float, order: int) -> "TaylorSeries":
        """The series of f(x) = x about ``center``."""
        c = np.zeros(order + 1)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return TaylorSeries(center, c)

    # ------------------------------------------------------------------
    # operator sugar; the module-level functions carry the real logic

    def __add__(self, other):
        return series_add(self, _coerce(other, self))

    def __radd__(self, other):
        return series_add(_coerce(other, self), self)

    def __sub__(self, other):
        return series_sub(self, _coerce(other, self))

    def __rsub__(self, other):
        return series_sub(_coerce(other, self), self)

    def __mul__(self, other):
        return series_mul(self, _coerce(other, self))

    def __rmul__(self, other):
        return series_mul(_coerce(other, self), self)

    def __truediv__(self, other):
        return series_div(self, _coerce(other, self))

    def __rtruediv__(self, other):
        return series_div(_coerce(other, self), self)

    def __neg__(self):
        return TaylorSeries(self.center, -self.coeffs)

    def diff(self):
        return series_diff(self)

    def antideriv(self, constant: float = 0.0):
        return series_antideriv(self, constant)

    def exp(self):
        return series_exp(self)


def _coerce(value, like: TaylorSeries) -> TaylorSeries:
    if isinstance(value, TaylorSeries):
        return value
    if isinstance(value, (int, float)):
        return TaylorSeries.constant(float(value), like.center, like.order)
    return NotImplemented


def _check_centers(a: TaylorSeries, b: TaylorSeries):
    if a.center != b.center:
        raise CenterMismatch(
            f"series centers differ: {a.center!r} vs {b.center!r}"
        )


# ----------------------------------------------------------------------
# arithmetic


def series_add(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Coefficientwise sum, truncated to min(a.order, b.order)."""
    _check_centers(a, b)
    n = min(a.order, b.order) + 1
    return TaylorSeries(a.center, a.coeffs[:n] + b.coeffs[:n])


def series_sub(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Coefficientwise difference, truncated to min(a.order, b.order)."""
    _check_centers(a, b)
    n = min(a.order, b.order) + 1
    return TaylorSeries(a.center, a.coeffs[:n] - b.coeffs[:n])


def series_mul(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Cauchy product, truncated to min(a.order, b.order).

    No zero-padding: coefficients of the factors beyond their stored order
    are treated as unknown, so only the reliable prefix is returned.
    """
    _check_centers(a, b)
    n = min(a.order, b.order) + 1
    prod = np.convolve(a.coeffs, b.coeffs)[:n]
    return TaylorSeries(a.center, prod)


def series_div(a: TaylorSeries, b: TaylorSeries) -> TaylorSeries:
    """Long division a / b, truncated to min(a.order, b.order).

    Requires a usable pivot ``b.coeffs[0]``: magnitudes below ``EPS_PIVOT``
    raise :class:`SingularPivot`; pivots smaller than ``PIVOT_WARN_REL``
    times the numerator's largest coefficient emit a
    :class:`ConditioningWarning` but proceed.  A quotient past double range
    raises :class:`Overflow`.
    """
    _check_centers(a, b)
    pivot = float(b.coeffs[0])
    if abs(pivot) < EPS_PIVOT:
        raise SingularPivot(f"divisor constant term {pivot!r} below {EPS_PIVOT:g}")
    a_scale = float(np.max(np.abs(a.coeffs)))
    if a_scale > 0.0 and abs(pivot) < PIVOT_WARN_REL * a_scale:
        warnings.warn(
            f"division pivot {pivot:.3e} is tiny relative to numerator scale "
            f"{a_scale:.3e}; quotient coefficients may be inaccurate",
            ConditioningWarning,
            stacklevel=2,
        )
    n = min(a.order, b.order) + 1
    out = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            acc = a.coeffs[k]
            # subtract sum_{j=1..k} b[j] * out[k-j]
            hi = min(k, b.order)
            for j in range(1, hi + 1):
                acc -= b.coeffs[j] * out[k - j]
            out[k] = acc / pivot
    if not np.all(np.isfinite(out)):
        raise Overflow("series quotient overflowed double precision")
    return TaylorSeries(a.center, out)


def series_diff(a: TaylorSeries) -> TaylorSeries:
    """Derivative; the result has one order fewer."""
    if a.order == 0:
        raise OrderExhausted("cannot differentiate an order-0 series")
    k = np.arange(1, a.order + 1, dtype=float)
    return TaylorSeries(a.center, a.coeffs[1:] * k)


def series_antideriv(a: TaylorSeries, constant: float = 0.0) -> TaylorSeries:
    """Antiderivative with value ``constant`` at the center; order grows by one."""
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
    n = a.order + 1
    out = np.empty(n)
    out[0] = e0
    for k in range(n - 1):
        # (k+1) e[k+1] = sum_{j=0..k} (j+1) a[j+1] e[k-j]
        acc = 0.0
        for j in range(k + 1):
            acc += (j + 1) * a.coeffs[j + 1] * out[k - j]
        out[k + 1] = acc / (k + 1)
    if not np.all(np.isfinite(out)):
        raise Overflow("series exponential overflowed double precision")
    return TaylorSeries(a.center, out)


# ----------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class VarX:
    pass


@dataclass(frozen=True)
class Param:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expression"


@dataclass(frozen=True)
class Add:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Sub:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Mul:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Div:
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class IntPow:
    base: "Expression"
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValidationError("IntPow exponent must be a non-negative int")


Expression = Const | VarX | Param | Neg | Add | Sub | Mul | Div | IntPow


def series_from_expr(
    e: Expression, param_value: float, center: float, order: int
) -> TaylorSeries:
    """Evaluate an expression AST to a TaylorSeries at ``center``.

    ``x`` becomes the identity series, the parameter becomes a constant.
    Division inside the tree requires the denominator series to have a
    usable constant term (else :class:`SingularPivot` propagates).  A tree
    too deep to walk recursively raises :class:`ParseOrEvalError`.  This is
    :func:`bind_series` called once.
    """
    return bind_series(e, center, order)(param_value)


def bind_series(
    e: Expression, center: float, order: int
) -> Callable[[float], TaylorSeries]:
    """Bind an expression AST at ``center`` and ``order`` to a function of the parameter.

    Every parameter-free subtree is evaluated here, once.  The returned
    function maps a parameter value to the series of ``e`` and recomputes
    only the nodes on the paths to the parameter, with the operations and
    operands of a walk that evaluates every node at every call, so its
    series are bit-identical to that walk's.  An operation that fails on
    parameter-free operands (a singular pivot, a non-finite coefficient)
    stays unbound, so every call raises it again, in the order the walk
    meets it.  A tree too deep to walk recursively raises
    :class:`ParseOrEvalError`, when bound or when called.
    """
    if order < 0:
        raise ValidationError("series order must be >= 0")
    try:
        bound = _bind(e, center, order)
    except RecursionError as exc:
        raise ParseOrEvalError("expression is nested too deeply to evaluate") from exc
    if isinstance(bound, TaylorSeries):
        return lambda param_value: bound

    def call(param_value: float) -> TaylorSeries:
        try:
            return bound(param_value)
        except RecursionError as exc:
            raise ParseOrEvalError("expression is nested too deeply to evaluate") from exc

    return call


def _bind(e: Expression, center: float, order: int):
    """``e`` as a series if it is parameter-free, else as a function of the parameter."""
    if isinstance(e, Const):
        return TaylorSeries.constant(e.value, center, order)
    if isinstance(e, VarX):
        return TaylorSeries.identity(center, order)
    if isinstance(e, Param):
        return lambda param_value: TaylorSeries.constant(param_value, center, order)
    if isinstance(e, Neg):
        return _lift(operator.neg, _bind(e.operand, center, order))
    if isinstance(e, (Add, Sub, Mul, Div)):
        op = {
            Add: series_add,
            Sub: series_sub,
            Mul: series_mul,
            Div: series_div,
        }[type(e)]
        return _lift(op, _bind(e.left, center, order), _bind(e.right, center, order))
    if isinstance(e, IntPow):
        power = functools.partial(_power, exponent=e.exponent)
        return _lift(power, _bind(e.base, center, order))
    raise ParseOrEvalError(f"unknown expression node {type(e).__name__}")


def _lift(op, *operands):
    """``op`` on bound operands: applied now if all are series, else on every call."""
    if all(isinstance(a, TaylorSeries) for a in operands):
        try:
            return op(*operands)
        except AimError:
            pass  # left unbound: every call raises it again, in tree order
    # one frame per tree level when called, as in a whole-tree walk
    fns = [(lambda _, a=a: a) if isinstance(a, TaylorSeries) else a for a in operands]
    if len(fns) == 1:
        (f,) = fns
        return lambda param_value: op(f(param_value))
    f, g = fns
    return lambda param_value: op(f(param_value), g(param_value))


def _power(base: TaylorSeries, exponent: int) -> TaylorSeries:
    result = TaylorSeries.constant(1.0, base.center, base.order)
    # exponentiation by squaring keeps the operation count low
    k = exponent
    while k:
        if k & 1:
            result = series_mul(result, base)
        k >>= 1
        if k:
            base = series_mul(base, base)
    return result


# ----------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over whitespace-only tail
            if text[pos:].strip() == "":
                break
            raise ParseOrEvalError(
                f"unexpected character {text[pos]!r} at position {pos}"
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the small coefficient grammar."""

    def __init__(self, text: str, param_name: str):
        if not param_name.isidentifier():
            raise ValidationError(f"parameter name {param_name!r} is not an identifier")
        self.text = text
        self.param_name = param_name
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseOrEvalError(f"expected {op!r} at position {pos}")
        return self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseOrEvalError(f"unexpected token {val!r} at position {pos}")
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if val == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
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
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.advance()
                nkind, nval, npos = self.peek()
                if nkind != "number" or not nval.isdigit():
                    raise ParseOrEvalError(
                        f"exponent must be a non-negative integer literal "
                        f"at position {npos}"
                    )
                self.advance()
                node = IntPow(node, int(nval))
            else:
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
            node = self.expr()
            self.expect_op(")")
            return node
        shown = val if val else "end of input"
        raise ParseOrEvalError(f"unexpected token {shown!r} at position {pos}")


def parse_expression(text: str, param_name: str = "E") -> Expression:
    """Parse expression text over ``x`` and one named parameter into an AST."""
    try:
        return _Parser(text, param_name).parse()
    except RecursionError as exc:
        raise ParseOrEvalError("expression is nested too deeply to parse") from exc
