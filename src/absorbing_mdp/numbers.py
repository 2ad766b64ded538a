"""Scalars with two backends: exact rationals, or floats with an error bound.

Every mass, weight, probability and integral in this library is a `Number`.
A Number is either exact (a `Fraction`, error identically zero) or approximate
(a float plus a nonnegative absolute error bound).  Arithmetic between exact
operands stays exact; as soon as a float operand enters, the result is
demoted to the float backend and the bound is propagated first-order, with a
small per-operation slop for rounding.  Exact values never degrade silently.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError
from fractions import Fraction

# A few ulps above IEEE double precision, charged once per float operation.
_EPS = 2.0 ** -50

# The err of every exact Number: one shared zero.
_NO_ERR = Fraction(0)

ExactLike = int | Fraction


def _slop(x: float) -> float:
    return _EPS * max(1.0, abs(x))


class Number:
    """An exact `Fraction` with err 0, or a finite float with a finite err >= 0.

    Immutable.  The public constructor validates its arguments; exact
    arithmetic results (`+ - * /`, `abs`), which are valid by construction,
    skip that through the module-private `_exact`.
    """

    __slots__ = ("value", "err")

    def __init__(self, value: Fraction | float, err: Fraction | float = _NO_ERR):
        v, e = value, err
        if isinstance(v, int):
            v = Fraction(v)
        if isinstance(v, Fraction):
            if e != 0:
                raise ValueError("exact value cannot carry an error bound")
            e = _NO_ERR
        elif isinstance(v, float):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r}")
            e = float(e)
            if not (e >= 0.0) or not math.isfinite(e):
                raise ValueError(f"bad error bound {e!r}")
        else:
            raise TypeError(f"unsupported value type {type(v).__name__}")
        _set_value(self, v)
        _set_err(self, e)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Number, (self.value, self.err))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(p, q=1) -> "Number":
        return Number(Fraction(p, q))

    @staticmethod
    def approx(v: float, err: float = 0.0) -> "Number":
        return Number(float(v), float(err))

    @staticmethod
    def lift(x) -> "Number":
        """Lift an int or Fraction to an exact Number.

        Floats are rejected on purpose: callers must say Number.approx to
        mark a value as inexact.
        """
        if isinstance(x, Number):
            return x
        if isinstance(x, Fraction):
            return _exact(x)
        if isinstance(x, int):
            return _exact(Fraction(x))
        raise TypeError(f"cannot lift {type(x).__name__} implicitly; use Number.approx")

    # -- predicates --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return isinstance(self.value, Fraction)

    def as_fraction(self) -> Fraction:
        if not self.is_exact:
            raise ValueError(f"not exact: {self!r}")
        return self.value

    def __float__(self) -> float:
        return float(self.value)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Number":
        if isinstance(other, Number):
            return other
        return Number.lift(other)

    def __add__(self, other) -> "Number":
        o = self._coerce(other)
        a, b = self.value, o.value
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return _exact(a + b)
        v = float(a) + float(b)
        return Number(v, float(self.err) + float(o.err) + _slop(v))

    __radd__ = __add__

    def __neg__(self) -> "Number":
        if isinstance(self.value, Fraction):
            return _exact(-self.value)
        return Number(-self.value, self.err)

    def __sub__(self, other) -> "Number":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Number":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Number":
        o = self._coerce(other)
        a, b = self.value, o.value
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return _exact(a * b)
        a, b = float(a), float(b)
        ea, eb = float(self.err), float(o.err)
        v = a * b
        return Number(v, abs(a) * eb + abs(b) * ea + ea * eb + _slop(v))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Number":
        o = self._coerce(other)
        a, b = self.value, o.value
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            # Fraction division by zero raises ZeroDivisionError itself
            return _exact(a / b)
        a, b = float(a), float(b)
        ea, eb = float(self.err), float(o.err)
        if abs(b) <= eb:
            raise ZeroDivisionError(f"divisor interval contains zero: {o!r}")
        v = a / b
        bound = (ea + abs(v) * eb) / (abs(b) - eb)
        return Number(v, bound + _slop(v))

    def __abs__(self) -> "Number":
        if isinstance(self.value, Fraction):
            return _exact(abs(self.value))
        return Number(abs(self.value), self.err)

    # -- comparisons (by central value; certified variants below) ----------

    def __lt__(self, other):
        return self.value < self._coerce(other).value

    def __le__(self, other):
        return self.value <= self._coerce(other).value

    def __gt__(self, other):
        return self.value > self._coerce(other).value

    def __ge__(self, other):
        return self.value >= self._coerce(other).value

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Number.lift(other)
        if not isinstance(other, Number):
            return NotImplemented
        return (
            self.is_exact == other.is_exact
            and self.value == other.value
            and self.err == other.err
        )

    def __hash__(self):
        return hash((self.is_exact, self.value, self.err))

    def certainly_ge(self, c) -> bool:
        """True only if the whole uncertainty interval sits at or above c."""
        c = Number.lift(c).value
        return self.value - self.err >= c

    def certainly_le(self, c) -> bool:
        c = Number.lift(c).value
        return self.value + self.err <= c

    def within(self, target, tol) -> bool:
        """|self - target| <= tol, including the tracked error bound."""
        gap = abs(self - Number.lift(target))
        return float(gap.value) + float(gap.err) <= float(tol)

    def __repr__(self):
        if self.is_exact:
            return f"Number({self.value})"
        return f"Number({self.value!r}, err={self.err!r})"


# The slot setters bypass the raising __setattr__.
_set_value = Number.value.__set__
_set_err = Number.err.__set__
_new = object.__new__


def _exact(v: Fraction) -> Number:
    """Trusted constructor for an exact result; `v` must be a Fraction."""
    n = _new(Number)
    _set_value(n, v)
    _set_err(n, _NO_ERR)
    return n


ZERO = Number.exact(0)
ONE = Number.exact(1)


def nsum(items) -> Number:
    total = ZERO
    for it in items:
        total = total + it
    return total


def format_number(n: Number) -> str:
    """Exact values render as 'p/q'; approximate values as a decimal literal."""
    if n.is_exact:
        f = n.as_fraction()
        return f"{f.numerator}/{f.denominator}"
    return repr(float(n.value))


def parse_number(s: str) -> Number:
    s = s.strip()
    if "/" in s:
        p, q = s.split("/")
        return Number.exact(int(p), int(q))
    try:
        return Number.exact(int(s))
    except ValueError:
        return Number.approx(float(s))
